// Bridge between the engines' plain SearchStats counters and the obs
// subsystem. Two responsibilities, both driven by the field table beside
// SearchStats (kSearchStatsFields, bnb/engine.hpp):
//
//  * merge_search_stats is THE stats reduction: the parallel engine's
//    per-worker merge and any future reducer go through the registry's
//    accumulate() kernel (counters summed; worker peaks summed, which is
//    the engine's documented approximation; seconds untouched).
//  * SearchObs is the per-worker publication handle. Engines keep
//    bumping their local SearchStats exactly as before and call flush()
//    at their amortized poll points, which publishes only the deltas to
//    the registry — zero registry traffic per vertex. Flight events are
//    inline null-checked stores into the worker's ring.
//
// With Params::observe == nullptr every SearchObs call is a single
// predictable branch, so the disabled path costs nothing measurable
// (bench/micro_obs holds the enabled path to <= 2% as well).
#pragma once

#include <array>
#include <cstdint>

#include "parabb/bnb/engine.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"

namespace parabb {

class Counter;
class Gauge;

/// Sums `from` into `into` through obs accumulate(): the uint64 counters
/// of the field table plus the two peak fields (summed across workers —
/// approximate, as before). `seconds` is deliberately left alone; the
/// caller owns wall-clock attribution.
void merge_search_stats(SearchStats& into, const SearchStats& from);

class SearchObs {
 public:
  SearchObs() = default;

  /// Resolves metric handles and the flight channel for this worker.
  /// `obs` may be null (and its members may be null) — every later call
  /// degrades to a branch. `with_flight=false` binds metrics only (used
  /// for publishing merged totals that already had their events
  /// recorded elsewhere).
  void bind(const Observation* obs, std::size_t channel,
            bool with_flight = true);

  /// Additionally binds the per-worker deque-depth gauge
  /// (parabb_deque_depth_w<worker>); work-stealing workers call this
  /// after bind() and publish their deque size at the flush cadence.
  void bind_deque_depth(const Observation* obs, std::size_t worker);

  bool metrics_bound() const noexcept { return metrics_; }

  /// Publishes cur - last into the registry counters/peak gauges and
  /// remembers cur. Call at amortized poll points and once at the end
  /// (after tt_* and peaks are final).
  void flush(const SearchStats& cur);

  /// Resume support (ckpt/snapshot.hpp): marks `base` as already
  /// published, so a run seeded from a snapshot flushes only the work of
  /// this process into the registry — the snapshot's counters belong to
  /// the incarnation that earned them.
  void seed(const SearchStats& base) { last_ = base; }

  // --- flight events (inline; no-ops while unbound) ---
  void expand(int level, std::int64_t lb) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kExpand, FlightPruneRule::kNone,
                      clamp_level(level), lb);
  }
  void prune(FlightPruneRule rule, int level, std::int64_t lb) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kPrune, rule, clamp_level(level), lb);
  }
  void incumbent(int level, std::int64_t cost) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kIncumbent, FlightPruneRule::kNone,
                      clamp_level(level), cost);
  }
  /// Periodic progress marker; `generated` is the effort spent so far.
  void budget_checkpoint(std::int64_t generated) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kBudget, FlightPruneRule::kNone, -1,
                      generated);
  }
  void dispose(std::int64_t count) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kDispose, FlightPruneRule::kNone, -1,
                      count);
  }
  /// Successful steal: `victim` is the worker robbed, `count` the number
  /// of vertices taken in the batch.
  void steal(int victim, std::int64_t count) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kSteal, FlightPruneRule::kNone,
                      clamp_level(victim), count);
  }
  /// Degradation-ladder rung applied: `level` is the rung index just
  /// reached (1-based), `action` the DegradeAction as an integer.
  void degrade(int level, std::int64_t action) noexcept {
    if (flight_)
      flight_->record(FlightEventKind::kDegrade, FlightPruneRule::kNone,
                      clamp_level(level), action);
  }
  /// Publishes the current work-stealing deque depth (flush cadence).
  void deque_depth(std::int64_t depth) noexcept;

  /// Snapshot written: bumps parabb_ckpt_writes_total /
  /// parabb_ckpt_bytes_total and records a kCheckpoint flight event.
  void checkpoint_written(std::int64_t bytes) noexcept;
  /// Snapshot restored at startup: bumps parabb_ckpt_restores_total and
  /// records a kCheckpoint event with level 1 and the frontier size.
  void checkpoint_restored(std::int64_t frontier) noexcept;

 private:
  static std::int16_t clamp_level(int level) noexcept {
    if (level > INT16_MAX) return INT16_MAX;
    if (level < INT16_MIN) return INT16_MIN;
    return static_cast<std::int16_t>(level);
  }

  FlightChannel* flight_ = nullptr;
  bool metrics_ = false;
  std::array<Counter*, kSearchStatsFieldCount> counters_{};
  Gauge* peak_active_ = nullptr;
  Gauge* peak_memory_ = nullptr;
  Gauge* deque_depth_ = nullptr;
  Counter* ckpt_writes_ = nullptr;
  Counter* ckpt_bytes_ = nullptr;
  Counter* ckpt_restores_ = nullptr;
  SearchStats last_;
};

}  // namespace parabb
