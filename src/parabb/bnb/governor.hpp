// The search governor: what both B&B engines decide the same way about a
// running search, written once (docs/algorithm.md, "The search governor").
//
// One SearchGovernor per solve owns
//
//  * the incumbent U (Figure 1): its cost in an atomic every prune reads,
//    and its schedule under a mutex. It starts as EDF, explicit or +inf
//    (§3.4), or the resume snapshot's incumbent, and only offer() improves
//    it;
//  * the stop reason. Each cause has one check — the generated cap, the
//    memory cliff, cancellation (token or injected) and the wall clock
//    with injected skew — and the first cause wins;
//  * the degradation ladder (robust/degrade.hpp): its level and the
//    effective branch rule, child cap, selection and live transposition
//    table. apply_rung is the one place a rung takes effect, for the live
//    step and for the resume replay alike;
//  * completeness: whether a rung, a truncated child set or a disposal
//    lost part of the tree, and the least bound lost;
//  * checkpoint export and resume seeding (ckpt/snapshot.hpp), all but the
//    frontier itself;
//  * the finish: the SearchResult both engines return, with the proof
//    flag, the gap floor, the certificate and the table counters.
//
// Each engine keeps what differs: its poll cadence (when it calls which
// check), its frontier, and how its workers read the ladder and the
// incumbent cost. solve_bnb copies them into locals; the parallel workers
// load them per expansion, which is why they are atomic. An engine hands
// the governor only its frontier, next_seq and stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/params.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/robust/degrade.hpp"
#include "parabb/support/timer.hpp"

namespace parabb {

class SearchGovernor {
 public:
  /// Runs U, opens the certificate, and on a resume seeds everything but
  /// the frontier from params.resume. `engine` tags snapshots;
  /// `child_cap` is the engine's MAXSZDB before any rung tightens it.
  SearchGovernor(const SchedContext& ctx, const Params& params,
                 SnapshotEngine engine, int child_cap);
  SearchGovernor(const SearchGovernor&) = delete;
  SearchGovernor& operator=(const SearchGovernor&) = delete;

  // --- incumbent and accounting -------------------------------------------
  /// The incumbent cost U; kTimeInf while there is none.
  Time cost() const noexcept { return cost_.load(std::memory_order_relaxed); }
  /// Offers the complete schedule `state` of cost `cost`. Only an
  /// improvement is taken: it replaces the incumbent, counts a goal update
  /// and records the incumbent flight event.
  void offer(Time cost, const PartialSchedule& state, SearchStats& stats,
             SearchObs& so);
  /// Counters a resumed run carries over (zero otherwise), seconds
  /// excluded; the table counters are the snapshot's.
  const SearchStats& base_stats() const noexcept { return base_; }
  /// Wall time of this run plus that of every earlier incarnation.
  double elapsed() const noexcept {
    return resume_seconds_ + watch_.seconds();
  }

  // --- stop reason --------------------------------------------------------
  bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  /// Why the search stopped; kExhausted while it has not.
  TerminationReason reason() const noexcept {
    return stopped() ? reason_.load(std::memory_order_relaxed)
                     : TerminationReason::kExhausted;
  }
  /// Stops the search with `r` unless another cause came first. Returns
  /// true, so a check can end in `&& stop(...)`.
  bool stop(TerminationReason r) noexcept;

  bool over_generated(std::uint64_t generated) noexcept {
    return generated >= params_.rb.max_generated &&
           stop(TerminationReason::kBudget);
  }
  bool over_memory(std::size_t bytes) noexcept {
    return bytes >= params_.rb.max_memory_bytes &&
           stop(TerminationReason::kBudget);
  }
  /// The cancel token, or an injected cancel storm.
  bool cancelled(std::uint64_t generated) noexcept;
  /// RB.TIMELIMIT against elapsed() plus any injected clock skew.
  bool out_of_time(std::uint64_t generated) noexcept;

  /// The poll-point side effects both engines share: the flight budget
  /// marker, the progress heartbeat and the injected stall.
  void heartbeat(std::uint64_t generated, SearchObs& so) const;

  // --- degradation ladder -----------------------------------------------
  bool ladder_on() const noexcept { return ladder_on_; }
  /// True when `used_bytes` calls for a rung that has not fired yet.
  bool ladder_due(std::size_t used_bytes) const noexcept;
  /// The least memory at which the cliff or the next rung may be due: the
  /// next rung's mark while one is left, the budget otherwise (SIZE_MAX
  /// for an unbudgeted run). Below it neither over_memory nor ladder_due
  /// can fire, so an engine tests both with one comparison.
  std::size_t memory_mark() const noexcept;
  /// Fires every rung `used_bytes` calls for, each once across all
  /// callers, and accounts it (stats, flight event, certificate).
  /// `floor` is the least bound a completeness-voiding rung may lose.
  void step_ladder(std::size_t used_bytes, Time floor,
                   std::uint64_t generated, SearchStats& stats,
                   SearchObs& so);
  BranchRule branch() const noexcept {
    return branch_.load(std::memory_order_relaxed);
  }
  SelectRule select() const noexcept {
    return select_.load(std::memory_order_relaxed);
  }
  int max_children() const noexcept {
    return max_children_.load(std::memory_order_relaxed);
  }
  /// The table children are probed against; null when disabled or shed.
  TranspositionTable* table() const noexcept {
    return table_.load(std::memory_order_relaxed);
  }

  // --- completeness -------------------------------------------------------
  /// Part of the tree was lost, rooted at vertices with bounds >= `floor`.
  /// The bounds are monotone, so no lost schedule costs less than the
  /// least such floor, which therefore floors the gap certificate.
  void lose(Time floor) noexcept;
  bool incomplete() const noexcept {
    return incomplete_.load(std::memory_order_relaxed);
  }
  /// Least bound of anything lost (kTimeInf while complete).
  Time lost_floor() const noexcept {
    return floor_.load(std::memory_order_relaxed);
  }

  // --- checkpoint and resume ----------------------------------------------
  bool checkpoint_due() const noexcept;
  /// Writes a snapshot of `frontier` and everything the governor owns,
  /// the incumbent included, with the engine's `stats`; a failed write is
  /// counted and survived. Returns true when the controller asked the
  /// search to stop after this write (the SIGTERM path), and then stops it.
  bool write_checkpoint(std::vector<SnapshotVertex> frontier,
                        std::uint32_t next_seq, const SearchStats& stats,
                        SearchObs& so);

  /// Replays the resume snapshot's frontier: `store(state, lb, seq)` once
  /// per vertex, in container order. Returns the snapshot's next_seq, or 0
  /// on a fresh run (which stores nothing).
  template <class Store>
  std::uint32_t replay_frontier(SearchObs& so, Store&& store) const {
    const SearchSnapshot* snap = params_.resume;
    if (snap == nullptr) return 0;
    for (const SnapshotVertex& sv : snap->frontier) {
      store(replay_path(ctx_, sv.path), static_cast<Time>(sv.lb), sv.seq);
    }
    so.checkpoint_restored(static_cast<std::int64_t>(snap->frontier.size()));
    return snap->next_seq;
  }

  // --- finish -------------------------------------------------------------
  /// The run's result: the incumbent (moved out), the stop reason, and
  /// `stats` with the table counters and the accumulated seconds folded
  /// in. Decides the proof flag, closes the certificate and floors the gap
  /// certificate at `open_floor`, the least bound still open (kTimeInf
  /// when none is; kTimeNegInf from an engine that tracks none).
  SearchResult finish(const SearchStats& stats, Time open_floor);

 private:
  void resume_from(const SearchSnapshot& snap);
  void apply_rung(DegradeAction action, Time floor);

  const SchedContext& ctx_;
  const Params& params_;
  const SnapshotEngine engine_;
  Stopwatch watch_;
  double resume_seconds_ = 0.0;
  std::uint64_t instance_ = 0;  ///< fingerprint; set with ckpt or resume

  std::atomic<Time> cost_{kTimeInf};
  std::mutex best_mutex_;  ///< guards found_ and best_
  bool found_ = false;
  Schedule best_;
  SearchStats base_;

  std::atomic<bool> stop_{false};
  std::atomic<TerminationReason> reason_{TerminationReason::kExhausted};

  const bool ladder_on_;
  std::atomic<int> level_{0};
  std::atomic<BranchRule> branch_;
  std::atomic<SelectRule> select_;
  std::atomic<int> max_children_;
  std::unique_ptr<TranspositionTable> tt_;  ///< lives to the finish
  std::atomic<TranspositionTable*> table_{nullptr};

  std::atomic<bool> incomplete_{false};
  std::atomic<Time> floor_{kTimeInf};
};

}  // namespace parabb
