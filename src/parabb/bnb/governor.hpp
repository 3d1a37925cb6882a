// The search governor: what both B&B engines decide the same way about a
// running search, written once (docs/algorithm.md, "The search governor").
//
// One SearchGovernor per solve owns
//
//  * the initial incumbent U: EDF, explicit or +inf (§3.4), or the resume
//    snapshot's incumbent;
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
//  * the finish: the proof flag, the certificate, and the table counters
//    folded into the stats.
//
// Each engine keeps what differs: its poll cadence (when it calls which
// check), its frontier, and how its workers read the ladder. solve_bnb
// copies the view into locals after a poll; the parallel workers load it
// per expansion, which is why the view is atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
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
  /// the frontier from params.resume. `engine` tags snapshots and says
  /// whether workers probe the table concurrently; `child_cap` is the
  /// engine's MAXSZDB before any rung tightens it.
  SearchGovernor(const SchedContext& ctx, const Params& params,
                 SnapshotEngine engine, int child_cap);
  SearchGovernor(const SearchGovernor&) = delete;
  SearchGovernor& operator=(const SearchGovernor&) = delete;

  // --- initial incumbent and accounting ---------------------------------
  Time initial_cost() const noexcept { return initial_cost_; }
  bool initial_found() const noexcept { return initial_found_; }
  /// The U schedule (EDF or resumed); engines move it out.
  Schedule& initial_best() noexcept { return initial_best_; }
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
  /// with the engine's `stats` and incumbent; a failed write is counted
  /// and survived. Returns true when the controller asked the search to
  /// stop after this write (the SIGTERM path), and then stops it.
  bool write_checkpoint(std::vector<SnapshotVertex> frontier,
                        std::uint32_t next_seq, const SearchStats& stats,
                        bool found, Time cost, const Schedule& best,
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
  /// Folds the table counters and the accumulated seconds into `stats`,
  /// decides the proof flag and closes the certificate. Returns proved.
  bool finish(bool found, const Schedule& best, Time cost,
              SearchStats& stats);

 private:
  void resume_from(const SearchSnapshot& snap);
  void apply_rung(DegradeAction action, Time floor);

  const SchedContext& ctx_;
  const Params& params_;
  const SnapshotEngine engine_;
  Stopwatch watch_;
  double resume_seconds_ = 0.0;
  std::uint64_t instance_ = 0;  ///< fingerprint; set with ckpt or resume

  Time initial_cost_ = kTimeInf;
  bool initial_found_ = false;
  Schedule initial_best_;
  SearchStats base_;

  std::atomic<bool> stop_{false};
  std::atomic<TerminationReason> reason_{TerminationReason::kExhausted};

  const DegradeSchedule sched_;
  const bool ladder_on_;
  std::atomic<int> level_{0};
  std::atomic<BranchRule> branch_;
  std::atomic<SelectRule> select_;
  std::atomic<int> max_children_;
  std::unique_ptr<TranspositionTable> tt_;
  std::atomic<TranspositionTable*> table_{nullptr};
  TranspositionCounters shed_counters_{};  ///< the table's at the shed

  std::atomic<bool> incomplete_{false};
  std::atomic<Time> floor_{kTimeInf};
};

}  // namespace parabb
