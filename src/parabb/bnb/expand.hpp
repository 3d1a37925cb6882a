// The child loop of one expansion (paper §3, Figure 2 steps 6-8): branch
// with B (less the children D skips), bound with L, discard with F and E,
// then the transposition table. solve_bnb, the work-stealing worker and
// the parallel seeding phase all expand through expand_children, so a
// change to how children are generated, bounded or filtered is written
// once.
//
// The kernel owns everything the engines share: D's processor symmetry,
// the bound-aware cutoff, the child cap, the bound itself
// (IncrementalLB::evaluate_child), the generated/goal counters, and the
// F -> E -> TT chain with its counters, flight events and certificate
// cuts. The callers keep what differs between them: counting the
// expansion, the goal policy, where a kept child goes, and what a
// truncated child set means.
#pragma once

#include <bit>

#include "parabb/bnb/certify.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/support/inline_vector.hpp"

namespace parabb {

/// Tasks the branching rule B expands from `ready` (§3.3).
inline InlineVector<TaskId, kMaxTasks> branch_tasks(const SchedContext& ctx,
                                                    BranchRule rule,
                                                    TaskSet ready) {
  InlineVector<TaskId, kMaxTasks> out;
  PARABB_ASSERT(!ready.empty());
  switch (rule) {
    case BranchRule::kBFn:
      for (const TaskId t : ready) out.push_back(t);
      break;
    case BranchRule::kBF1:
      for (const TaskId t : ctx.level_order()) {
        if (ready.contains(t)) {
          out.push_back(t);
          break;
        }
      }
      break;
    case BranchRule::kDF:
      for (const TaskId t : ctx.dfs_order()) {
        if (ready.contains(t)) {
          out.push_back(t);
          break;
        }
      }
      break;
  }
  PARABB_ASSERT(!out.empty());
  return out;
}

/// D's processor symmetry (Params::dominance): the processors that host no
/// task in `ps`, except the lowest-numbered of them, as a bitmask. Sound
/// only when ctx.uniform_hops(): then every empty processor gives a task
/// the same start, and the child on one is a renaming of the child on the
/// lowest; the busy processors hold disjoint task sets, so no renaming
/// moves them. "Empty" means hosting no task: a processor whose tasks all
/// take c = 0 still reads proc_avail 0.
inline std::uint32_t symmetric_empty_procs(const SchedContext& ctx,
                                           const PartialSchedule& ps) {
  std::uint32_t busy = 0;
  for (const TaskId t : ps.scheduled()) busy |= 1u << ps.proc(t);
  const std::uint32_t empty = ~busy & ((1u << ctx.proc_count()) - 1);
  return empty & (empty - 1);  // all but the lowest
}

/// Generates, bounds and filters the children of `cur` in generation order
/// (task of `branch`, then processor), at most `child_cap` of them. With D
/// on, a child on a processor symmetric_empty_procs names is never
/// generated: it counts nowhere, not against the cap either.
///
/// `cur` is the parent's state; each child that needs a placed state is
/// placed on it and unplaced again, so `cur` reads as the parent once the
/// call returns normally. A child E prunes is settled by its bound alone
/// unless F or a certificate must see it placed.
///
///  * A goal child (the last task) calls `on_goal(t, p, cost)` with
///    nothing placed; its bound is its exact cost.
///  * A child that survives F, E and the table calls `on_keep(lb, order)`
///    while it is placed on `cur`; `order` is its 1-based generation index.
///
/// Returns true when the cap left a child ungenerated. `tt` may be null.
///
/// Always inlined: GCC otherwise keeps solve_bnb's instantiation out of
/// line, and solve_seq has shown itself sensitive to how solve_bnb's hot
/// loop is compiled.
template <class OnGoal, class OnKeep>
[[gnu::always_inline]] inline bool expand_children(
    const SchedContext& ctx, const Params& params, IncrementalLB& inc,
    PartialSchedule& cur, BranchRule branch, int child_cap, Time threshold,
    TranspositionTable* tt, SearchStats& stats, SearchObs& so,
    OnGoal&& on_goal, OnKeep&& on_keep) {
  const int child_count = cur.count() + 1;
  // When every child is a goal its bound is its exact cost and may beat
  // the incumbent even at or above the BR-relaxed threshold, so the
  // short-circuit must not fire. Likewise keep bounds exact under E = none
  // (pruned-vs-kept is not decided by the threshold alone) and while
  // certifying (the audit log must carry exact bounds).
  const bool goal_children = child_count == ctx.task_count();
  const Time cutoff = (params.elim == ElimRule::kUDBAS && !goal_children &&
                       params.certify == nullptr)
                          ? threshold
                          : kTimeInf;
  const bool place_pruned =
      params.characteristic || params.certify != nullptr;
  // The processors each task goes onto: all of them, less D's renamed
  // twins.
  std::uint32_t procs = (1u << ctx.proc_count()) - 1;
  if (params.dominance && ctx.uniform_hops()) {
    procs &= ~symmetric_empty_procs(ctx, cur);
  }
  inc.attach(cur);
  int children = 0;
  for (const TaskId t : branch_tasks(ctx, branch, cur.ready())) {
    for (std::uint32_t left = procs; left != 0; left &= left - 1) {
      const auto p = static_cast<ProcId>(std::countr_zero(left));
      if (children >= child_cap) return true;
      ++children;
      ++stats.generated;
      const Time lb = inc.evaluate_child(cur, t, p, params.lb, cutoff);

      if (goal_children) {
        // Goal vertex: candidate new upper-bound solution (Figure 2).
        ++stats.goals;
        on_goal(t, p, lb);
        continue;
      }
      const bool bound_pruned =
          params.elim == ElimRule::kUDBAS && lb >= threshold;
      const bool placed = !bound_pruned || place_pruned;
      if (placed) inc.place(cur, t, p);
      if (placed && params.characteristic &&
          !params.characteristic(ctx, cur)) {
        ++stats.pruned_children;  // F: cannot extend to a valid solution
        so.prune(FlightPruneRule::kCharacteristic, child_count, lb);
        if (params.certify) {
          params.certify->record_cut(ctx, cur, CutRule::kCharacteristic, lb);
        }
      } else if (bound_pruned) {
        ++stats.pruned_children;  // E applied to DB
        so.prune(FlightPruneRule::kBound, child_count, lb);
        if (params.certify) {
          params.certify->record_cut(
              ctx, cur, bound_cut_rule(ctx, cur, params.lb, threshold), lb);
        }
      } else if (tt && tt->seen_or_insert(cur, lb)) {
        ++stats.pruned_children;  // duplicate of an already-seen state
        so.prune(FlightPruneRule::kTransposition, child_count, lb);
        if (params.certify) {
          params.certify->record_cut(ctx, cur, CutRule::kTransposition, lb);
        }
      } else {
        on_keep(lb, children);
      }
      if (placed) inc.unplace(cur, t);
    }
  }
  return false;
}

}  // namespace parabb
