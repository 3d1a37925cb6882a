// Lower-bound cost functions L (paper §3.5).
//
// Each returns a provable lower bound L̂ on the maximum task lateness of any
// complete schedule reachable from the given partial schedule under the
// scheduling operation of §4.3:
//
//  * LB0 — recursive estimated finish times driven only by arrival times and
//    predecessor estimates (communication costs are optimistically zero,
//    which keeps the bound admissible since co-located tasks pay none):
//        f̂_i = f_i                                    if scheduled
//        f̂_i = max(a_i + c_i,
//                   max_{j ≺· i} (max(f̂_j, a_i) + c_i)) otherwise
//
//  * LB1 — LB0 with the adaptive processor-contention term l_min, the
//    earliest time any processor becomes free; no unscheduled task can
//    start before it under the append-only operation:
//        f̂_i = max(max(a_i, l_min) + c_i,
//                   max_{j ≺· i} (max(f̂_j, a_i, l_min) + c_i))
//
//  * LB2 (extension) — max(LB1, workload packing bound): for each absolute
//    deadline D, the unscheduled work W_D with deadlines <= D cannot finish
//    before ceil((Σ_q avail_q + W_D)/m), so some task is at least that far
//    past D.
//
// In all cases  L̂ = max_i (f̂_i − D_i).  On a complete schedule every f̂
// equals the real finish time, so L̂ is the exact cost of a goal vertex.
#pragma once

#include <array>
#include <cstdint>

#include "parabb/bnb/params.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"

namespace parabb {

/// Evaluates lower bound `kind` for `ps` from scratch. O(n + e) for
/// LB0/LB1; O(n log n + e) for LB2. This is the reference implementation:
/// the engines evaluate children through IncrementalLB below, and the
/// differential suite (tests/test_lower_bound_incremental.cpp) pins the two
/// to each other on every state it can generate.
Time lower_bound_cost(const SchedContext& ctx, const PartialSchedule& ps,
                      LowerBound kind);

/// The exact maximum lateness of a complete schedule (all f̂ = f).
/// Convenience wrapper asserting completeness.
Time exact_cost(const SchedContext& ctx, const PartialSchedule& ps);

/// Incremental bound evaluator: a scratch context that rides along a
/// place()/unplace() walk so per-child evaluation touches only what the
/// placement changed instead of re-deriving everything from scratch.
///
/// What it maintains across place()/unplace() (invariants, each restored
/// exactly by unplace because the scheduling operation is reversible):
///  * `avail_sum`   = Σ_q proc_avail(q)   — LB2's packing numerator;
///  * `unsched_work`= Σ exec over unscheduled tasks;
///  * `worst_sched` = max lateness over the scheduled prefix (monotone
///    under place, so one saved value per nesting level undoes it);
///  * an undo stack holding, per nesting level, that saved value and the
///    placed processor's frontier from before the placement, which
///    place() reads anyway — so unplace() restores the frontier in O(1)
///    instead of PartialSchedule rescanning the processor's tasks;
///  * unscheduled-membership bitmasks in topo-rank and deadline-rank
///    space, so both evaluation loops visit unscheduled tasks only, in
///    the right order, with no sort and no branch per skipped task;
///  * f̂ of every *scheduled* task (its exact finish time). The f̂ entries
///    of unscheduled tasks are scratch: every evaluation writes them in
///    topo order before it reads them, so evaluate(), evaluate_child()
///    and unplace() may leave anything there.
///
/// evaluate() then costs O(U + E_U) for LB0/LB1 and O(U + E_U + U) for LB2
/// — U = unscheduled tasks, E_U = their incoming arcs — instead of the
/// from-scratch O(n + e + n log n), and it short-circuits as soon as its
/// running maximum proves the final bound cannot stay below `cutoff`.
/// evaluate_child() bounds a child without placing it; the engines bound
/// children that way and place only those they keep or must inspect.
class IncrementalLB {
 public:
  explicit IncrementalLB(const SchedContext& ctx) noexcept : ctx_(&ctx) {}

  /// Rebinds the scratch to `ps` in O(n + m). Call once per expanded
  /// parent; subsequent place()/unplace() keep the terms synchronized.
  void attach(const PartialSchedule& ps) noexcept;

  /// Applies ps.place(t, p) and updates every incremental term.
  /// Returns the assigned start time.
  CTime place(PartialSchedule& ps, TaskId t, ProcId p) noexcept;

  /// Reverts the most recent not-yet-reverted place(), which must have
  /// placed `t` (LIFO nesting), in O(1) plus t's successor count.
  void unplace(PartialSchedule& ps, TaskId t) noexcept;

  /// Lower bound of the attached state. When the result is < cutoff it is
  /// the exact bound (== lower_bound_cost). Otherwise it is some value v
  /// with cutoff <= v <= exact bound — enough to decide every
  /// `bound >= threshold` prune identically to the exact evaluation, which
  /// is the only way the engines consume bounds at or above the threshold.
  Time evaluate(const PartialSchedule& ps, LowerBound kind,
                Time cutoff = kTimeInf) noexcept;

  /// Bound of the child ps.place(t, p) of the attached state `ps` (t must
  /// be ready): exactly what place(ps, t, p), evaluate(ps, kind, cutoff),
  /// unplace(ps, t) returns, cutoff contract included, without placing.
  /// Leaves `ps` and every maintained term untouched; its only write is to
  /// the f̂ scratch of unscheduled tasks. Its first comparison, which
  /// includes the child's own lateness, often settles a pruned child for
  /// the cost of one earliest_start.
  Time evaluate_child(const PartialSchedule& ps, TaskId t, ProcId p,
                      LowerBound kind, Time cutoff = kTimeInf) noexcept;

 private:
  static_assert(kMaxTasks <= 64, "rank bitmasks are one 64-bit word");

  /// The f̂ recursion over the unscheduled tasks in `topo` (topo-rank
  /// bits), each starting no earlier than `lmin`, then for LB2 the
  /// packing loop over `dl` (deadline-rank bits) against `avail_sum` and
  /// the unscheduled work `work`, continuing the running maximum `worst`.
  /// evaluate() and evaluate_child() differ only in these operands.
  Time scan(Time worst, Time lmin, std::uint64_t topo, std::uint64_t dl,
            Time avail_sum, Time work, LowerBound kind, Time cutoff) noexcept;

  const SchedContext* ctx_;
  Time avail_sum_ = 0;              ///< Σ_q proc_avail(q)
  Time unsched_work_ = 0;           ///< Σ exec over unscheduled tasks
  Time worst_sched_ = kTimeNegInf;  ///< max lateness of the scheduled prefix
  std::uint64_t unsched_topo_ = 0;  ///< unscheduled set, bit = topo rank
  std::uint64_t unsched_dl_ = 0;    ///< unscheduled set, bit = deadline rank
  int depth_ = 0;                   ///< place() nesting level
  /// f̂; the exact finish of a scheduled task, scratch for the others.
  std::array<Time, kMaxTasks> fhat_{};
  /// What one place() overwrote and cannot invert from the new state.
  struct Undo {
    Time worst_sched = kTimeNegInf;  ///< worst_sched_ before the placement
    CTime frontier = 0;              ///< the processor's proc_avail() before
  };
  std::array<Undo, kMaxTasks + 1> undo_{};  ///< indexed by nesting level
};

}  // namespace parabb
