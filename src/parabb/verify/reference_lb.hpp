// From-scratch reference lower bounds for certificate checking.
//
// Deliberately independent of bnb/lower_bound.cpp: no IncrementalLB
// scratch, no bound-aware cutoff, no reuse of the context's precomputed
// deadline order or prefix sums — the verifier must not inherit a bug from
// the code it is auditing. These functions re-derive everything they need
// (topological order included) from the graph each call and pay the full
// O(n + e + n log n) every time. Slow by design; only the verifier and the
// differential tests call them.
//
// The formulas are the documented ones (bnb/lower_bound.hpp, paper §3.5):
//   LB0  f̂_i = max(a_i, max_j f̂_j) + c_i  over direct predecessors j,
//        communication optimistically free;
//   LB1  LB0 with every unscheduled start additionally floored by l_min,
//        the earliest time any processor becomes free;
//   LB2  max(LB1, packing): for each absolute deadline D, the unscheduled
//        work W_D with deadlines <= D plus the committed processor time
//        Σ_q avail_q cannot finish before ceil((Σ_q avail_q + W_D)/m).
// In all cases the bound is max_i (f̂_i − D_i).
#pragma once

#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/types.hpp"
#include "parabb/taskgraph/graph.hpp"

namespace parabb {

/// Reference bound of `kind` (0, 1 or 2) for `ps`, a state of `ctx` built
/// from `graph`. Throws std::runtime_error on a kind outside [0, 2].
Time reference_lower_bound(const TaskGraph& graph, const SchedContext& ctx,
                           const PartialSchedule& ps, int lb_kind);

/// The LB2 packing term alone (kTimeNegInf when everything is scheduled).
Time reference_packing_bound(const TaskGraph& graph, const SchedContext& ctx,
                             const PartialSchedule& ps);

/// Exact maximum lateness of a *complete* state, recomputed from the raw
/// starts (not via max_lateness_scheduled). Throws on incomplete states.
Time reference_exact_cost(const TaskGraph& graph, const SchedContext& ctx,
                          const PartialSchedule& ps);

}  // namespace parabb
