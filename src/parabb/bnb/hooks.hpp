// A ready-made characteristic (F) rule.
//
// The paper deliberately leaves F and D unused "to preserve the results as
// general as possible" (§3) and notes they are most powerful when designed
// for a specific processor scheduling strategy. The deadline
// characteristic is sound for *this* scheduling operation and shows what
// the F hook buys: it prunes partial schedules that provably cannot
// complete with every remaining deadline met. Only valid when the caller
// searches for *feasible* (deadline-satisfying) schedules, e.g. with an
// explicit upper bound U <= 0: any optimal solution it could cut would
// miss a deadline anyway.
//
// D is no hook: its one instance, processor symmetry, is a switch
// (Params::dominance) that the expansion kernel reads (bnb/expand.hpp).
#pragma once

#include "parabb/bnb/params.hpp"

namespace parabb {

/// F: reject partial schedules where some unscheduled task's optimistic
/// finish (LB0 recursion) already exceeds its deadline, or a scheduled
/// task has missed its deadline. Sound only for feasibility search (see
/// header comment) — pair with Params::ub = kExplicit, explicit_ub = 1 to
/// search for any schedule with L_max <= 0.
CharacteristicFn make_deadline_characteristic();

/// Convenience: parameters configured for a pure feasibility query
/// ("is there a valid schedule?"): BFn/LIFO/U-DBAS/LB1, U = explicit 1
/// (only solutions with L_max <= 0 are accepted), F = deadline
/// characteristic.
Params feasibility_params();

}  // namespace parabb
