// Ready-made characteristic (F) and dominance (D) rules.
//
// The paper deliberately leaves F and D unused "to preserve the results as
// general as possible" (§3) and notes they are most powerful when designed
// for a specific processor scheduling strategy. These implementations are
// sound for *this* scheduling operation and show what the hooks buy:
//
//  * deadline characteristic — prunes partial schedules that provably
//    cannot complete with every remaining deadline met. Only valid when
//    the caller searches for *feasible* (deadline-satisfying) schedules,
//    e.g. with an explicit upper bound U <= 0: any optimal solution it
//    could cut would miss a deadline anyway.
//
//  * processor-symmetry dominance — among sibling child vertices, a
//    dominates b when b is a's schedule with the (identical) processors
//    renamed: the per-processor contents and timings match under some
//    permutation. Completions of b are then exactly completions of a with
//    the same renaming, so one representative suffices. This is the
//    symmetry the paper's "all possible permutations" search pays for at
//    every empty-processor choice. It holds only while a renaming keeps
//    every message delay, i.e. when every pair of distinct processors is
//    the same number of hops apart (a shared bus, a fully connected
//    network). On any other interconnect (a line, a ring, a mesh) the
//    rule never fires.
#pragma once

#include "parabb/bnb/params.hpp"

namespace parabb {

/// F: reject partial schedules where some unscheduled task's optimistic
/// finish (LB0 recursion) already exceeds its deadline, or a scheduled
/// task has missed its deadline. Sound only for feasibility search (see
/// header comment) — pair with Params::ub = kExplicit, explicit_ub = 1 to
/// search for any schedule with L_max <= 0.
CharacteristicFn make_deadline_characteristic();

/// D: sibling equivalence up to a permutation of the identical processors
/// (see header comment). The engine keeps the first representative of each
/// equivalence class. Sound on machines whose processors are pairwise
/// equally many hops apart; never fires on other machines.
DominanceFn make_processor_symmetry_dominance();

/// Convenience: parameters configured for a pure feasibility query
/// ("is there a valid schedule?"): BFn/LIFO/U-DBAS/LB1, U = explicit 1
/// (only solutions with L_max <= 0 are accepted), F = deadline
/// characteristic.
Params feasibility_params();

}  // namespace parabb
