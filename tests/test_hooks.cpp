#include "parabb/bnb/hooks.hpp"

#include <gtest/gtest.h>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/platform/topology.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/verifier.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(DeadlineCharacteristic, AcceptsFeasiblePrefix) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  const CharacteristicFn f = make_deadline_characteristic();
  PartialSchedule ps = PartialSchedule::empty(ctx);
  EXPECT_TRUE(f(ctx, ps));
  ps.place(ctx, 0, 0);  // a: [0,10), deadline 15
  EXPECT_TRUE(f(ctx, ps));
}

TEST(DeadlineCharacteristic, RejectsDoomedPrefix) {
  // Place the diamond's root so late its own deadline is missed.
  TaskGraph g = test::small_diamond();
  g.task(0).phase = 10;        // arrival 10
  g.task(0).rel_deadline = 5;  // deadline 15 < 10+10
  const SchedContext ctx = test::make_ctx(g, 2);
  const CharacteristicFn f = make_deadline_characteristic();
  EXPECT_FALSE(f(ctx, PartialSchedule::empty(ctx)));
}

TEST(DeadlineCharacteristic, RejectsWhenSuccessorCannotMakeIt) {
  // A feasible-looking prefix whose unscheduled successor is doomed.
  const TaskGraph g = GraphBuilder()
                          .task("a", 10, 50, 0)
                          .task("b", 10, 12, 0)  // needs a first; 20 > 12
                          .arc("a", "b")
                          .build();
  const SchedContext ctx = test::make_ctx(g, 2);
  EXPECT_FALSE(make_deadline_characteristic()(
      ctx, PartialSchedule::empty(ctx)));
}

TEST(FeasibilityParams, FindsValidScheduleWhenOneExists) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  const SearchResult r = solve_bnb(ctx, feasibility_params());
  ASSERT_TRUE(r.found_solution);
  EXPECT_LE(r.best_cost, 0);  // all deadlines met
}

TEST(FeasibilityParams, FailsOnInfeasibleSets) {
  TaskGraph g = test::small_diamond();
  g.task(3).rel_deadline = 1;  // impossible
  const SchedContext ctx = test::make_ctx(g, 2);
  const SearchResult r = solve_bnb(ctx, feasibility_params());
  EXPECT_FALSE(r.found_solution);
}

TEST(FeasibilityParams, MatchesUnhookedFeasibility) {
  // The characteristic must not change feasibility answers, only speed.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 7, 3);
    const SchedContext ctx = test::make_ctx(g, 2);
    Params plain;
    plain.ub = UpperBoundInit::kExplicit;
    plain.explicit_ub = 1;
    const SearchResult without = solve_bnb(ctx, plain);
    const SearchResult with = solve_bnb(ctx, feasibility_params());
    EXPECT_EQ(with.found_solution, without.found_solution)
        << "seed " << seed;
    EXPECT_LE(with.stats.generated, without.stats.generated);
  }
}

TEST(SymmetryDominance, DetectsProcessorRenaming) {
  const SchedContext ctx = test::make_ctx(test::independent_tasks(3), 3);
  const DominanceFn d = make_processor_symmetry_dominance();
  PartialSchedule a = PartialSchedule::empty(ctx);
  PartialSchedule b = PartialSchedule::empty(ctx);
  a.place(ctx, 0, 0);
  b.place(ctx, 0, 2);  // same schedule, renamed processor
  EXPECT_TRUE(d(ctx, a, b));
  EXPECT_TRUE(d(ctx, b, a));
}

TEST(SymmetryDominance, DistinguishesRealDifferences) {
  const SchedContext ctx = test::make_ctx(test::independent_tasks(3), 2);
  const DominanceFn d = make_processor_symmetry_dominance();
  PartialSchedule two_procs = PartialSchedule::empty(ctx);
  two_procs.place(ctx, 0, 0);
  two_procs.place(ctx, 1, 1);
  PartialSchedule one_proc = PartialSchedule::empty(ctx);
  one_proc.place(ctx, 0, 0);
  one_proc.place(ctx, 1, 0);
  EXPECT_FALSE(d(ctx, two_procs, one_proc));
  PartialSchedule other_task = PartialSchedule::empty(ctx);
  other_task.place(ctx, 2, 0);
  PartialSchedule first_task = PartialSchedule::empty(ctx);
  first_task.place(ctx, 0, 0);
  EXPECT_FALSE(d(ctx, other_task, first_task));
}

TEST(SymmetryDominance, PreservesOptimalityAndPrunes) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 6, 3);
    const SchedContext ctx = test::make_ctx(g, 3);
    Params plain;
    Params with;
    with.dominance = make_processor_symmetry_dominance();
    const SearchResult a = solve_bnb(ctx, plain);
    const SearchResult b = solve_bnb(ctx, with);
    EXPECT_EQ(a.best_cost, b.best_cost) << "seed " << seed;
    EXPECT_EQ(b.best_cost, brute_force(ctx).best_cost);
    EXPECT_LE(b.stats.activated, a.stats.activated);
  }
}

/// A hub `a` (c = 1) sends 5 items to each of three leaves (c = 10); every
/// deadline is 16. On a 3-processor line only the middle processor reaches
/// both ends in one hop, so the optimum (lateness 0) puts the hub there;
/// with the hub at an end a leaf finishes at 21.
TaskGraph star() {
  return GraphBuilder()
      .task("a", 1, 16)
      .task("b", 10, 16)
      .task("c", 10, 16)
      .task("d", 10, 16)
      .arc("a", "b", 5)
      .arc("a", "c", 5)
      .arc("a", "d", 5)
      .build();
}

// Renaming processors keeps a schedule's cost only when every pair of
// processors is equally many hops apart. On a line it does not, so D must
// not fire: the search reaches 0 and the verifier certifies it.
TEST(SymmetryDominance, SoundOnHopScaledMachines) {
  const TaskGraph g = star();
  const Machine line = make_network_machine(NetworkTopology::line(3));
  const SchedContext ctx(g, line);
  Params with;
  with.dominance = make_processor_symmetry_dominance();
  CertificateBuilder builder;
  with.certify = &builder;
  const SearchResult r = solve_bnb(ctx, with);
  EXPECT_TRUE(r.proved);
  EXPECT_EQ(r.best_cost, 0);
  EXPECT_EQ(r.best_cost, brute_force(ctx).best_cost);
  EXPECT_TRUE(verify_certificate(g, line, builder.take()).certified);
}

TEST(SymmetryDominance, StillPrunesOnAFullyConnectedMachine) {
  const TaskGraph g = star();
  const Machine full =
      make_network_machine(NetworkTopology::fully_connected(3));
  const SchedContext ctx(g, full);
  Params plain;
  plain.ub = UpperBoundInit::kInfinite;  // EDF would already find 0
  Params with = plain;
  with.dominance = make_processor_symmetry_dominance();
  const SearchResult a = solve_bnb(ctx, plain);
  const SearchResult b = solve_bnb(ctx, with);
  EXPECT_EQ(a.best_cost, 0);
  EXPECT_EQ(b.best_cost, 0);
  EXPECT_TRUE(b.proved);
  EXPECT_LT(b.stats.activated, a.stats.activated);
}

}  // namespace
}  // namespace parabb
