#include "parabb/bnb/hooks.hpp"

#include <gtest/gtest.h>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/expand.hpp"
#include "parabb/bnb/parallel_engine.hpp"
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

/// The children the kernel generates from `parent` with D on, and the
/// processors it places them on.
struct Generated {
  std::uint64_t count = 0;
  std::uint32_t procs = 0;  ///< bitmask of the children's processors
};

Generated expand_with_d(const SchedContext& ctx, PartialSchedule parent) {
  Params p;
  p.dominance = true;
  p.elim = ElimRule::kNone;  // keep every generated child
  IncrementalLB inc(ctx);
  SearchStats stats;
  SearchObs so;
  const TaskSet before = parent.scheduled();
  Generated out;
  expand_children(
      ctx, p, inc, parent, p.branch, p.rb.max_children, kTimeInf, nullptr,
      stats, so, [](TaskId, ProcId, Time) {},
      [&](Time, int) {
        for (const TaskId t : parent.scheduled() - before) {
          out.procs |= 1u << parent.proc(t);
        }
      });
  out.count = stats.generated;
  return out;
}

// D generates a task only on the lowest-numbered empty processor: 3 of
// the root's 9 children on a bus, 2 per ready task once one processor is
// busy, and all 9 on a line, whose processors are not interchangeable.
TEST(SymmetryDominance, KernelBranchesOntoTheLowestEmptyProcessor) {
  const TaskGraph g = test::independent_tasks(3);
  const SchedContext bus = test::make_ctx(g, 3);
  PartialSchedule root = PartialSchedule::empty(bus);
  Generated r = expand_with_d(bus, root);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.procs, 0b001u);

  root.place(bus, 0, 2);
  r = expand_with_d(bus, root);
  EXPECT_EQ(r.count, 4u);  // each ready task on busy 2 or empty 0
  EXPECT_EQ(r.procs, 0b101u);

  const SchedContext line(g, make_network_machine(NetworkTopology::line(3)));
  r = expand_with_d(line, PartialSchedule::empty(line));
  EXPECT_EQ(r.count, 9u);
  EXPECT_EQ(r.procs, 0b111u);
}

TEST(SymmetryDominance, PreservesOptimalityAndPrunes) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 6, 3);
    const SchedContext ctx = test::make_ctx(g, 3);
    Params plain;
    Params with;
    with.dominance = true;
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

/// solve_bnb at 0 threads, the parallel engine otherwise.
SearchResult solve(const SchedContext& ctx, const Params& params,
                   int threads) {
  if (threads == 0) return solve_bnb(ctx, params);
  ParallelParams pp;
  pp.base = params;
  pp.threads = threads;
  return solve_bnb_parallel(ctx, pp);
}

// Renaming processors keeps a schedule's cost only when every pair of
// processors is equally many hops apart. On a line it does not, so D must
// not fire: both engines reach 0 and the verifier certifies it.
TEST(SymmetryDominance, SoundOnHopScaledMachines) {
  const TaskGraph g = star();
  const Machine line = make_network_machine(NetworkTopology::line(3));
  const SchedContext ctx(g, line);
  ASSERT_EQ(brute_force(ctx).best_cost, 0);
  for (const int threads : {0, 1, 4}) {
    Params with;
    with.dominance = true;
    CertificateBuilder builder;
    with.certify = &builder;
    const SearchResult r = solve(ctx, with, threads);
    EXPECT_TRUE(r.proved) << "threads " << threads;
    EXPECT_EQ(r.best_cost, 0) << "threads " << threads;
    EXPECT_TRUE(verify_certificate(g, line, builder.take()).certified)
        << "threads " << threads;
  }
}

TEST(SymmetryDominance, StillPrunesOnAFullyConnectedMachine) {
  const TaskGraph g = star();
  const Machine full =
      make_network_machine(NetworkTopology::fully_connected(3));
  const SchedContext ctx(g, full);
  Params plain;
  plain.ub = UpperBoundInit::kInfinite;  // EDF would already find 0
  Params with = plain;
  with.dominance = true;
  for (const int threads : {0, 1, 4}) {
    const SearchResult a = solve(ctx, plain, threads);
    const SearchResult b = solve(ctx, with, threads);
    EXPECT_EQ(a.best_cost, 0) << "threads " << threads;
    EXPECT_EQ(b.best_cost, 0) << "threads " << threads;
    EXPECT_TRUE(b.proved) << "threads " << threads;
    // Four workers search a varying share of the tree; compare the
    // deterministic widths only.
    if (threads <= 1) {
      EXPECT_LT(b.stats.activated, a.stats.activated)
          << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace parabb
