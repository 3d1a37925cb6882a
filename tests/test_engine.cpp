#include "parabb/bnb/engine.hpp"

#include <gtest/gtest.h>

#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/cancel.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/sched/validator.hpp"
#include "metamorphic.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

Params optimal_params() {
  Params p;  // BFn / LIFO / U-DBAS / LB1 / EDF / BR=0 by default
  return p;
}

TEST(PruneThreshold, Semantics) {
  EXPECT_EQ(prune_threshold(kTimeInf, 0.0), kTimeInf);
  EXPECT_EQ(prune_threshold(100, 0.0), 100);
  EXPECT_EQ(prune_threshold(100, 0.10), 90);
  EXPECT_EQ(prune_threshold(-100, 0.10), -110);
  EXPECT_EQ(prune_threshold(0, 0.10), 0);
  EXPECT_EQ(prune_threshold(105, 0.10), 95);  // floor(10.5) = 10
}

TEST(Engine, SolvesDiamondOptimally) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  ASSERT_TRUE(r.found_solution);
  EXPECT_TRUE(r.proved);
  EXPECT_FALSE(r.compromised);
  const BruteForceResult opt = brute_force(ctx);
  EXPECT_EQ(r.best_cost, opt.best_cost);
  EXPECT_EQ(max_lateness(r.best, g), r.best_cost);
}

TEST(Engine, NeverWorseThanEdf) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 8, 4);
    const SchedContext ctx = test::make_ctx(g, 2);
    const EdfResult edf = schedule_edf(ctx);
    const SearchResult r = solve_bnb(ctx, optimal_params());
    EXPECT_LE(r.best_cost, edf.max_lateness);
  }
}

TEST(Engine, BestScheduleIsStructurallySound) {
  const TaskGraph g = test::paper_instance(5);
  const Machine machine = make_shared_bus_machine(3);
  const SchedContext ctx(g, machine);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  ASSERT_TRUE(r.found_solution);
  const ValidationReport rep = validate_schedule(r.best, g, machine);
  EXPECT_TRUE(rep.structurally_sound) << rep.error;
  EXPECT_EQ(max_lateness(r.best, g), r.best_cost);
}

TEST(Engine, InfiniteUpperBoundStillFindsOptimum) {
  const TaskGraph g = test::tiny_random(2, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  p.ub = UpperBoundInit::kInfinite;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.found_solution);
  EXPECT_EQ(r.best_cost, brute_force(ctx).best_cost);
}

TEST(Engine, ExplicitUpperBoundBelowOptimumFails) {
  const TaskGraph g = test::tiny_random(2, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  const Time opt = brute_force(ctx).best_cost;
  Params p = optimal_params();
  p.ub = UpperBoundInit::kExplicit;
  p.explicit_ub = opt;  // only strictly-better solutions are accepted
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_FALSE(r.found_solution);
  EXPECT_EQ(r.best_cost, opt);
}

TEST(Engine, ExplicitUpperBoundAboveOptimumSucceeds) {
  const TaskGraph g = test::tiny_random(2, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  const Time opt = brute_force(ctx).best_cost;
  Params p = optimal_params();
  p.ub = UpperBoundInit::kExplicit;
  p.explicit_ub = opt + 1;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.found_solution);
  EXPECT_EQ(r.best_cost, opt);
}

TEST(Engine, EdfSeedNeverSearchedWorse) {
  // With U = EDF, even a search that disposes of almost everything returns
  // a schedule no worse than EDF's — and loses the optimality guarantee.
  const TaskGraph g = test::tight_instance(0);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  p.rb.max_active = 1;  // cripple the search
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.found_solution);
  EXPECT_LE(r.best_cost, schedule_edf(ctx).max_lateness);
  ASSERT_GT(r.stats.generated, 0u);  // the instance is nontrivial
  EXPECT_GT(r.stats.disposed, 0u);
  EXPECT_FALSE(r.proved);  // disposal compromised the guarantee
  EXPECT_TRUE(r.compromised);
}

TEST(Engine, TimeLimitTerminatesGracefully) {
  const TaskGraph g = test::paper_instance(7);
  const SchedContext ctx = test::make_ctx(g, 4);
  Params p = optimal_params();
  p.rb.time_limit_s = 0.0;  // trip immediately
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_EQ(r.reason, TerminationReason::kTimeLimit);
  EXPECT_FALSE(r.proved);
  EXPECT_TRUE(r.found_solution);  // EDF seed survives
}

TEST(Engine, GeneratedBudgetIsExactAndDeterministic) {
  const TaskGraph g = test::paper_instance(7);
  const SchedContext ctx = test::make_ctx(g, 4);
  Params p = optimal_params();
  p.rb.max_generated = 50;
  const SearchResult a = solve_bnb(ctx, p);
  EXPECT_EQ(a.reason, TerminationReason::kBudget);
  EXPECT_FALSE(a.proved);
  EXPECT_TRUE(a.found_solution);  // EDF seed survives
  // The cap is checked before every expansion, so two runs stop at the
  // same vertex — the service golden tests depend on this.
  const SearchResult b = solve_bnb(ctx, p);
  EXPECT_EQ(b.stats.generated, a.stats.generated);
  EXPECT_EQ(b.best_cost, a.best_cost);
}

TEST(Engine, MemoryBudgetTerminatesGracefully) {
  const TaskGraph g = test::paper_instance(9);
  const SchedContext ctx = test::make_ctx(g, 4);
  Params p = optimal_params();
  p.rb.max_memory_bytes = 1;  // trips at the first poll
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_EQ(r.reason, TerminationReason::kBudget);
  EXPECT_TRUE(r.found_solution);
  EXPECT_FALSE(r.proved);
}

// The memory cliff is checked before every expansion, and so is the
// ladder's next mark: a frontier that outgrows the budget between two
// 256-expansion polls steps down the ladder before the cliff stops it.
// The cliff counts whole pool chunks, and a budgeted pool's chunk is at
// most 1/64 of the budget, so every rung fires below the cliff. This run
// (parabb_solve tests/data/crash.tgf --procs 2 --select llb
// --max-generated 20000 --max-memory 65536 --degrade) fires all four
// rungs within its first 126 expansions, before the first poll; the DF
// rung's dive then buys a schedule cheaper than EDF's, but no proof.
TEST(Engine, LadderStepsBeforeTheMemoryCliff) {
  const TaskGraph g = test::crash_graph();
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  p.select = SelectRule::kLLB;
  p.rb.max_generated = 20000;
  p.rb.max_memory_bytes = 65536;
  p.degrade = true;
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_EQ(r.stats.degrade_steps, 4u);
  ASSERT_TRUE(r.found_solution);
  EXPECT_LT(r.best_cost, schedule_edf(ctx).max_lateness);
  EXPECT_FALSE(r.proved);
  EXPECT_TRUE(r.compromised);
}

// The LLB frontier pops in (bound, seq) order whether it keeps buckets or
// has fallen back to its heap. Multiplying every time by k multiplies
// every LB1 bound by exactly k (LB0 and LB1 are max-plus in time), so the
// search makes the same decisions and every counter matches. At x1 the
// ledger corpus's bounds span far fewer than ActiveSet::kMaxBuckets values
// (the bucket path); with k above it, any two distinct bounds lie more
// than the bucket window apart, so the scaled runs fall back to the heap
// once their frontier holds two bound values.
TEST(Engine, LlbSearchIsTheSameOnTheHeapFallback) {
  constexpr Time k = static_cast<Time>(ActiveSet::kMaxBuckets) + 1;
  const auto scaled = [](Time v) {
    return v <= kTimeNegInf || v >= kTimeInf ? v : v * k;
  };
  for (const test::LedgerInstance& inst : test::ledger_corpus()) {
    const SchedContext ctx = test::make_ctx(inst.graph, inst.procs);
    const SchedContext wide =
        test::make_ctx(test::scaled_times(inst.graph, k), inst.procs);
    for (const bool newest : {false, true}) {
      Params p = optimal_params();
      p.select = SelectRule::kLLB;
      p.llb_tie_newest = newest;
      p.rb.max_generated = 60000;
      const SearchResult a = solve_bnb(ctx, p);
      const SearchResult b = solve_bnb(wide, p);
      const std::string where =
          inst.name + (newest ? " newest-first" : " oldest-first");
      for (const SearchStatsField& f : kSearchStatsFields) {
        EXPECT_EQ(a.stats.*(f.member), b.stats.*(f.member))
            << where << ": " << f.name;
      }
      EXPECT_EQ(a.stats.peak_active, b.stats.peak_active) << where;
      EXPECT_EQ(a.stats.peak_memory_bytes, b.stats.peak_memory_bytes)
          << where;
      EXPECT_EQ(a.reason, b.reason) << where;
      EXPECT_EQ(a.proved, b.proved) << where;
      EXPECT_EQ(scaled(a.best_cost), b.best_cost) << where;
      EXPECT_EQ(scaled(a.certified_lower_bound), b.certified_lower_bound)
          << where;
    }
  }
}

TEST(Engine, CancelTokenStopsTheSearch) {
  const TaskGraph g = test::paper_instance(11);
  const SchedContext ctx = test::make_ctx(g, 4);
  Params p = optimal_params();
  CancelToken token;
  token.cancel();  // pre-tripped: the first poll window ends the search
  p.cancel = &token;
  const SearchResult r = solve_bnb(ctx, p);
  if (r.reason == TerminationReason::kCancelled) {
    EXPECT_FALSE(r.proved);
    EXPECT_TRUE(r.found_solution);  // EDF seed
  } else {
    // The search finished inside the first 256-expansion poll window.
    EXPECT_EQ(r.reason, TerminationReason::kExhausted);
  }
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(Engine, MaxChildrenTruncatesAndUnproves) {
  const TaskGraph g = test::tight_instance(0);
  const SchedContext ctx = test::make_ctx(g, 3);
  Params p = optimal_params();
  p.rb.max_children = 2;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_GT(r.stats.expanded, 0u);
  EXPECT_FALSE(r.proved);
  EXPECT_TRUE(r.found_solution);
}

// MAXSZDB regression: a cap that is a multiple of m stops the child loop
// at a task boundary, which still truncates the child set. Three
// independent tasks on one processor, searched from U = inf: with a cap of
// 1 or 2 the urgent task is never branched on first, so the run may claim
// neither a proof nor a lower bound above the optimum of 0.
TEST(Engine, MaxChildrenAtTaskBoundaryIsNotAProof) {
  const TaskGraph g = GraphBuilder()
                          .task("a", 10, /*rel_deadline=*/100)
                          .task("b", 10, 10)
                          .task("c", 10, 20)
                          .build();
  const SchedContext ctx = test::make_ctx(g, 1);
  const Time optimum = brute_force(ctx).best_cost;
  ASSERT_EQ(optimum, 0);
  for (const int cap : {1, 2}) {
    Params p = optimal_params();
    p.ub = UpperBoundInit::kInfinite;
    p.rb.max_children = cap;
    const SearchResult r = solve_bnb(ctx, p);
    EXPECT_FALSE(r.proved) << "cap " << cap;
    EXPECT_LE(r.certified_lower_bound, optimum) << "cap " << cap;
  }
}

// The same contract on random graphs, at caps of m and 2m (the task
// boundaries of the first two tasks): the certified bound never exceeds
// the optimum, and a proof is only claimed for the optimum.
TEST(Engine, MaxChildrenCertificateIsSound) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 6, 3);
    for (const int procs : {2, 3}) {
      const SchedContext ctx = test::make_ctx(g, procs);
      const Time optimum = brute_force(ctx).best_cost;
      for (const int cap : {procs, 2 * procs}) {
        for (const UpperBoundInit ub :
             {UpperBoundInit::kFromEDF, UpperBoundInit::kInfinite}) {
          Params p = optimal_params();
          p.ub = ub;
          p.rb.max_children = cap;
          const SearchResult r = solve_bnb(ctx, p);
          EXPECT_LE(r.certified_lower_bound, optimum)
              << "seed " << seed << " m " << procs << " cap " << cap;
          if (r.proved) {
            EXPECT_EQ(r.best_cost, optimum)
                << "seed " << seed << " m " << procs << " cap " << cap;
          }
        }
      }
    }
  }
}

TEST(Engine, StatsAreConsistent) {
  const TaskGraph g = test::tight_instance(11);
  const SchedContext ctx = test::make_ctx(g, 2);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  const SearchStats& s = r.stats;
  EXPECT_GT(s.expanded, 0u);
  EXPECT_GT(s.generated, 0u);
  // Every generated child is activated, pruned, or a goal.
  EXPECT_EQ(s.generated, s.activated + s.pruned_children + s.goals);
  EXPECT_GT(s.peak_active, 0u);
  EXPECT_GT(s.peak_memory_bytes, 0u);
  EXPECT_GE(s.seconds, 0.0);
}

TEST(Engine, GoalUpdatesImproveMonotonically) {
  const TaskGraph g = test::paper_instance(13);
  const SchedContext ctx = test::make_ctx(g, 2);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  // At least the EDF seed; goal updates only happen on strict improvement,
  // so best_cost <= EDF cost.
  EXPECT_LE(r.best_cost, schedule_edf(ctx).max_lateness);
}

TEST(Engine, CharacteristicHookPrunes) {
  const TaskGraph g = test::tight_instance(6);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  int calls = 0;
  p.characteristic = [&calls](const SchedContext&, const PartialSchedule&) {
    ++calls;
    return true;  // never actually prune: result must stay optimal
  };
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_GT(calls, 0);
  EXPECT_EQ(r.best_cost, solve_bnb(ctx, optimal_params()).best_cost);
}

TEST(Engine, CharacteristicRejectAllDegeneratesToSeed) {
  const TaskGraph g = test::tiny_random(6, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  p.characteristic = [](const SchedContext&, const PartialSchedule&) {
    return false;
  };
  const SearchResult r = solve_bnb(ctx, p);
  // All intermediate vertices rejected; goals at level n can only be
  // reached for n==1, so EDF's solution (or better goals from level-n-1
  // expansions) remains.
  EXPECT_TRUE(r.found_solution);
  EXPECT_LE(r.best_cost, schedule_edf(ctx).max_lateness);
}

TEST(Engine, DominanceHookCanPruneSiblings) {
  const TaskGraph g = test::tiny_random(8, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  // Processor-symmetry dominance (bnb/expand.hpp): a task goes onto one
  // empty processor only, since the others root renamings of its subtree.
  p.dominance = true;
  const SearchResult r = solve_bnb(ctx, p);
  const SearchResult plain = solve_bnb(ctx, optimal_params());
  EXPECT_EQ(r.best_cost, plain.best_cost);
  EXPECT_LE(r.stats.generated, plain.stats.generated);
}

TEST(Engine, RejectsBadParams) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  Params p = optimal_params();
  p.br = -0.5;
  EXPECT_THROW(solve_bnb(ctx, p), precondition_error);
  p = optimal_params();
  p.rb.max_children = 0;
  EXPECT_THROW(solve_bnb(ctx, p), precondition_error);
}

TEST(Engine, CertificateEqualsCostWhenProved) {
  const TaskGraph g = test::tiny_random(5, 7, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  ASSERT_TRUE(r.proved);
  EXPECT_EQ(r.certified_lower_bound, r.best_cost);
}

TEST(Engine, CertificateBoundsTimeLimitedRuns) {
  const TaskGraph g = test::tight_instance(0);
  const SchedContext ctx = test::make_ctx(g, 3);
  // Reference: the true optimum.
  Params full = optimal_params();
  full.rb.time_limit_s = 30.0;
  const SearchResult exact = solve_bnb(ctx, full);
  ASSERT_TRUE(exact.proved);

  Params capped = optimal_params();
  capped.rb.time_limit_s = 0.0;
  const SearchResult r = solve_bnb(ctx, capped);
  // The certificate must be a true lower bound and not exceed the cost.
  EXPECT_LE(r.certified_lower_bound, exact.best_cost);
  EXPECT_LE(r.certified_lower_bound, r.best_cost);
  EXPECT_GT(r.certified_lower_bound, kTimeNegInf);
}

TEST(Engine, CertificateSurvivesDisposal) {
  const TaskGraph g = test::tight_instance(1);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params full = optimal_params();
  const SearchResult exact = solve_bnb(ctx, full);
  ASSERT_TRUE(exact.proved);

  Params crippled = optimal_params();
  crippled.rb.max_active = 4;
  const SearchResult r = solve_bnb(ctx, crippled);
  EXPECT_LE(r.certified_lower_bound, exact.best_cost);
  EXPECT_LE(r.certified_lower_bound, r.best_cost);
}

TEST(Engine, CertificateRespectsBrMargin) {
  const TaskGraph g = test::tiny_random(9, 7, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  const Time opt = brute_force(ctx).best_cost;
  Params p = optimal_params();
  p.br = 0.25;
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_LE(r.certified_lower_bound, opt);
  EXPECT_GE(r.best_cost, opt);
}

TEST(Engine, NoCertificateForApproximateBranching) {
  const TaskGraph g = test::tiny_random(4, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  Params p = optimal_params();
  p.branch = BranchRule::kDF;
  const SearchResult r = solve_bnb(ctx, p);
  EXPECT_EQ(r.certified_lower_bound, kTimeNegInf);
}

TEST(Engine, SingleTaskGraph) {
  TaskGraph g;
  Task t;
  t.name = "only";
  t.exec = 10;
  t.rel_deadline = 8;  // unavoidably 2 late
  g.add_task(t);
  const SchedContext ctx = test::make_ctx(g, 2);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  ASSERT_TRUE(r.found_solution);
  EXPECT_EQ(r.best_cost, 2);
  EXPECT_TRUE(r.proved);
}

TEST(Engine, IndependentTasksUseAllProcessors) {
  const SchedContext ctx = test::make_ctx(test::independent_tasks(4), 2);
  const SearchResult r = solve_bnb(ctx, optimal_params());
  ASSERT_TRUE(r.found_solution);
  // Optimal packs two per processor: makespan 20.
  EXPECT_EQ(makespan(r.best), 20);
}

}  // namespace
}  // namespace parabb
