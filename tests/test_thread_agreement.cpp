// Thread-count agreement grid (ISSUE 8).
//
// The parallel engine's contract is exactness at any width: the thread
// count may change which vertices get expanded and in what order, but
// never the answer. This suite pins that contract over a 100-seed
// instance grid:
//
//   * optimal lateness at 4 and 8 threads equals the 1-thread result;
//   * on a subset, a certified parallel solve produces a certificate the
//     independent verifier accepts (CERTIFIED), at 4 and 8 threads;
//   * with MAXSZDB on, no truncated run claims a proof, and every proof
//     holds the optimum with a CERTIFIED certificate, at 1, 4 and 8 threads;
//   * with D on, every width proves the sequential optimum, and certified
//     runs at 4 and 8 threads verify CERTIFIED;
//   * budget outcomes agree: a budget generous enough for the 1-thread
//     run to exhaust lets every width exhaust with the same cost, and a
//     budget too small for any width trips kBudget at every width.
//
// Run under PARABB_SANITIZE=thread to certify the whole path race-free.
#include <gtest/gtest.h>

#include <string>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/verifier.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

ParallelResult solve_with(const SchedContext& ctx, int threads,
                          std::uint64_t budget = 0) {
  ParallelParams pp;
  pp.threads = threads;
  if (budget > 0) pp.base.rb.max_generated = budget;
  return solve_bnb_parallel(ctx, pp);
}

TEST(ThreadAgreement, LatenessIdenticalAcross100Seeds) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    // Mix shapes: wide-ish random graphs and paper-shaped instances.
    const TaskGraph g = (seed % 2 == 0)
                            ? test::tiny_random(seed, 7, 3)
                            : test::paper_instance(seed);
    const SchedContext ctx = test::make_ctx(g, seed % 3 == 0 ? 2 : 3);
    const ParallelResult ref = solve_with(ctx, 1);
    ASSERT_TRUE(ref.proved) << "seed " << seed;
    for (const int threads : {4, 8}) {
      const ParallelResult r = solve_with(ctx, threads);
      EXPECT_TRUE(r.proved) << "seed " << seed << " threads " << threads;
      EXPECT_EQ(r.best_cost, ref.best_cost)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ThreadAgreement, ParallelCertificatesVerifyCertified) {
  for (std::uint64_t seed = 0; seed < 100; seed += 10) {
    const TaskGraph g = test::tiny_random(seed, 6, 3);
    const Machine machine = make_shared_bus_machine(2);
    const SchedContext ctx(g, machine);
    for (const int threads : {4, 8}) {
      CertificateBuilder builder;
      ParallelParams pp;
      pp.threads = threads;
      pp.base.certify = &builder;
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      ASSERT_TRUE(r.proved) << "seed " << seed;
      const Certificate cert = builder.take();
      const VerifyReport report = verify_certificate(g, machine, cert);
      EXPECT_TRUE(report.certified)
          << "seed " << seed << " threads " << threads << ": "
          << report.error;
    }
  }
}

/// A small random graph with tight deadlines (1.1 x each chain's work), so
/// EDF is rarely optimal and the search expands vertices.
TaskGraph tight_tiny(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.n_min = cfg.n_max = 8;
  cfg.depth_min = cfg.depth_max = 3;
  GeneratedGraph g = generate_graph(cfg, seed);
  SlicingConfig slicing;
  slicing.base = LaxityBase::kPathWork;
  slicing.laxity = 1.1;
  assign_deadlines_slicing(g.graph, slicing);
  return std::move(g.graph);
}

// MAXSZDB: a truncated child set makes the run incomplete at every width.
// From U = inf a cap of 1 truncates the root's children, so no run may
// claim a proof. A vertex has (ready tasks) x 2 children: a cap of 4
// truncates every run here and a cap of 6 about half of them, and a run
// that claims a proof must hold the optimum and a certificate the
// verifier accepts.
TEST(ThreadAgreement, MaxChildrenNeverClaimsAFalseProof) {
  int proved = 0;
  int unproved = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TaskGraph g = tight_tiny(seed);
    const Machine machine = make_shared_bus_machine(2);
    const SchedContext ctx(g, machine);
    const Time optimum = solve_with(ctx, 1).best_cost;
    for (const int cap : {1, 4, 6}) {
      for (const int threads : {1, 4, 8}) {
        CertificateBuilder builder;
        ParallelParams pp;
        pp.threads = threads;
        pp.base.rb.max_children = cap;
        if (cap == 1) pp.base.ub = UpperBoundInit::kInfinite;
        pp.base.certify = &builder;
        const ParallelResult r = solve_bnb_parallel(ctx, pp);
        const std::string where = "seed " + std::to_string(seed) + " cap " +
                                  std::to_string(cap) + " threads " +
                                  std::to_string(threads);
        EXPECT_TRUE(r.found_solution) << where;
        EXPECT_GE(r.best_cost, optimum) << where;
        if (cap == 1) {
          EXPECT_FALSE(r.proved) << where;
        }
        if (!r.proved) {
          ++unproved;
          continue;
        }
        ++proved;
        EXPECT_EQ(r.best_cost, optimum) << where;
        const VerifyReport report =
            verify_certificate(g, machine, builder.take());
        EXPECT_TRUE(report.certified) << where << ": " << report.error;
      }
    }
  }
  EXPECT_GT(proved, 0);
  EXPECT_GT(unproved, 0);
}

// D (processor symmetry) lives in the expansion kernel, so the workers
// skip renamed twins too. At every width the search must still prove the
// optimum of a plain sequential solve, and certify it; at one thread D
// must generate fewer vertices than a plain run.
TEST(ThreadAgreement, DominanceKeepsTheOptimumAtEveryWidth) {
  std::uint64_t with_d = 0;
  std::uint64_t without_d = 0;
  int certified = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const TaskGraph g = tight_tiny(seed);
    const Machine machine = make_shared_bus_machine(seed % 2 == 0 ? 2 : 3);
    const SchedContext ctx(g, machine);
    const Time optimum = solve_bnb(ctx, Params{}).best_cost;
    without_d += solve_with(ctx, 1).stats.generated;
    for (const int threads : {1, 4, 8}) {
      CertificateBuilder builder;
      ParallelParams pp;
      pp.threads = threads;
      pp.base.dominance = true;
      const bool certify = threads > 1 && seed % 3 == 0;
      if (certify) pp.base.certify = &builder;
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      const std::string where = "seed " + std::to_string(seed) +
                                " threads " + std::to_string(threads);
      EXPECT_TRUE(r.proved) << where;
      EXPECT_EQ(r.best_cost, optimum) << where;
      if (threads == 1) with_d += r.stats.generated;
      if (!certify) continue;
      const VerifyReport report =
          verify_certificate(g, machine, builder.take());
      EXPECT_TRUE(report.certified) << where << ": " << report.error;
      certified += report.certified ? 1 : 0;
    }
  }
  EXPECT_EQ(certified, 20);
  EXPECT_LT(with_d, without_d);
}

TEST(ThreadAgreement, BudgetOutcomesAgreeAcrossWidths) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TaskGraph g = test::tight_instance(seed);
    const SchedContext ctx = test::make_ctx(g, 2);
    // Generous budget: the 1-thread reference exhausts, so every width
    // must exhaust too (the budget is a global generated-count cap and
    // the total work is bounded by the same search space) and agree on
    // the cost.
    const ParallelResult ref = solve_with(ctx, 1, 50'000'000);
    ASSERT_EQ(ref.reason, TerminationReason::kExhausted) << "seed " << seed;
    for (const int threads : {4, 8}) {
      const ParallelResult r = solve_with(ctx, threads, 50'000'000);
      EXPECT_EQ(r.reason, TerminationReason::kExhausted)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(r.best_cost, ref.best_cost)
          << "seed " << seed << " threads " << threads;
    }
    // Starvation budget: 3 generated vertices. Either the instance proves
    // optimal before the first expansion (EDF incumbent already meets the
    // root bound — then every width exhausts, since no width generates
    // anything), or the first expansion alone busts the budget — and that
    // expansion is identical at every width, so every width must report
    // kBudget while still holding the EDF seed incumbent. The 1-thread
    // run decides which case this seed is; all widths must agree with it.
    const ParallelResult starved = solve_with(ctx, 1, 3);
    for (const int threads : {1, 4, 8}) {
      const ParallelResult r = solve_with(ctx, threads, 3);
      EXPECT_EQ(r.reason, starved.reason)
          << "seed " << seed << " threads " << threads;
      EXPECT_TRUE(r.found_solution);
      EXPECT_EQ(r.proved, starved.proved)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(r.best_cost, starved.best_cost)
          << "seed " << seed << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace parabb
