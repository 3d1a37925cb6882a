// Regression guards for the reproduced paper shapes (EXPERIMENTS.md).
//
// Each test re-derives one headline claim at small replication, as an
// aggregate over paired instances so instance noise cannot flip it. If a
// refactor breaks one of these, the benches' stories break with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

constexpr int kReps = 16;

/// Paper workload with the per-chain laxity reading, on the bench seed
/// stream (so these guards watch the same population EXPERIMENTS.md cites).
TaskGraph bench_instance(std::uint64_t rep) {
  GeneratedGraph gen =
      generate_graph(paper_config(), derive_seed(20250705, rep));
  SlicingConfig cfg;
  cfg.base = LaxityBase::kPathWork;
  cfg.laxity = 1.5;
  assign_deadlines_slicing(gen.graph, cfg);
  return std::move(gen.graph);
}

Params capped(Params p = {}) {
  p.rb.time_limit_s = 2.0;
  p.rb.max_active = 250'000;
  return p;
}

struct Totals {
  std::uint64_t vertices = 0;
  Time lateness = 0;
  std::size_t peak_as = 0;
  int runs = 0;
};

/// Runs every configuration on the same replication stream. A rep where
/// ANY configuration hits TIMELIMIT is dropped from ALL totals, so the
/// compared populations stay paired even when sanitizer instrumentation
/// or machine load pushes a marginal rep over the wall clock in only one
/// configuration.
std::vector<Totals> run_paired(const std::vector<Params>& configs, int m) {
  std::vector<Totals> totals(configs.size());
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const SchedContext ctx(bench_instance(rep), make_shared_bus_machine(m));
    std::vector<SearchResult> results;
    results.reserve(configs.size());
    bool timed_out = false;
    for (const Params& p : configs) {
      results.push_back(solve_bnb(ctx, p));
      timed_out = timed_out ||
                  results.back().reason == TerminationReason::kTimeLimit;
    }
    if (timed_out) continue;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      totals[i].vertices += results[i].stats.generated;
      totals[i].lateness += results[i].best_cost;
      totals[i].peak_as =
          std::max(totals[i].peak_as, results[i].stats.peak_active);
      ++totals[i].runs;
    }
  }
  return totals;
}

TEST(PaperShapes, Fig3a_LlbSearchesMoreAndBalloonsMemory) {
  Params lifo = capped();
  Params llb = capped();
  llb.select = SelectRule::kLLB;
  const std::vector<Totals> t = run_paired({lifo, llb}, 3);
  const Totals& a = t[0];
  const Totals& b = t[1];
  ASSERT_GT(a.runs, kReps / 2);
  // Same optimal lateness on the shared instances.
  EXPECT_EQ(a.lateness, b.lateness);
  // LLB searches at least as many vertices...
  EXPECT_GE(b.vertices, a.vertices);
  // ...and its peak active set is orders of magnitude larger.
  EXPECT_GT(b.peak_as, a.peak_as * 50);
}

TEST(PaperShapes, Fig3a_EdfLatenessTrailsOptimal) {
  Time edf_total = 0, opt_total = 0;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    const SchedContext ctx(bench_instance(rep), make_shared_bus_machine(2));
    const SearchResult r = solve_bnb(ctx, capped());
    if (!r.proved) continue;
    edf_total += schedule_edf(ctx).max_lateness;
    opt_total += r.best_cost;
  }
  EXPECT_GT(edf_total, opt_total);
}

TEST(PaperShapes, Fig3b_Lb0SearchesMoreThanLb1AtSmallM) {
  Params lb1 = capped();
  Params lb0 = capped();
  lb0.lb = LowerBound::kLB0;
  const std::vector<Totals> t = run_paired({lb1, lb0}, 2);
  const Totals& a = t[0];
  const Totals& b = t[1];
  EXPECT_EQ(a.lateness, b.lateness);
  EXPECT_GT(b.vertices, a.vertices);  // strict aggregate gap at m=2
}

TEST(PaperShapes, Fig3c_ApproximationsSearchFarLess) {
  Params df = capped();
  df.branch = BranchRule::kDF;
  Params bf1 = capped();
  bf1.branch = BranchRule::kBF1;
  const std::vector<Totals> t = run_paired({capped(), df, bf1}, 2);
  const Totals& bfn = t[0];
  const Totals& d = t[1];
  const Totals& b1 = t[2];
  EXPECT_LT(d.vertices * 5, bfn.vertices);
  EXPECT_LT(b1.vertices * 5, bfn.vertices);
  // Their lateness is worse than optimal in aggregate...
  EXPECT_GE(d.lateness, bfn.lateness);
  EXPECT_GE(b1.lateness, bfn.lateness);
}

TEST(PaperShapes, Fig3c_BrTenPercentSavesVerticesAtNearOptimalCost) {
  Params br = capped();
  br.br = 0.10;
  const std::vector<Totals> t = run_paired({capped(), br}, 2);
  const Totals& exact = t[0];
  const Totals& relaxed = t[1];
  EXPECT_LE(relaxed.vertices, exact.vertices);
  EXPECT_GE(relaxed.lateness, exact.lateness);
}

TEST(PaperShapes, Sec6_Lb1EdgeGrowsWithWidth) {
  // LB0/LB1 vertex ratio at width 3 exceeds the ratio at width 2.
  double ratio[2] = {0, 0};
  for (int wi = 0; wi < 2; ++wi) {
    const int width = 2 + wi;
    std::uint64_t v0 = 0, v1 = 0;
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      GeneratedGraph gen =
          generate_graph(width_config(5, width), derive_seed(88, rep));
      SlicingConfig cfg;
      cfg.base = LaxityBase::kPathWork;
      assign_deadlines_slicing(gen.graph, cfg);
      const SchedContext ctx(gen.graph, make_shared_bus_machine(2));
      Params lb1 = capped();
      Params lb0 = capped();
      lb0.lb = LowerBound::kLB0;
      const SearchResult a = solve_bnb(ctx, lb1);
      const SearchResult b = solve_bnb(ctx, lb0);
      if (!a.proved || !b.proved) continue;
      v1 += a.stats.generated;
      v0 += b.stats.generated;
    }
    ratio[wi] = v1 > 0 ? static_cast<double>(v0) / static_cast<double>(v1)
                       : 1.0;
  }
  EXPECT_GT(ratio[1], ratio[0]);
}

TEST(PaperShapes, LlbTieBreakingIsTheWholeStory) {
  // LLB with newest-first ties must search (nearly) the same vertex count
  // as LIFO; oldest-first must not search fewer.
  Params lifo = capped();
  Params newest = capped();
  newest.select = SelectRule::kLLB;
  newest.llb_tie_newest = true;
  Params oldest = newest;
  oldest.llb_tie_newest = false;
  const std::vector<Totals> t = run_paired({lifo, newest, oldest}, 2);
  const Totals& a = t[0];
  const Totals& n = t[1];
  const Totals& o = t[2];
  const auto near = [](std::uint64_t x, std::uint64_t y) {
    return x < y + y / 50 && y < x + x / 50;  // within 2%
  };
  EXPECT_TRUE(near(a.vertices, n.vertices))
      << a.vertices << " vs " << n.vertices;
  EXPECT_GE(o.vertices + o.vertices / 50, a.vertices);
}

TEST(PaperShapes, SymmetryDominancePaysMoreAtLargerM) {
  std::uint64_t with_m[2] = {0, 0}, without_m[2] = {0, 0};
  for (int mi = 0; mi < 2; ++mi) {
    const int m = 2 + mi;
    Params with = capped();
    with.dominance = true;
    const std::vector<Totals> t = run_paired({with, capped()}, m);
    const Totals& w = t[0];
    const Totals& wo = t[1];
    EXPECT_EQ(w.lateness, wo.lateness) << "m=" << m;
    with_m[mi] = w.vertices;
    without_m[mi] = wo.vertices;
    EXPECT_LE(w.vertices, wo.vertices) << "m=" << m;
  }
  const double saving2 = static_cast<double>(without_m[0]) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, with_m[0]));
  const double saving3 = static_cast<double>(without_m[1]) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, with_m[1]));
  EXPECT_GT(saving3, saving2);
}

}  // namespace
}  // namespace parabb
