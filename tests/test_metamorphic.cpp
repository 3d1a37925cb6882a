// Metamorphic correctness suite: solves each generated instance and a set
// of optimal-lateness-preserving transforms of it (metamorphic.hpp), and
// asserts the proved optimum moves exactly as the transform predicts.
// Because prediction needs no oracle, the suite runs the full rotation of
// selection rules x lower bounds x engines over hundreds of instances —
// far past what brute-force differential tests can afford — and any
// engine bug that shifts the optimum on *some* configuration trips it.
#include "metamorphic.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/support/rng.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

struct Config {
  SelectRule select = SelectRule::kLIFO;
  LowerBound lb = LowerBound::kLB1;
  int threads = 0;  ///< 0 = sequential engine; >=1 = parallel engine
};

std::string describe(const Config& c) {
  return "S=" + to_string(c.select) + " L=" + to_string(c.lb) +
         (c.threads == 0 ? " seq" : " par" + std::to_string(c.threads));
}

/// Solves to proved optimality with the complete branching rule and
/// returns the optimum. Fails the current test if the run does not prove.
Time proved_optimum(const TaskGraph& g, const Machine& m, const Config& c,
                    const std::string& what) {
  const SchedContext ctx(g, m);
  Params params;
  params.branch = BranchRule::kBFn;
  params.select = c.select;
  params.lb = c.lb;
  if (c.threads == 0) {
    const SearchResult r = solve_bnb(ctx, params);
    EXPECT_TRUE(r.found_solution && r.proved) << what << " " << describe(c);
    return r.best_cost;
  }
  ParallelParams pp;
  pp.base = params;
  pp.threads = c.threads;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_TRUE(r.found_solution && r.proved) << what << " " << describe(c);
  return r.best_cost;
}

/// The rotation: 3 selection rules x 3 lower bounds on the sequential
/// engine, and 3 lower bounds x 3 thread counts on the parallel engine,
/// which dives LIFO only. The 18 configurations cycle across seeds so
/// every configuration sees many instances without solving every instance
/// 18 times.
Config rotated_config(std::uint64_t seed) {
  static constexpr SelectRule kSelects[] = {SelectRule::kLIFO,
                                            SelectRule::kLLB,
                                            SelectRule::kFIFO};
  static constexpr LowerBound kBounds[] = {LowerBound::kLB0,
                                           LowerBound::kLB1,
                                           LowerBound::kLB2};
  static constexpr int kThreads[] = {0, 1, 4, 8};
  Config c;
  c.select = kSelects[seed % 3];
  c.lb = kBounds[(seed / 3) % 3];
  c.threads = kThreads[(seed / 9) % 4];
  if (c.threads > 0) c.select = SelectRule::kLIFO;
  return c;
}

TEST(Metamorphic, TransformsPreserveOptimumAcrossTwoHundredSeeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Config cfg = rotated_config(seed);
    // FIFO sweeps breadth-first; keep its instances at the small end so
    // the full rotation stays fast.
    const int n = cfg.select == SelectRule::kFIFO
                      ? 5
                      : 5 + static_cast<int>(seed % 3);
    const TaskGraph g = test::tiny_random(seed, n, 3);
    const int procs = 2 + static_cast<int>(seed % 2);
    // A line interconnect gives the processors distinct positions, so the
    // renaming transform permutes something observable.
    const Machine machine =
        make_network_machine(NetworkTopology::line(procs));
    const std::string what = "seed " + std::to_string(seed);

    const Time base = proved_optimum(g, machine, cfg, what);

    EXPECT_EQ(proved_optimum(test::scaled_times(g, 3), machine, cfg, what),
              3 * base)
        << what << ": scaling every time quantity x3 must scale the "
        << "optimum x3";

    EXPECT_EQ(
        proved_optimum(test::translated_deadlines(g, 7), machine, cfg, what),
        base - 7)
        << what << ": +7 deadline slack must shift the optimum by -7";

    Rng rng(seed);
    const auto tperm = test::random_perm<TaskId>(g.task_count(), rng);
    EXPECT_EQ(
        proved_optimum(test::relabeled_tasks(g, tperm), machine, cfg, what),
        base)
        << what << ": relabeling vertices must not move the optimum";

    const auto pperm = test::random_perm<ProcId>(procs, rng);
    EXPECT_EQ(proved_optimum(g, test::renamed_procs(machine, pperm), cfg,
                             what),
              base)
        << what << ": renaming processors must not move the optimum";
  }
}

TEST(Metamorphic, SerializationNeverBeatsParallelMachine) {
  // Scheduling on one processor is scheduling on m with m-1 processors
  // forbidden: the feasible sets nest, so opt_1 >= opt_m for every
  // configuration.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Config cfg = rotated_config(seed);
    const TaskGraph g = test::tiny_random(seed, 6, 3);
    const std::string what = "seed " + std::to_string(seed);
    const Time opt_m =
        proved_optimum(g, make_shared_bus_machine(3), cfg, what);
    const Time opt_1 =
        proved_optimum(g, make_shared_bus_machine(1), cfg, what);
    EXPECT_GE(opt_1, opt_m) << what;
  }
}

TEST(Metamorphic, FullRuleMatrixAgreesWithBruteForce) {
  // The exhaustive cross-check on a handful of instances: every S x B x L
  // combination on the sequential engine, and every B x L combination on
  // the parallel engine, which dives LIFO only. Complete branching must
  // hit the brute-force optimum exactly; the approximate rules (BF1/DF)
  // must stay at or above it.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 5, 3);
    const Machine machine = make_shared_bus_machine(2);
    const SchedContext ctx(g, machine);
    const Time opt = brute_force(ctx).best_cost;
    for (const SelectRule select :
         {SelectRule::kLIFO, SelectRule::kLLB, SelectRule::kFIFO}) {
      for (const BranchRule branch :
           {BranchRule::kBFn, BranchRule::kBF1, BranchRule::kDF}) {
        for (const LowerBound lb :
             {LowerBound::kLB0, LowerBound::kLB1, LowerBound::kLB2}) {
          Params params;
          params.select = select;
          params.branch = branch;
          params.lb = lb;
          const std::string what = "seed " + std::to_string(seed) + " " +
                                   describe(params);

          std::vector<SearchResult> runs{solve_bnb(ctx, params)};
          if (select == SelectRule::kLIFO) {
            ParallelParams pp;
            pp.base = params;
            pp.threads = 4;
            runs.push_back(solve_bnb_parallel(ctx, pp));
          }
          for (const SearchResult& r : runs) {
            ASSERT_TRUE(r.found_solution) << what;
            if (branch == BranchRule::kBFn) {
              EXPECT_TRUE(r.proved) << what;
              EXPECT_EQ(r.best_cost, opt) << what;
            } else {
              EXPECT_GE(r.best_cost, opt) << what;
            }
          }
        }
      }
    }
  }
}

TEST(Metamorphic, TransformsComposeOnPaperInstance) {
  // One paper-sized instance through a composed transform chain
  // (relabel, then scale, then translate) — the predictions compose too.
  const TaskGraph g = test::paper_instance(11);
  const Machine machine = make_shared_bus_machine(4);
  Config cfg;
  cfg.select = SelectRule::kLIFO;
  cfg.lb = LowerBound::kLB1;
  const Time base = proved_optimum(g, machine, cfg, "paper");

  Rng rng(11);
  const auto perm = test::random_perm<TaskId>(g.task_count(), rng);
  const TaskGraph chained = test::translated_deadlines(
      test::scaled_times(test::relabeled_tasks(g, perm), 2), 5);
  EXPECT_EQ(proved_optimum(chained, machine, cfg, "paper-chained"),
            2 * base - 5);
}

}  // namespace
}  // namespace parabb
