// Randomized cross-validation ("fuzz") suite: many random configurations
// of (workload shape, machine size, CCR, laxity) with the B&B engine
// checked against the exhaustive oracle and against its own invariants.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/support/rng.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

struct FuzzInstance {
  TaskGraph graph;
  int procs;
};

FuzzInstance random_instance(Rng& rng) {
  GeneratorConfig cfg;
  cfg.n_min = cfg.n_max = static_cast<int>(rng.uniform_int(4, 7));
  cfg.depth_min = cfg.depth_max =
      static_cast<int>(rng.uniform_int(2, cfg.n_min > 3 ? 4 : 3));
  cfg.exec_mean = static_cast<double>(rng.uniform_int(5, 40));
  cfg.exec_dev = rng.uniform_real(0.0, 0.99);
  cfg.ccr = rng.uniform_real(0.0, 2.0);
  GeneratedGraph gen = generate_graph(cfg, rng());

  SlicingConfig slicing;
  slicing.laxity = rng.uniform_real(1.0, 2.0);
  slicing.base =
      rng.chance(0.5) ? LaxityBase::kPathWork : LaxityBase::kTotalWork;
  if (slicing.base == LaxityBase::kTotalWork) slicing.laxity += 0.5;
  assign_deadlines_slicing(gen.graph, slicing);

  return FuzzInstance{std::move(gen.graph),
                      static_cast<int>(rng.uniform_int(1, 3))};
}

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fuzz, EngineMatchesOracleUnderRandomConfigs) {
  Rng rng(derive_seed(0xF022, GetParam()));
  for (int round = 0; round < 8; ++round) {
    const FuzzInstance inst = random_instance(rng);
    const SchedContext ctx(inst.graph,
                           make_shared_bus_machine(inst.procs));
    const BruteForceResult oracle = brute_force(ctx);

    // A random but complete engine configuration.
    Params p;
    p.select = static_cast<SelectRule>(rng.uniform_int(0, 2));
    p.lb = static_cast<LowerBound>(rng.uniform_int(0, 2));
    p.ub = rng.chance(0.5) ? UpperBoundInit::kFromEDF
                           : UpperBoundInit::kInfinite;
    p.sort_children = rng.chance(0.5);
    p.llb_tie_newest = rng.chance(0.5);
    if (rng.chance(0.3)) p.dominance = true;
    if (rng.chance(0.3)) p.elim = ElimRule::kNone;

    const SearchResult r = solve_bnb(ctx, p);
    ASSERT_TRUE(r.found_solution);
    EXPECT_EQ(r.best_cost, oracle.best_cost)
        << "round " << round << " cfg " << describe(p) << " m "
        << inst.procs;
    EXPECT_TRUE(r.proved);
    EXPECT_EQ(max_lateness(r.best, inst.graph), r.best_cost);
    const ValidationReport rep = validate_schedule(
        r.best, inst.graph, make_shared_bus_machine(inst.procs));
    EXPECT_TRUE(rep.structurally_sound) << rep.error;
    EXPECT_EQ(r.certified_lower_bound, r.best_cost);
  }
}

TEST_P(Fuzz, ApproximateRulesStayAboveTheOracle) {
  Rng rng(derive_seed(0xF023, GetParam()));
  for (int round = 0; round < 8; ++round) {
    const FuzzInstance inst = random_instance(rng);
    const SchedContext ctx(inst.graph,
                           make_shared_bus_machine(inst.procs));
    const Time opt = brute_force(ctx).best_cost;
    Params p;
    p.branch = rng.chance(0.5) ? BranchRule::kDF : BranchRule::kBF1;
    p.br = rng.chance(0.5) ? 0.0 : rng.uniform_real(0.0, 0.5);
    const SearchResult r = solve_bnb(ctx, p);
    ASSERT_TRUE(r.found_solution);
    EXPECT_GE(r.best_cost, opt);
    EXPECT_LE(r.best_cost, schedule_edf(ctx).max_lateness);
  }
}

TEST_P(Fuzz, BrGuaranteeHoldsUnderRandomConfigs) {
  Rng rng(derive_seed(0xF024, GetParam()));
  for (int round = 0; round < 6; ++round) {
    const FuzzInstance inst = random_instance(rng);
    const SchedContext ctx(inst.graph,
                           make_shared_bus_machine(inst.procs));
    const Time opt = brute_force(ctx).best_cost;
    Params p;
    p.br = rng.uniform_real(0.0, 0.4);
    const SearchResult r = solve_bnb(ctx, p);
    EXPECT_GE(r.best_cost, opt);
    const double allowed =
        p.br * std::max(std::abs(static_cast<double>(r.best_cost)),
                        std::abs(static_cast<double>(opt))) +
        1.0;
    EXPECT_LE(static_cast<double>(r.best_cost - opt), allowed)
        << "BR " << p.br;
    // The certificate never exceeds the true optimum.
    EXPECT_LE(r.certified_lower_bound, opt);
  }
}

// With duplicate detection on — including pathologically small tables that
// evict constantly — the engine must still return a validator-accepted
// optimal schedule: the table may only ever remove *duplicate* work.
TEST_P(Fuzz, TranspositionEngineNeverPrunesTheOptimum) {
  Rng rng(derive_seed(0xF025, GetParam()));
  for (int round = 0; round < 6; ++round) {
    const FuzzInstance inst = random_instance(rng);
    const SchedContext ctx(inst.graph,
                           make_shared_bus_machine(inst.procs));
    const Time opt = brute_force(ctx).best_cost;

    Params p;
    p.select = static_cast<SelectRule>(rng.uniform_int(0, 2));
    p.lb = static_cast<LowerBound>(rng.uniform_int(0, 2));
    p.ub = rng.chance(0.5) ? UpperBoundInit::kFromEDF
                           : UpperBoundInit::kInfinite;
    p.sort_children = rng.chance(0.5);
    if (rng.chance(0.3)) p.dominance = true;
    if (rng.chance(0.3)) p.elim = ElimRule::kNone;
    p.transposition.enabled = true;
    // From a single 8-slot bucket (maximal eviction pressure) up to a
    // table that comfortably holds the whole state space.
    p.transposition.memory_cap_bytes =
        std::size_t{1} << rng.uniform_int(0, 18);
    p.transposition.shards = static_cast<int>(rng.uniform_int(1, 4));

    const SearchResult r = solve_bnb(ctx, p);
    ASSERT_TRUE(r.found_solution);
    EXPECT_EQ(r.best_cost, opt)
        << "round " << round << " cfg " << describe(p) << " m "
        << inst.procs;
    EXPECT_TRUE(r.proved);
    EXPECT_EQ(r.certified_lower_bound, opt);
    const ValidationReport rep = validate_schedule(
        r.best, inst.graph, make_shared_bus_machine(inst.procs));
    EXPECT_TRUE(rep.structurally_sound) << rep.error;
  }
}

/// Exact serialization of a partial-schedule state, for the reference map
/// of the collision fuzzer below.
std::vector<std::int64_t> state_key(const SchedContext& ctx,
                                    const PartialSchedule& ps) {
  std::vector<std::int64_t> key;
  for (int t = 0; t < ctx.task_count(); ++t) {
    const auto tid = static_cast<TaskId>(t);
    if (!ps.scheduled().contains(tid)) continue;
    key.push_back(t);
    key.push_back(static_cast<std::int64_t>(ps.proc(tid)));
    key.push_back(static_cast<std::int64_t>(ps.start(tid)));
  }
  return key;
}

// Fuzz random extend/undo sequences against the table with a deliberately
// degraded fingerprint (only 4 distinct values) and a one-bucket capacity,
// so unrelated states constantly share buckets and evict each other. The
// table is sound iff it only ever says "prune" for a state that was
// genuinely probed before with an equal-or-better bound — checked against
// an exact reference map keyed on the full placement set.
TEST_P(Fuzz, TranspositionSoundUnderForcedCollisionsAndEviction) {
  Rng rng(derive_seed(0xF026, GetParam()));
  for (int round = 0; round < 4; ++round) {
    const FuzzInstance inst = random_instance(rng);
    const SchedContext ctx(inst.graph,
                           make_shared_bus_machine(inst.procs));
    TranspositionConfig cfg;
    cfg.enabled = true;
    cfg.memory_cap_bytes = 1;  // rounds up to a single 8-slot bucket
    cfg.shards = 1;
    TranspositionTable tt(cfg);

    std::map<std::vector<std::int64_t>, Time> best_probed;
    PartialSchedule ps = PartialSchedule::empty(ctx);
    std::vector<TaskId> stack;
    for (int op = 0; op < 300; ++op) {
      if (!stack.empty() && (ps.complete(ctx) || rng.chance(0.35))) {
        ps.unplace(ctx, stack.back());
        stack.pop_back();
      } else {
        const TaskSet ready = ps.ready();
        auto pick = static_cast<int>(
            rng.index(static_cast<std::size_t>(ready.size())));
        TaskId t = kNoTask;
        for (const TaskId cand : ready) {
          if (pick-- == 0) {
            t = cand;
            break;
          }
        }
        ps.place(ctx, t,
                 static_cast<ProcId>(rng.index(
                     static_cast<std::size_t>(ctx.proc_count()))));
        stack.push_back(t);
      }
      ASSERT_EQ(ps.fingerprint(), ps.fingerprint_from_scratch());

      const std::uint64_t degraded = ps.fingerprint() & 0x3;
      const Time lb = static_cast<Time>(rng.uniform_int(-5, 15));
      const bool pruned = tt.seen_or_insert(degraded, ps, lb);

      const std::vector<std::int64_t> key = state_key(ctx, ps);
      const auto it = best_probed.find(key);
      if (pruned) {
        ASSERT_TRUE(it != best_probed.end())
            << "pruned a state that was never probed before";
        EXPECT_LE(it->second, lb)
            << "pruned although every prior probe had a worse bound";
      }
      if (it == best_probed.end() || lb < it->second) best_probed[key] = lb;
    }
    // The degraded fingerprint guarantees cross-state bucket sharing; the
    // equality fallback must have fired.
    EXPECT_GT(tt.counters().collisions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(0, 14));

}  // namespace
}  // namespace parabb
