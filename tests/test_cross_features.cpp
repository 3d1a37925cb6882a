// Cross-feature integration: extensions composed with each other — the
// combinations a downstream user will actually hit.
#include <gtest/gtest.h>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/hooks.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "parabb/platform/topology.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/sched/improve.hpp"
#include "parabb/sched/schedule_io.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/sim/simulate.hpp"
#include "parabb/taskgraph/periodic.hpp"
#include "parabb/taskgraph/transforms.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(CrossFeatures, ImproveRespectsTopologyDelays) {
  // The improver's re-timing must charge hop-scaled delays: on a line,
  // relocating a heavy-message consumer far from its producer must never
  // be accepted as an "improvement".
  for (std::uint64_t seed = 800; seed < 806; ++seed) {
    const TaskGraph g = test::tight_instance(seed);
    const Machine machine = make_network_machine(NetworkTopology::line(3));
    const SchedContext ctx(g, machine);
    const EdfResult edf = schedule_edf(ctx);
    const ImproveResult imp = improve_schedule(ctx, edf.schedule);
    EXPECT_LE(imp.max_lateness, edf.max_lateness);
    const ValidationReport rep =
        validate_schedule(imp.schedule, g, machine);
    EXPECT_TRUE(rep.structurally_sound) << rep.error << " seed " << seed;
  }
}

TEST(CrossFeatures, SimulationOnTopologySchedules) {
  const TaskGraph g = test::paper_instance(31);
  const Machine machine = make_network_machine(NetworkTopology::ring(4));
  const SchedContext ctx(g, machine);
  const EdfResult edf = schedule_edf(ctx);
  SimulationConfig cfg;
  cfg.runs = 25;
  const SimulationReport rep = simulate_schedule(ctx, edf.schedule, cfg);
  EXPECT_LE(rep.lateness.max(),
            static_cast<double>(rep.planned_lateness));
}

TEST(CrossFeatures, ScheduleIoRoundTripsTopologyPlans) {
  const TaskGraph g = test::paper_instance(32);
  const Machine machine = make_network_machine(NetworkTopology::line(4));
  const SchedContext ctx(g, machine);
  Params p;
  p.rb.time_limit_s = 5.0;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.found_solution);
  const Schedule restored =
      schedule_from_text(schedule_to_text(r.best, g), g);
  const ValidationReport rep = validate_schedule(restored, g, machine);
  EXPECT_TRUE(rep.structurally_sound) << rep.error;
  EXPECT_EQ(max_lateness(restored, g), r.best_cost);
}

TEST(CrossFeatures, TransitiveReductionPreservesOptimalCost) {
  // Removing precedence-implied arcs must not change the optimal
  // schedule cost when the arcs carry no messages.
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    GeneratorConfig cfg;
    cfg.n_min = cfg.n_max = 7;
    cfg.depth_min = cfg.depth_max = 3;
    cfg.ccr = 0.0;  // all arcs removable
    GeneratedGraph gen = generate_graph(cfg, seed);
    assign_deadlines_slicing(gen.graph);
    const TaskGraph reduced = transitive_reduction(gen.graph);

    const SchedContext a = test::make_ctx(gen.graph, 2);
    const SchedContext b = test::make_ctx(reduced, 2);
    EXPECT_EQ(brute_force(a).best_cost, brute_force(b).best_cost)
        << "seed " << seed;
  }
}

TEST(CrossFeatures, ChainClusteringNeverBeatsTheOriginalOptimum) {
  // Clustering forces chain members onto one processor back to back, so
  // its optimum is a restriction of the original solution space.
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    GeneratorConfig cfg;
    cfg.n_min = cfg.n_max = 7;
    cfg.depth_min = cfg.depth_max = 4;
    cfg.ccr = 0.0;
    GeneratedGraph gen = generate_graph(cfg, seed);
    assign_deadlines_slicing(gen.graph);
    const ChainClustering cc = cluster_linear_chains(gen.graph);
    if (cc.chains_collapsed == 0) continue;

    const SchedContext orig = test::make_ctx(gen.graph, 2);
    const SchedContext clustered = test::make_ctx(cc.clustered, 2);
    EXPECT_LE(brute_force(orig).best_cost,
              brute_force(clustered).best_cost)
        << "seed " << seed;
  }
}

TEST(CrossFeatures, FlightRecorderWithBrAndDominance) {
  const TaskGraph g = test::tight_instance(33);
  const SchedContext ctx = test::make_ctx(g, 2);
  FlightRecorder recorder(std::size_t{1} << 20);
  Observation ob;
  ob.recorder = &recorder;
  Params p;
  p.br = 0.15;
  p.dominance = true;
  p.observe = &ob;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_TRUE(r.found_solution);
  const FlightChannel& ch = recorder.channel(0);
  EXPECT_GT(ch.total(), 0u);
  ASSERT_EQ(ch.dropped(), 0u);
  // Child-level prune events (level >= 0) agree with the counter; the
  // children D skips are never generated and leave no event.
  std::uint64_t prunes = 0;
  for (const FlightEvent& e : ch.chronological()) {
    if (e.kind == FlightEventKind::kPrune && e.level >= 0) ++prunes;
  }
  EXPECT_EQ(prunes, r.stats.pruned_children);
}

TEST(CrossFeatures, ParallelEngineOnTopologies) {
  const TaskGraph g = test::paper_instance(34);
  const Machine machine = make_network_machine(NetworkTopology::ring(3));
  const SchedContext ctx(g, machine);
  const SearchResult seq = solve_bnb(ctx, Params{});
  ParallelParams pp;
  pp.threads = 3;
  const ParallelResult par = solve_bnb_parallel(ctx, pp);
  EXPECT_EQ(par.best_cost, seq.best_cost);
}

TEST(CrossFeatures, FeasibilitySearchOnPeriodicExpansion) {
  // Hyperperiod job graphs flow through the feasibility query unchanged.
  const TaskGraph periodic = GraphBuilder()
                                 .task("p", 4, 9, 0, 10)
                                 .task("q", 3, 8, 0, 20)
                                 .build();
  const HyperperiodExpansion expansion = expand_hyperperiod(periodic);
  const SchedContext ctx = test::make_ctx(expansion.jobs, 1);
  const SearchResult r = solve_bnb(ctx, feasibility_params());
  // p needs [0,9] and [10,19]; q needs 3 units by t=8: P0 can do
  // p#1 [0,4], q#1 [4,7], p#2 [10,14] — feasible on one processor.
  ASSERT_TRUE(r.found_solution);
  EXPECT_LE(r.best_cost, 0);
  const ValidationReport rep = validate_schedule(
      r.best, expansion.jobs, make_shared_bus_machine(1));
  EXPECT_TRUE(rep.valid()) << rep.error;
}

}  // namespace
}  // namespace parabb
