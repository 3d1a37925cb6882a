// Shared fixtures and helpers for the ParaBB test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "parabb/deadline/slicing.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/taskgraph/builder.hpp"
#include "parabb/taskgraph/graph.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb::test {

/// Small diamond with explicit per-task windows; feasible on 2 processors.
///   a(10) -> b(20), c(15) -> d(10), comm 5 items on every arc.
inline TaskGraph small_diamond() {
  return GraphBuilder()
      .task("a", 10, /*rel_deadline=*/15, /*phase=*/0)
      .task("b", 20, 40, 10)
      .task("c", 15, 40, 10)
      .task("d", 10, 30, 35)
      .arc("a", "b", 5)
      .arc("a", "c", 5)
      .arc("b", "d", 5)
      .arc("c", "d", 5)
      .build();
}

/// Independent tasks (no arcs) with staggered windows.
inline TaskGraph independent_tasks(int n, Time exec = 10, Time window = 25) {
  GraphBuilder b;
  for (int i = 0; i < n; ++i)
    b.task("i" + std::to_string(i), exec, window + 5 * i, 0);
  return b.build();
}

/// Random paper-style instance scaled down to `n_max` tasks for exhaustive
/// cross-checks, with deadlines assigned by slicing.
inline TaskGraph tiny_random(std::uint64_t seed, int n = 6, int depth = 3) {
  GeneratorConfig cfg;
  cfg.n_min = cfg.n_max = n;
  cfg.depth_min = cfg.depth_max = depth;
  GeneratedGraph g = generate_graph(cfg, seed);
  assign_deadlines_slicing(g.graph);
  return std::move(g.graph);
}

/// Paper-sized instance (12-16 tasks, depth 8-12) with sliced deadlines.
inline TaskGraph paper_instance(std::uint64_t seed) {
  GeneratedGraph g = generate_graph(paper_config(), seed);
  assign_deadlines_slicing(g.graph);
  return std::move(g.graph);
}

/// Paper-sized instance with *tight* deadlines (per-path laxity 1.1):
/// EDF is rarely optimal here, so the B&B search is nontrivial. Used by
/// tests that need expansions/pruning to actually happen.
inline TaskGraph tight_instance(std::uint64_t seed) {
  GeneratedGraph g = generate_graph(paper_config(), seed);
  SlicingConfig cfg;
  cfg.base = LaxityBase::kPathWork;
  cfg.laxity = 1.1;
  assign_deadlines_slicing(g.graph, cfg);
  return std::move(g.graph);
}

/// The crash-sweep workload (tests/data/crash.tgf is this same graph):
/// paper-config generator widened to 20-24 tasks at CCR 2 — a ~1 s
/// 3-processor solve, long enough that a time-limited partial run stops
/// genuinely mid-search.
inline TaskGraph crash_graph() {
  GeneratorConfig cfg = paper_config();
  cfg.n_min = 20;
  cfg.n_max = 24;
  cfg.depth_min = 8;
  cfg.depth_max = 10;
  cfg.ccr = 2.0;
  return generate_graph(cfg, 1017).graph;
}

inline SchedContext make_ctx(const TaskGraph& g, int procs) {
  return SchedContext(g, make_shared_bus_machine(procs));
}

struct LedgerInstance {
  std::string name;
  TaskGraph graph;
  int procs = 2;
};

/// The effort ledger's corpus (tests/test_effort_ledger.cpp): 12 seeds of
/// §4.1 graphs, each sliced at the paper's laxity (1.5 x total work) and
/// at a tight one (1.1 x each chain's work); m cycles through 2, 3, 4.
inline std::vector<LedgerInstance> ledger_corpus() {
  std::vector<LedgerInstance> out;
  int index = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool tight : {false, true}) {
      GeneratedGraph g = generate_graph(paper_config(), seed);
      SlicingConfig cfg;
      if (tight) {
        cfg.base = LaxityBase::kPathWork;
        cfg.laxity = 1.1;
      }
      assign_deadlines_slicing(g.graph, cfg);
      const int procs = 2 + index++ % 3;
      out.push_back(LedgerInstance{
          's' + std::to_string(seed) + (tight ? "-tight" : "-loose") +
              "-m" + std::to_string(procs),
          std::move(g.graph), procs});
    }
  }
  return out;
}

}  // namespace parabb::test
