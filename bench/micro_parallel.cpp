// Micro-benchmark for the parallel B&B engine's work stealing.
//
// Measures whole-engine expansion throughput at a sweep of thread counts.
// The engine distributes work by stealing: per-worker Chase-Lev deques,
// randomized victims, batched steals (half the victim's deque, min 1).
//
// Workload: the §4.1 generator scaled to 18–22 tasks (the paper's 12–16
// task instances finish in ~100 µs and measure thread setup, not search)
// with tight sliced deadlines (laxity 1.1), LB2. Tight deadlines put the
// search in its fine-grained regime — dives die quickly under pruning, so
// workers go back for work often — which is exactly where stealing is
// exercised. Candidate instances are screened by a 1-thread reference
// run: instances that hit the generated budget instead of exhausting are
// dropped (and logged), because a budget-capped run does width-dependent
// work and its throughput is not comparable.
//
// For each thread count the table reports expansions/sec, the speedup
// over the 1-thread run, the steal success rate (steals that returned
// >= 1 vertex / steal probes), and successful steals per 1000
// expansions. Every run's optimal lateness is checked against the
// screening reference; a disagreement fails the benchmark — throughput
// numbers from a wrong search are worthless.
//
// Hand-rolled timing (aggregate vertices / aggregate seconds across
// instances and repeats) instead of google-benchmark so the binary stays
// dependency-free and scriptable; --json writes a machine-readable
// parabb-bench-v1 report.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/bench_record.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"
#include "parabb/support/timer.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

struct Instance {
  std::unique_ptr<SchedContext> ctx;
  TaskGraph graph;  ///< owns the graph the context points into
  Time reference_cost = kTimeInf;
};

struct Point {
  double expansions_per_sec = 0.0;
  double steal_success = 0.0;    ///< steals_succeeded / steals_attempted
  double steals_per_kexp = 0.0;  ///< successful steals per 1000 expansions
  bool costs_agree = true;       ///< every run matched the reference cost
};

int run(int argc, const char* const* argv) {
  ArgParser parser("micro_parallel",
                   "parallel B&B expansions/sec and work-stealing "
                   "traffic across thread counts");
  parser.add_option("threads", "thread counts to sweep", "1,2,4,8");
  parser.add_option("procs", "processors in the machine model", "3");
  parser.add_option("seed", "base RNG seed", "20250809");
  parser.add_option("graphs", "screened instances per configuration", "3");
  parser.add_option("repeats", "measured runs per instance", "4");
  parser.add_option("tasks-min", "generator minimum task count", "18");
  parser.add_option("tasks-max", "generator maximum task count", "22");
  parser.add_option("laxity", "sliced-deadline laxity ratio", "1.1");
  parser.add_option("budget",
                    "screening max_generated: candidates that cannot "
                    "exhaust within it are dropped",
                    "3000000");
  parser.add_option("json", "write a parabb-bench-v1 report to this path",
                    "");
  parser.add_flag("quick", "one tiny iteration (bench_smoke)");
  if (!parser.parse(argc, argv)) return 0;

  const std::uint64_t seed =
      static_cast<std::uint64_t>(parser.get_int("seed"));
  const int procs = static_cast<int>(parser.get_int("procs"));
  int graphs = static_cast<int>(parser.get_int("graphs"));
  int repeats = static_cast<int>(parser.get_int("repeats"));
  std::uint64_t budget =
      static_cast<std::uint64_t>(parser.get_int("budget"));
  const double laxity = parser.get_double("laxity");
  std::vector<int> thread_counts;
  for (const std::int64_t t : parser.get_int_list("threads"))
    thread_counts.push_back(static_cast<int>(t));
  if (parser.has_flag("quick")) {
    graphs = 1;
    repeats = 1;
    budget = 30000;
    thread_counts = {1, 2};
  }

  GeneratorConfig cfg = paper_config();
  cfg.n_min = static_cast<int>(parser.get_int("tasks-min"));
  cfg.n_max = static_cast<int>(parser.get_int("tasks-max"));
  cfg.depth_min = 6;
  cfg.depth_max = 9;
  if (parser.has_flag("quick")) {
    cfg.n_min = 12;  // small enough to exhaust within the quick budget
    cfg.n_max = 13;
    cfg.depth_min = 5;
    cfg.depth_max = 7;
  }

  std::printf("# micro_parallel\n");
  std::printf("workload: §4.1 generator scaled to %d-%d tasks, tight "
              "sliced deadlines (laxity %.2f), LB2, %d procs; "
              "%d instances x %d repeats per point\n",
              cfg.n_min, cfg.n_max, laxity, procs, graphs, repeats);
  std::fflush(stdout);

  const auto solve = [&](const SchedContext& ctx, int threads) {
    ParallelParams pp;
    pp.base.lb = LowerBound::kLB2;
    pp.base.rb.max_generated = budget;
    pp.threads = threads;
    return solve_bnb_parallel(ctx, pp);
  };

  // Screening: keep the first `graphs` candidates whose 1-thread run
  // exhausts the tree (proving its cost optimal); that run's cost is the
  // agreement reference for every measured run.
  const Machine machine = make_shared_bus_machine(procs);
  std::vector<Instance> instances;
  for (std::uint64_t c = 0;
       c < static_cast<std::uint64_t>(graphs) * 8 &&
       instances.size() < static_cast<std::size_t>(graphs);
       ++c) {
    GeneratedGraph g = generate_graph(cfg, seed + 10 * c);
    SlicingConfig scfg;
    scfg.base = LaxityBase::kPathWork;
    scfg.laxity = laxity;
    assign_deadlines_slicing(g.graph, scfg);
    Instance inst;
    inst.graph = std::move(g.graph);
    inst.ctx = std::make_unique<SchedContext>(inst.graph, machine);
    const ParallelResult ref = solve(*inst.ctx, 1);
    if (ref.reason != TerminationReason::kExhausted) {
      std::printf("screened out candidate seed %llu: stopped before "
                  "exhausting (budget %llu)\n",
                  static_cast<unsigned long long>(seed + 10 * c),
                  static_cast<unsigned long long>(budget));
      continue;
    }
    inst.reference_cost = ref.best_cost;
    instances.push_back(std::move(inst));
  }
  if (instances.empty()) {
    std::fprintf(stderr, "no candidate instance exhausted within the "
                         "budget; raise --budget\n");
    return 1;
  }

  // Every (instance, repeat) contributes one rate sample. Rates aggregate
  // by geometric mean, so one slow outlier run (this is often a shared
  // box) cannot swing a point the way pooled totals would.
  const auto measure = [&](int threads) -> Point {
    Point out;
    double log_rate = 0.0;
    double attempted = 0.0, succeeded = 0.0, expanded = 0.0;
    int samples = 0;
    for (const Instance& inst : instances) {
      for (int r = 0; r < repeats; ++r) {
        const ParallelResult res = solve(*inst.ctx, threads);
        if (res.best_cost != inst.reference_cost) {
          out.costs_agree = false;
          std::fprintf(stderr, "COST MISMATCH: %d threads gave %lld, "
                               "reference %lld\n",
                       threads, static_cast<long long>(res.best_cost),
                       static_cast<long long>(inst.reference_cost));
        }
        attempted += static_cast<double>(res.stats.steals_attempted);
        succeeded += static_cast<double>(res.stats.steals_succeeded);
        expanded += static_cast<double>(res.stats.expanded);
        if (res.stats.seconds > 0.0) {
          log_rate += std::log(static_cast<double>(res.stats.expanded) /
                               res.stats.seconds);
          ++samples;
        }
      }
    }
    if (samples > 0) out.expansions_per_sec = std::exp(log_rate / samples);
    if (attempted > 0.0) out.steal_success = succeeded / attempted;
    if (expanded > 0.0) out.steals_per_kexp = 1e3 * succeeded / expanded;
    return out;
  };

  // Warm-up: touch every instance once so the first measured point is
  // not paying cold caches for everyone else.
  for (const Instance& inst : instances) (void)solve(*inst.ctx, 1);

  TextTable table;
  table.set_header(
      {"threads", "exp/s", "speedup", "steal ok%", "steals/kexp"});
  bool all_agree = true;
  double base_rate = 0.0;
  double speedup_at_max_threads = 0.0;
  for (const int t : thread_counts) {
    const Point point = measure(t);
    all_agree = all_agree && point.costs_agree;
    if (base_rate == 0.0) base_rate = point.expansions_per_sec;
    const double speedup =
        base_rate > 0.0 ? point.expansions_per_sec / base_rate : 0.0;
    speedup_at_max_threads = speedup;
    table.add_row({std::to_string(t),
                   fmt_double(point.expansions_per_sec / 1e3, 1) + "k",
                   fmt_double(speedup, 2) + "x",
                   fmt_double(point.steal_success * 100.0, 1),
                   fmt_double(point.steals_per_kexp, 2)});
  }

  std::printf("\n## expansion throughput by thread count\n%s\n",
              table.to_string().c_str());
  std::printf("costs %s across every thread-count run\n",
              all_agree ? "AGREE" : "DISAGREE");

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    JsonValue doc = bench_record("micro_parallel");
    JsonValue threads = JsonValue::array();
    for (const int t : thread_counts) threads.push_back(t);
    doc.set("threads", std::move(threads));
    JsonValue plan = JsonValue::object();
    plan.set("procs", procs);
    plan.set("graphs", graphs);
    plan.set("instances_kept", static_cast<std::int64_t>(instances.size()));
    plan.set("repeats", repeats);
    plan.set("tasks_min", cfg.n_min);
    plan.set("tasks_max", cfg.n_max);
    plan.set("laxity", laxity);
    plan.set("screening_budget", budget);
    doc.set("replication", std::move(plan));
    doc.set("costs_agree", all_agree);
    doc.set("speedup_at_max_threads", speedup_at_max_threads);
    JsonValue tables = JsonValue::object();
    tables.set("throughput", table_to_json(table));
    doc.set("tables", std::move(tables));
    write_text_file(json_path, doc.dump() + "\n");
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return all_agree ? 0 : 1;
}

}  // namespace
}  // namespace parabb

int main(int argc, char** argv) { return parabb::run(argc, argv); }
