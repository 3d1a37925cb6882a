// Micro-benchmark for the incremental bounding hot path (ISSUE 3).
//
// Measures, on the §4.1 workload (paper generator + sliced deadlines), the
// per-child evaluation cost of four strategies:
//   scratch      — the seed path: copy the parent, place, then evaluate
//                  lower_bound_cost from scratch (one full O(n+E) pass plus
//                  the LB2 deadline sort);
//   incremental  — IncrementalLB: place/evaluate/unplace on one scratch
//                  state, no copy, no sort;
//   inc+cutoff   — incremental with the bound-aware short-circuit, cutoff
//                  set to the parent's median exact child bound (the shape
//                  a live search sees once the incumbent tightens);
//   bound-first  — IncrementalLB::evaluate_child with the same cutoff and
//                  nothing placed: how the engines bound children.
// plus whole-engine expansions/sec (the engines bound bound-first) and the
// copies-per-generated-child ratio implied by the search counters.
//
// Hand-rolled timing (repeat until a minimum elapsed time) instead of
// google-benchmark so the binary stays dependency-free and scriptable;
// --json writes a machine-readable parabb-bench-v1 report.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/bench_record.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"
#include "parabb/support/timer.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

struct ParentCase {
  const SchedContext* ctx = nullptr;
  PartialSchedule state;
  Time median_child_bound = 0;  ///< cutoff for the short-circuit variant
};

/// Random interior states of §4.1 instances: the distribution the engines
/// actually expand (mixed depths, mixed processor loads).
std::vector<ParentCase> make_parents(
    const std::vector<std::unique_ptr<SchedContext>>& contexts,
    int per_context, std::uint64_t seed, LowerBound kind) {
  std::mt19937_64 rng(seed);
  std::vector<ParentCase> parents;
  for (const auto& ctx_ptr : contexts) {
    const SchedContext& ctx = *ctx_ptr;
    for (int i = 0; i < per_context; ++i) {
      PartialSchedule ps = PartialSchedule::empty(ctx);
      const int depth =
          static_cast<int>(rng() % static_cast<unsigned>(ctx.task_count()));
      for (int d = 0; d < depth && !ps.ready().empty(); ++d) {
        std::vector<TaskId> ready;
        for (const TaskId t : ps.ready()) ready.push_back(t);
        ps.place(ctx, ready[rng() % ready.size()],
                 static_cast<ProcId>(
                     rng() % static_cast<unsigned>(ctx.proc_count())));
      }
      if (ps.ready().empty()) continue;
      ParentCase pc;
      pc.ctx = &ctx;
      pc.state = ps;
      // Exact child bounds (scratch path) give the median cutoff.
      std::vector<Time> bounds;
      for (const TaskId t : ps.ready()) {
        for (ProcId p = 0; p < ctx.proc_count(); ++p) {
          PartialSchedule child = ps;
          child.place(ctx, t, p);
          bounds.push_back(lower_bound_cost(ctx, child, kind));
        }
      }
      std::sort(bounds.begin(), bounds.end());
      pc.median_child_bound = bounds[bounds.size() / 2];
      parents.push_back(std::move(pc));
    }
  }
  return parents;
}

enum class Strategy {
  kScratch,
  kIncremental,
  kIncrementalCutoff,
  kBoundFirst
};

/// One pass over every (parent, ready task, processor) child; returns the
/// number of child evaluations plus a value-dependent checksum so the
/// compiler cannot elide the bound computations.
std::pair<std::uint64_t, Time> child_eval_pass(
    std::vector<ParentCase>& parents, LowerBound kind, Strategy strategy) {
  std::uint64_t evals = 0;
  Time sink = 0;
  for (ParentCase& pc : parents) {
    const SchedContext& ctx = *pc.ctx;
    if (strategy == Strategy::kScratch) {
      for (const TaskId t : pc.state.ready()) {
        for (ProcId p = 0; p < ctx.proc_count(); ++p) {
          PartialSchedule child = pc.state;  // the seed path's copy
          child.place(ctx, t, p);
          sink += lower_bound_cost(ctx, child, kind);
          ++evals;
        }
      }
    } else if (strategy == Strategy::kBoundFirst) {
      IncrementalLB inc(ctx);
      inc.attach(pc.state);
      for (const TaskId t : pc.state.ready()) {
        for (ProcId p = 0; p < ctx.proc_count(); ++p) {
          sink += inc.evaluate_child(pc.state, t, p, kind,
                                     pc.median_child_bound);
          ++evals;
        }
      }
    } else {
      const Time cutoff = strategy == Strategy::kIncrementalCutoff
                              ? pc.median_child_bound
                              : kTimeInf;
      IncrementalLB inc(ctx);
      inc.attach(pc.state);
      for (const TaskId t : pc.state.ready()) {
        for (ProcId p = 0; p < ctx.proc_count(); ++p) {
          inc.place(pc.state, t, p);
          sink += inc.evaluate(pc.state, kind, cutoff);
          inc.unplace(pc.state, t);
          ++evals;
        }
      }
    }
  }
  return {evals, sink};
}

double measure_evals_per_sec(std::vector<ParentCase>& parents,
                             LowerBound kind, Strategy strategy,
                             double min_seconds) {
  // Warm-up pass (also keeps `sink` observable across the run).
  volatile Time guard = child_eval_pass(parents, kind, strategy).second;
  (void)guard;
  Stopwatch watch;
  std::uint64_t evals = 0;
  do {
    const auto [n, sink] = child_eval_pass(parents, kind, strategy);
    guard = sink;
    evals += n;
  } while (watch.seconds() < min_seconds);
  return static_cast<double>(evals) / watch.seconds();
}

std::string lb_name(LowerBound kind) {
  return kind == LowerBound::kLB1 ? "LB1" : "LB2";
}

int run(int argc, const char* const* argv) {
  ArgParser parser("micro_lower_bound",
                   "bound evaluations/sec and engine expansions/sec, "
                   "incremental vs from-scratch");
  parser.add_option("machines", "processor counts to sweep", "2,3,4");
  parser.add_option("seed", "base RNG seed", "20250705");
  parser.add_option("graphs", "instances per machine size", "6");
  parser.add_option("parents", "sampled parent states per instance", "12");
  parser.add_option("min-time", "seconds per measurement", "0.25");
  parser.add_option("budget", "engine max_generated per run", "150000");
  parser.add_option("json", "write a parabb-bench-v1 report to this path",
                    "");
  parser.add_flag("quick", "one tiny iteration (bench_smoke)");
  if (!parser.parse(argc, argv)) return 0;

  const std::uint64_t seed =
      static_cast<std::uint64_t>(parser.get_int("seed"));
  int graphs = static_cast<int>(parser.get_int("graphs"));
  int per_context = static_cast<int>(parser.get_int("parents"));
  double min_time = parser.get_double("min-time");
  std::uint64_t budget =
      static_cast<std::uint64_t>(parser.get_int("budget"));
  if (parser.has_flag("quick")) {
    graphs = 2;
    per_context = 4;
    min_time = 0.005;
    budget = 2000;
  }

  std::printf("# micro_lower_bound\n");
  std::printf("workload: §4.1 generator + sliced deadlines; %d instances x "
              "%d parent states per machine size; min-time %.3fs\n",
              graphs, per_context, min_time);
  std::fflush(stdout);

  TextTable child_table;
  child_table.set_header({"m", "bound", "scratch ev/s", "incr ev/s",
                          "speedup", "inc+cutoff ev/s", "cutoff speedup",
                          "bound-first ev/s", "bound-first speedup"});
  TextTable engine_table;
  engine_table.set_header(
      {"m", "exp/s", "copies/child before", "copies/child after"});

  for (const std::int64_t m64 : parser.get_int_list("machines")) {
    const int m = static_cast<int>(m64);
    const Machine machine = make_shared_bus_machine(m);
    std::vector<std::unique_ptr<SchedContext>> contexts;
    for (int i = 0; i < graphs; ++i) {
      GeneratedGraph g = generate_graph(paper_config(), seed + 10 *
                                        static_cast<std::uint64_t>(i));
      assign_deadlines_slicing(g.graph);
      contexts.push_back(std::make_unique<SchedContext>(g.graph, machine));
    }

    for (const LowerBound kind : {LowerBound::kLB1, LowerBound::kLB2}) {
      std::vector<ParentCase> parents =
          make_parents(contexts, per_context, seed ^ 0x9e3779b9, kind);
      const double scratch = measure_evals_per_sec(
          parents, kind, Strategy::kScratch, min_time);
      const double incr = measure_evals_per_sec(
          parents, kind, Strategy::kIncremental, min_time);
      const double cut = measure_evals_per_sec(
          parents, kind, Strategy::kIncrementalCutoff, min_time);
      const double first = measure_evals_per_sec(
          parents, kind, Strategy::kBoundFirst, min_time);
      child_table.add_row({std::to_string(m), lb_name(kind),
                           fmt_double(scratch / 1e6, 2) + "M",
                           fmt_double(incr / 1e6, 2) + "M",
                           fmt_double(incr / scratch, 2) + "x",
                           fmt_double(cut / 1e6, 2) + "M",
                           fmt_double(cut / scratch, 2) + "x",
                           fmt_double(first / 1e6, 2) + "M",
                           fmt_double(first / scratch, 2) + "x"});
    }

    // Whole-engine comparison on tight instances (real pruning pressure).
    double rate = 0.0;
    double copies_before = 0.0, copies_after = 0.0;
    int runs = 0;
    for (int i = 0; i < std::max(1, graphs / 2); ++i) {
      GeneratedGraph g = generate_graph(paper_config(),
                                        seed + 1000 +
                                        static_cast<std::uint64_t>(i));
      SlicingConfig scfg;
      scfg.base = LaxityBase::kPathWork;
      scfg.laxity = 1.1;
      assign_deadlines_slicing(g.graph, scfg);
      const SchedContext ctx(g.graph, machine);
      Params params;
      params.lb = LowerBound::kLB2;
      params.rb.max_generated = budget;
      const SearchResult r = solve_bnb(ctx, params);
      if (r.stats.seconds <= 0.0) continue;
      rate += static_cast<double>(r.stats.expanded) / r.stats.seconds;
      const double generated = static_cast<double>(r.stats.generated);
      // Seed path: one StagedChild copy per generated child plus a pool
      // copy per activated child. New path: one scratch copy per expanded
      // parent plus a pool copy per activated child.
      copies_before += (generated +
                        static_cast<double>(r.stats.activated)) /
                       generated;
      copies_after += (static_cast<double>(r.stats.expanded) +
                       static_cast<double>(r.stats.activated)) /
                      generated;
      ++runs;
    }
    if (runs > 0) {
      rate /= runs;
      copies_before /= runs;
      copies_after /= runs;
      engine_table.add_row({std::to_string(m),
                            fmt_double(rate / 1e3, 1) + "k",
                            fmt_double(copies_before, 2),
                            fmt_double(copies_after, 2)});
    }
  }

  std::printf("\n## child bound evaluation (evals/sec)\n%s\n",
              child_table.to_string().c_str());
  std::printf("## engine expansion throughput (LB2, tight deadlines)\n%s\n",
              engine_table.to_string().c_str());

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    JsonValue doc = bench_record("micro_lower_bound");
    JsonValue machines = JsonValue::array();
    for (const auto m : parser.get_int_list("machines"))
      machines.push_back(static_cast<int>(m));
    doc.set("machines", std::move(machines));
    JsonValue plan = JsonValue::object();
    plan.set("graphs", graphs);
    plan.set("parents_per_graph", per_context);
    plan.set("min_time_s", min_time);
    plan.set("engine_budget", budget);
    doc.set("replication", std::move(plan));
    JsonValue tables = JsonValue::object();
    tables.set("child_eval", table_to_json(child_table));
    tables.set("engine", table_to_json(engine_table));
    doc.set("tables", std::move(tables));
    write_text_file(json_path, doc.dump() + "\n");
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace parabb

int main(int argc, char** argv) { return parabb::run(argc, argv); }
