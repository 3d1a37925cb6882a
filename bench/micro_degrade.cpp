// Micro-benchmark for the graceful-degradation ladder (ISSUE 9).
//
// Two questions, answered on the ladder's natural regime — LLB selection
// with no initial incumbent, the memory-hungry configuration where an
// active-set budget actually bites (LIFO keeps the pool at a few dozen
// vertices, so a cap never fires there):
//   * What does degrading buy? For each budget fraction of the uncapped
//     run's peak pool footprint, every instance is solved twice —
//     dispose-only (ladder off: the run dies on the budget cliff, often
//     with no incumbent at all) vs ladder on (shed TT, tighten MAXSZDB,
//     BFn->BF1, then a depth-first dive) — and the table reports how
//     many capped runs still produced a schedule, how many the ladder
//     rescued outright, and the mean lateness over the commonly-found
//     instances. The acceptance gate (tests/test_robust.cpp) is that the
//     ladder never loses in aggregate and strictly wins on >= 20% of the
//     contested grid; this harness quantifies the margin.
//   * What does an armed-but-idle ladder cost? Whole-engine
//     expansions/sec with degrade disabled vs enabled under a budget too
//     large to ever fire: the off path is a few integer compares at the
//     amortized poll point, so the target is noise-level overhead.
//
// Hand-rolled timing like micro_lower_bound (dependency-free and
// scriptable); --json writes a machine-readable parabb-bench-v1 report.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/bench_record.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

SchedContext tight_ctx(std::uint64_t seed, const Machine& machine) {
  GeneratedGraph g = generate_graph(paper_config(), seed);
  SlicingConfig scfg;
  scfg.base = LaxityBase::kPathWork;
  scfg.laxity = 1.1;
  assign_deadlines_slicing(g.graph, scfg);
  return SchedContext(std::move(g.graph), machine);
}

SearchResult run_capped(const SchedContext& ctx, std::uint64_t budget,
                        std::size_t cap, bool ladder) {
  Params p;
  p.select = SelectRule::kLLB;
  p.ub = UpperBoundInit::kInfinite;
  p.rb.max_generated = budget;
  if (cap != 0) p.rb.max_memory_bytes = cap;
  p.degrade = ladder;
  return solve_bnb(ctx, p);
}

int run(int argc, const char* const* argv) {
  ArgParser parser("micro_degrade",
                   "schedule quality under memory caps with the "
                   "degradation ladder off vs on, plus the armed-ladder "
                   "overhead on the uncontested path");
  parser.add_option("machines", "processor counts to sweep", "3");
  parser.add_option("seed", "base RNG seed", "20250809");
  parser.add_option("graphs", "tight instances per machine size", "24");
  parser.add_option("fracs", "memory caps as % of the uncapped peak",
                    "75,50,25");
  parser.add_option("budget", "engine max_generated per run", "60000");
  parser.add_option("reps", "alternating off/armed runs for the overhead "
                            "measurement", "3");
  parser.add_option("json", "write a parabb-bench-v1 report to this path",
                    "");
  parser.add_flag("quick", "one tiny iteration (bench_smoke)");
  if (!parser.parse(argc, argv)) return 0;

  const std::uint64_t seed =
      static_cast<std::uint64_t>(parser.get_int("seed"));
  int graphs = static_cast<int>(parser.get_int("graphs"));
  int reps = static_cast<int>(parser.get_int("reps"));
  std::uint64_t budget =
      static_cast<std::uint64_t>(parser.get_int("budget"));
  if (parser.has_flag("quick")) {
    graphs = 4;
    reps = 1;
    budget = 20000;
  }

  std::printf("# micro_degrade\n");
  std::printf("workload: §4.1 generator, tight deadlines (laxity 1.1), "
              "LLB selection, no initial incumbent; %d instances per "
              "machine size; budget %llu generated\n",
              graphs, static_cast<unsigned long long>(budget));
  std::fflush(stdout);

  TextTable quality;
  quality.set_header({"m", "cap %", "contested", "off found", "on found",
                      "rescued", "mean steps", "off lateness",
                      "on lateness"});

  TextTable overhead;
  overhead.set_header({"m", "off exp/s", "armed exp/s", "overhead %"});

  for (const std::int64_t m64 : parser.get_int_list("machines")) {
    const int m = static_cast<int>(m64);
    const Machine machine = make_shared_bus_machine(m);

    // Quality sweep: cap each instance at a fraction of its own
    // uncapped peak so every cell is contested by construction (an
    // absolute cap either never fires or always kills, depending on
    // instance size).
    for (const std::int64_t frac : parser.get_int_list("fracs")) {
      int contested = 0, off_found = 0, on_found = 0, rescued = 0;
      std::uint64_t steps = 0;
      long long off_lateness = 0, on_lateness = 0;
      int both_found = 0;
      for (int i = 0; i < graphs; ++i) {
        const SchedContext ctx =
            tight_ctx(seed + 1000 + static_cast<std::uint64_t>(i), machine);
        const SearchResult probe = run_capped(ctx, budget, 0, false);
        const std::size_t cap =
            probe.stats.peak_memory_bytes *
            static_cast<std::size_t>(frac) / 100;
        if (cap == 0) continue;
        const SearchResult off = run_capped(ctx, budget, cap, false);
        const SearchResult on = run_capped(ctx, budget, cap, true);
        if (off.reason != TerminationReason::kBudget &&
            on.stats.degrade_steps == 0) {
          continue;  // the cap never bit: nothing to compare
        }
        ++contested;
        steps += on.stats.degrade_steps;
        if (off.found_solution) ++off_found;
        if (on.found_solution) ++on_found;
        if (on.found_solution && !off.found_solution) ++rescued;
        if (off.found_solution && on.found_solution) {
          ++both_found;
          off_lateness += off.best_cost;
          on_lateness += on.best_cost;
        }
      }
      const double mean_steps =
          contested > 0 ? static_cast<double>(steps) / contested : 0.0;
      quality.add_row(
          {std::to_string(m), std::to_string(frac),
           std::to_string(contested), std::to_string(off_found),
           std::to_string(on_found), std::to_string(rescued),
           fmt_double(mean_steps, 1),
           both_found > 0
               ? fmt_double(static_cast<double>(off_lateness) / both_found,
                            1)
               : "-",
           both_found > 0
               ? fmt_double(static_cast<double>(on_lateness) / both_found, 1)
               : "-"});
    }

    // Overhead: the paper's default configuration (EDF seed, LIFO) with
    // the ladder disarmed vs armed under a budget it can never reach.
    // Alternate sides so clock drift hits both equally.
    std::uint64_t off_exp = 0, armed_exp = 0;
    double off_s = 0.0, armed_s = 0.0;
    for (int i = 0; i < graphs; ++i) {
      const SchedContext ctx =
          tight_ctx(seed + 2000 + static_cast<std::uint64_t>(i), machine);
      Params plain;
      plain.rb.max_generated = budget;
      Params armed = plain;
      armed.rb.max_memory_bytes = std::size_t{1} << 42;
      armed.degrade = true;
      solve_bnb(ctx, plain);  // warm-up: fault in the context and pools
      for (int rep = 0; rep < reps; ++rep) {
        const SearchResult off = solve_bnb(ctx, plain);
        const SearchResult on = solve_bnb(ctx, armed);
        off_exp += off.stats.expanded;
        off_s += off.stats.seconds;
        armed_exp += on.stats.expanded;
        armed_s += on.stats.seconds;
      }
    }
    if (off_s > 0.0 && armed_s > 0.0) {
      const double off_rate = static_cast<double>(off_exp) / off_s;
      const double armed_rate = static_cast<double>(armed_exp) / armed_s;
      overhead.add_row({std::to_string(m),
                        fmt_double(off_rate / 1e3, 1) + "k",
                        fmt_double(armed_rate / 1e3, 1) + "k",
                        fmt_double((off_rate - armed_rate) / off_rate *
                                       100.0,
                                   2)});
    }
  }

  std::printf("\n## capped-run quality, dispose-only vs ladder\n%s\n",
              quality.to_string().c_str());
  std::printf("## armed-but-idle ladder overhead\n%s\n",
              overhead.to_string().c_str());

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    JsonValue doc = bench_record("micro_degrade");
    JsonValue machines = JsonValue::array();
    for (const auto mm : parser.get_int_list("machines"))
      machines.push_back(static_cast<int>(mm));
    doc.set("machines", std::move(machines));
    JsonValue plan = JsonValue::object();
    plan.set("graphs", graphs);
    plan.set("reps", reps);
    plan.set("engine_budget", budget);
    doc.set("replication", std::move(plan));
    JsonValue tables = JsonValue::object();
    tables.set("quality", table_to_json(quality));
    tables.set("overhead", table_to_json(overhead));
    doc.set("tables", std::move(tables));
    write_text_file(json_path, doc.dump() + "\n");
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace parabb

int main(int argc, char** argv) { return parabb::run(argc, argv); }
