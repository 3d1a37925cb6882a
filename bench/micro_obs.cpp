// Micro-benchmark for the observability subsystem (ISSUE 7).
//
// Two questions, answered on the §4.1 workload:
//   * What does observation cost the search? Whole-engine expansions/sec
//     with Params::observe null vs bound to a live registry + flight
//     recorder, per machine size. The acceptance target is <= 2%
//     overhead — the SearchObs delta-flush design publishes counters
//     only at the engines' amortized poll points, so the per-vertex cost
//     is a handful of predictable branches and ring stores.
//   * How fast are the primitives themselves? Single-thread op rates for
//     Counter::add, Gauge::set, Histogram::observe, FlightChannel::record
//     and the disabled SearchObs call (one null-check branch), so a
//     regression in any of them is visible in isolation.
//
// Hand-rolled timing like micro_lower_bound (dependency-free and
// scriptable); --json writes a machine-readable parabb-bench-v1 report.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
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

/// Repeats `op` (which returns the ops done per pass) until `min_seconds`
/// elapsed; returns ops/sec.
template <typename Fn>
double measure_rate(Fn&& op, double min_seconds) {
  op();  // warm-up
  Stopwatch watch;
  std::uint64_t total = 0;
  do {
    total += op();
  } while (watch.seconds() < min_seconds);
  return static_cast<double>(total) / watch.seconds();
}

constexpr std::uint64_t kPrimitivePass = 1 << 16;

double counter_rate(double min_time) {
  MetricsRegistry reg;
  Counter* c = reg.counter("bench_counter");
  return measure_rate(
      [c] {
        for (std::uint64_t i = 0; i < kPrimitivePass; ++i) c->add(1);
        return kPrimitivePass;
      },
      min_time);
}

double gauge_rate(double min_time) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("bench_gauge");
  return measure_rate(
      [g] {
        for (std::uint64_t i = 0; i < kPrimitivePass; ++i) {
          g->set(static_cast<std::int64_t>(i));
        }
        return kPrimitivePass;
      },
      min_time);
}

double histogram_rate(double min_time) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("bench_hist", {0.001, 0.01, 0.1, 1.0});
  return measure_rate(
      [h] {
        for (std::uint64_t i = 0; i < kPrimitivePass; ++i) {
          h->observe(static_cast<double>(i & 0xFF) * 0.004);
        }
        return kPrimitivePass;
      },
      min_time);
}

double flight_record_rate(double min_time) {
  FlightRecorder rec(256);
  FlightChannel& ch = rec.channel(0);
  return measure_rate(
      [&ch] {
        for (std::uint64_t i = 0; i < kPrimitivePass; ++i) {
          ch.record(FlightEventKind::kExpand, FlightPruneRule::kNone,
                    static_cast<int>(i & 0xF),
                    static_cast<std::int64_t>(i));
        }
        return kPrimitivePass;
      },
      min_time);
}

double disabled_call_rate(double min_time) {
  SearchObs so;
  so.bind(nullptr, 0);
  return measure_rate(
      [&so] {
        for (std::uint64_t i = 0; i < kPrimitivePass; ++i) {
          so.expand(static_cast<int>(i & 0xF),
                    static_cast<std::int64_t>(i));
        }
        return kPrimitivePass;
      },
      min_time);
}

int run(int argc, const char* const* argv) {
  ArgParser parser("micro_obs",
                   "engine expansions/sec with observation off vs on, "
                   "plus registry primitive op rates");
  parser.add_option("machines", "processor counts to sweep", "2,3,4");
  parser.add_option("seed", "base RNG seed", "20250705");
  parser.add_option("graphs", "tight instances per machine size", "4");
  parser.add_option("reps", "alternating off/on engine runs per instance",
                    "3");
  parser.add_option("min-time", "seconds per primitive measurement", "0.2");
  parser.add_option("budget", "engine max_generated per run", "120000");
  parser.add_option("json", "write a parabb-bench-v1 report to this path",
                    "");
  parser.add_flag("quick", "one tiny iteration (bench_smoke)");
  if (!parser.parse(argc, argv)) return 0;

  const std::uint64_t seed =
      static_cast<std::uint64_t>(parser.get_int("seed"));
  int graphs = static_cast<int>(parser.get_int("graphs"));
  int reps = static_cast<int>(parser.get_int("reps"));
  double min_time = parser.get_double("min-time");
  std::uint64_t budget =
      static_cast<std::uint64_t>(parser.get_int("budget"));
  if (parser.has_flag("quick")) {
    graphs = 1;
    reps = 1;
    min_time = 0.005;
    budget = 2000;
  }

  std::printf("# micro_obs\n");
  std::printf("workload: §4.1 generator, tight deadlines (laxity 1.1); "
              "%d instances per machine size; budget %llu generated\n",
              graphs, static_cast<unsigned long long>(budget));
  std::fflush(stdout);

  TextTable engine_table;
  engine_table.set_header(
      {"m", "off exp/s", "on exp/s", "overhead %"});

  for (const std::int64_t m64 : parser.get_int_list("machines")) {
    const int m = static_cast<int>(m64);
    const Machine machine = make_shared_bus_machine(m);
    double off_rate = 0.0, on_rate = 0.0;
    int runs = 0;
    for (int i = 0; i < graphs; ++i) {
      GeneratedGraph g = generate_graph(
          paper_config(), seed + 1000 + static_cast<std::uint64_t>(i));
      SlicingConfig scfg;
      scfg.base = LaxityBase::kPathWork;
      scfg.laxity = 1.1;
      assign_deadlines_slicing(g.graph, scfg);
      const SchedContext ctx(g.graph, machine);

      Params params;
      params.lb = LowerBound::kLB2;
      params.rb.max_generated = budget;

      MetricsRegistry reg;
      FlightRecorder rec(256);
      Observation ob;
      ob.metrics = &reg;
      ob.recorder = &rec;
      Params observed = params;
      observed.observe = &ob;

      solve_bnb(ctx, params);  // warm-up: fault in the context and pools
      // Alternate off/on so clock drift and frequency scaling hit both
      // sides equally; accumulate work and time across the reps.
      std::uint64_t off_exp = 0, on_exp = 0;
      double off_s = 0.0, on_s = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        const SearchResult off = solve_bnb(ctx, params);
        const SearchResult on = solve_bnb(ctx, observed);
        off_exp += off.stats.expanded;
        off_s += off.stats.seconds;
        on_exp += on.stats.expanded;
        on_s += on.stats.seconds;
      }
      if (off_s <= 0.0 || on_s <= 0.0) continue;
      off_rate += static_cast<double>(off_exp) / off_s;
      on_rate += static_cast<double>(on_exp) / on_s;
      ++runs;
    }
    if (runs > 0) {
      off_rate /= runs;
      on_rate /= runs;
      const double overhead = (off_rate - on_rate) / off_rate * 100.0;
      engine_table.add_row({std::to_string(m),
                            fmt_double(off_rate / 1e3, 1) + "k",
                            fmt_double(on_rate / 1e3, 1) + "k",
                            fmt_double(overhead, 2)});
    }
  }

  TextTable prim_table;
  prim_table.set_header({"primitive", "Mops/s"});
  prim_table.add_row(
      {"counter_add", fmt_double(counter_rate(min_time) / 1e6, 1)});
  prim_table.add_row(
      {"gauge_set", fmt_double(gauge_rate(min_time) / 1e6, 1)});
  prim_table.add_row(
      {"histogram_observe", fmt_double(histogram_rate(min_time) / 1e6, 1)});
  prim_table.add_row(
      {"flight_record", fmt_double(flight_record_rate(min_time) / 1e6, 1)});
  prim_table.add_row(
      {"disabled_call", fmt_double(disabled_call_rate(min_time) / 1e6, 1)});

  std::printf("\n## engine expansion throughput, observe off vs on\n%s\n",
              engine_table.to_string().c_str());
  std::printf("## primitive op rates (single thread)\n%s\n",
              prim_table.to_string().c_str());

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    JsonValue doc = bench_record("micro_obs");
    JsonValue machines = JsonValue::array();
    for (const auto mm : parser.get_int_list("machines"))
      machines.push_back(static_cast<int>(mm));
    doc.set("machines", std::move(machines));
    JsonValue plan = JsonValue::object();
    plan.set("graphs", graphs);
    plan.set("reps", reps);
    plan.set("min_time_s", min_time);
    plan.set("engine_budget", budget);
    doc.set("replication", std::move(plan));
    JsonValue tables = JsonValue::object();
    tables.set("engine", table_to_json(engine_table));
    tables.set("primitives", table_to_json(prim_table));
    doc.set("tables", std::move(tables));
    write_text_file(json_path, doc.dump() + "\n");
    std::printf("json report written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace parabb

int main(int argc, char** argv) { return parabb::run(argc, argv); }
