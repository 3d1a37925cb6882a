// Micro-benchmark for crash-safe checkpointing (ISSUE 10).
//
// Two questions, answered on tight paper-config instances:
//   * What does a snapshot cost? A budget-stopped run donates a live
//     mid-search state; the codec table reports its frontier size and
//     framed byte count, the pure encode/decode throughput, and the
//     durable save/load round trip (save includes the temp-file + fsync +
//     rename discipline, so it is the number a cadence choice should be
//     read against: a 4 MB snapshot at ~1 ms/MB of encode plus one fsync
//     is far below any sane interval).
//   * What does an armed-but-idle controller cost? Whole-engine
//     expansions/sec with Params::ckpt null vs armed at the service's
//     default 1 s cadence (the runs are shorter than the interval, so the
//     controller is polled but almost never due). The acceptance target
//     (docs/robustness.md) is <= 2% — the poll is one relaxed load plus a
//     clock read at the amortized 256-expansion point.
//
// Hand-rolled timing like micro_lower_bound (dependency-free and
// scriptable); --json writes a machine-readable parabb-bench-v1 report.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
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

SchedContext tight_ctx(std::uint64_t seed, const Machine& machine) {
  GeneratedGraph g = generate_graph(paper_config(), seed);
  SlicingConfig scfg;
  scfg.base = LaxityBase::kPathWork;
  scfg.laxity = 1.1;
  assign_deadlines_slicing(g.graph, scfg);
  return SchedContext(std::move(g.graph), machine);
}

/// A live mid-search state: LLB with no incumbent piles up a frontier
/// worth serializing (LIFO keeps it at a few dozen vertices).
SearchSnapshot donate_snapshot(const SchedContext& ctx,
                               const std::string& path,
                               std::uint64_t budget) {
  CheckpointController ckpt(path, /*every_ms=*/0);
  ckpt.request_now();
  Params p;
  p.select = SelectRule::kLLB;
  p.ub = UpperBoundInit::kInfinite;
  p.ckpt = &ckpt;
  p.rb.max_generated = budget;
  solve_bnb(ctx, p);
  return load_snapshot(path);
}

int run(int argc, const char* const* argv) {
  ArgParser parser("micro_checkpoint",
                   "snapshot encode/decode and durable save/load "
                   "throughput, plus the armed-but-idle checkpoint "
                   "controller's whole-engine overhead");
  parser.add_option("machines", "processor counts to sweep", "3");
  parser.add_option("seed", "base RNG seed", "20250809");
  parser.add_option("graphs", "tight instances per machine size", "12");
  parser.add_option("budget", "engine max_generated per run", "60000");
  parser.add_option("reps", "codec round trips / alternating off-armed "
                            "runs per instance", "5");
  parser.add_option("interval",
                    "armed controller cadence in ms (the service default)",
                    "1000");
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
  const double interval = parser.get_double("interval");
  if (parser.has_flag("quick")) {
    graphs = 3;
    reps = 1;
    budget = 20000;
  }

  const std::string scratch = "/tmp/parabb_micro_checkpoint." +
                              std::to_string(::getpid()) + ".ckpt";

  std::printf("# micro_checkpoint\n");
  std::printf("workload: §4.1 generator, tight deadlines (laxity 1.1); "
              "%d instances per machine size; budget %llu generated; "
              "armed cadence %.0f ms\n",
              graphs, static_cast<unsigned long long>(budget), interval);
  std::fflush(stdout);

  TextTable codec;
  codec.set_header({"m", "frontier", "KB", "encode MB/s", "decode MB/s",
                    "save ms", "load ms"});

  TextTable overhead;
  overhead.set_header({"m", "off exp/s", "armed exp/s", "overhead %"});

  for (const std::int64_t m64 : parser.get_int_list("machines")) {
    const int m = static_cast<int>(m64);
    const Machine machine = make_shared_bus_machine(m);

    // Codec + durable-path throughput, averaged across donor snapshots.
    std::uint64_t frontier = 0, bytes = 0;
    double enc_s = 0.0, dec_s = 0.0, save_s = 0.0, load_s = 0.0;
    int donors = 0;
    for (int i = 0; i < graphs; ++i) {
      const SchedContext ctx =
          tight_ctx(seed + 1000 + static_cast<std::uint64_t>(i), machine);
      const SearchSnapshot snap =
          donate_snapshot(ctx, scratch, budget / 2);
      if (snap.frontier.empty()) continue;
      ++donors;
      frontier += snap.frontier.size();
      const std::vector<std::uint8_t> framed = encode_snapshot(snap);
      bytes += framed.size();
      Stopwatch watch;
      for (int rep = 0; rep < reps; ++rep) (void)encode_snapshot(snap);
      enc_s += watch.seconds();
      watch.restart();
      for (int rep = 0; rep < reps; ++rep) (void)decode_snapshot(framed);
      dec_s += watch.seconds();
      watch.restart();
      for (int rep = 0; rep < reps; ++rep) save_snapshot(scratch, snap);
      save_s += watch.seconds();
      watch.restart();
      for (int rep = 0; rep < reps; ++rep) (void)load_snapshot(scratch);
      load_s += watch.seconds();
    }
    if (donors > 0) {
      const double mb = static_cast<double>(bytes) / donors / 1e6;
      const double rounds = static_cast<double>(donors * reps);
      codec.add_row(
          {std::to_string(m),
           std::to_string(frontier / static_cast<std::uint64_t>(donors)),
           fmt_double(static_cast<double>(bytes) / donors / 1e3, 1),
           fmt_double(mb * rounds / enc_s, 1),
           fmt_double(mb * rounds / dec_s, 1),
           fmt_double(save_s / rounds * 1e3, 2),
           fmt_double(load_s / rounds * 1e3, 2)});
    }

    // Overhead: the paper's default configuration with no controller vs
    // one armed at the service cadence. Alternate sides so clock drift
    // hits both equally.
    std::uint64_t off_exp = 0, armed_exp = 0;
    double off_s = 0.0, armed_s = 0.0;
    for (int i = 0; i < graphs; ++i) {
      const SchedContext ctx =
          tight_ctx(seed + 2000 + static_cast<std::uint64_t>(i), machine);
      Params plain;
      plain.rb.max_generated = budget;
      solve_bnb(ctx, plain);  // warm-up: fault in the context and pools
      for (int rep = 0; rep < reps; ++rep) {
        CheckpointController ckpt(scratch, interval);
        Params armed = plain;
        armed.ckpt = &ckpt;
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
  std::remove(scratch.c_str());

  std::printf("\n## snapshot codec and durable save/load\n%s\n",
              codec.to_string().c_str());
  std::printf("## armed-but-idle controller overhead\n%s\n",
              overhead.to_string().c_str());

  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    JsonValue doc = bench_record("micro_checkpoint");
    JsonValue machines = JsonValue::array();
    for (const auto mm : parser.get_int_list("machines"))
      machines.push_back(static_cast<int>(mm));
    doc.set("machines", std::move(machines));
    JsonValue plan = JsonValue::object();
    plan.set("graphs", graphs);
    plan.set("reps", reps);
    plan.set("engine_budget", budget);
    plan.set("interval_ms", interval);
    doc.set("replication", std::move(plan));
    JsonValue tables = JsonValue::object();
    tables.set("codec", table_to_json(codec));
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
