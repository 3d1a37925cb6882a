#include "common.hpp"

#include <cstdio>

#include "parabb/experiments/plot.hpp"
#include "parabb/support/bench_record.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"

namespace parabb::bench {

void add_common_options(ArgParser& parser,
                        const std::string& default_laxity_base) {
  parser.add_option("machines", "processor counts to sweep", "2,3,4");
  parser.add_option("seed", "base RNG seed", "20250705");
  parser.add_option("min-reps", "replications in the first batch", "8");
  parser.add_option("batch", "replications added per round", "8");
  parser.add_option("max-reps", "replication cap", "24");
  parser.add_option("time-limit", "per-run TIMELIMIT in seconds", "1.0");
  parser.add_option("max-active", "per-run MAXSZAS (vertices)", "250000");
  parser.add_option("laxity", "end-to-end laxity ratio (paper: 1.5)", "1.5");
  parser.add_option("laxity-base",
                    "'path' (per-chain accumulated workload) or 'total' "
                    "(whole-graph workload); each bench defaults to the "
                    "reading that reproduces its paper claim, see "
                    "EXPERIMENTS.md",
                    default_laxity_base);
  parser.add_option("ccr", "communication-to-computation ratio", "1.0");
  parser.add_option("threads", "instance-level worker threads (0=hw)", "0");
  parser.add_option("csv", "write the report table as CSV to this path", "");
  parser.add_option("json",
                    "write a machine-readable BENCH_*.json report (schema "
                    "parabb-bench-v1: workload, replication, every table as "
                    "{header, rows}) to this path",
                    "");
  parser.add_flag("quick", "reduced replication for smoke runs");
}

std::optional<BenchSetup> parse_common(ArgParser& parser, int argc,
                                       const char* const* argv) {
  if (!parser.parse(argc, argv)) return std::nullopt;

  BenchSetup setup;
  ExperimentConfig& cfg = setup.cfg;
  cfg.workload = paper_config();
  cfg.workload.ccr = parser.get_double("ccr");
  cfg.slicing.laxity = parser.get_double("laxity");
  const std::string base = parser.get_string("laxity-base");
  if (base == "total") {
    cfg.slicing.base = LaxityBase::kTotalWork;
  } else if (base == "path") {
    cfg.slicing.base = LaxityBase::kPathWork;
  } else {
    throw std::runtime_error("--laxity-base must be 'total' or 'path'");
  }

  cfg.machine_sizes.clear();
  for (const auto m : parser.get_int_list("machines"))
    cfg.machine_sizes.push_back(static_cast<int>(m));
  cfg.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  cfg.min_reps = static_cast<int>(parser.get_int("min-reps"));
  cfg.batch_reps = static_cast<int>(parser.get_int("batch"));
  cfg.max_reps = static_cast<int>(parser.get_int("max-reps"));
  cfg.threads = static_cast<std::size_t>(parser.get_int("threads"));
  setup.time_limit_s = parser.get_double("time-limit");
  setup.max_active =
      static_cast<std::size_t>(parser.get_int("max-active"));
  setup.csv = parser.get_string("csv");
  setup.json = parser.get_string("json");
  setup.quick = parser.has_flag("quick");
  if (setup.quick) {
    cfg.min_reps = 4;
    cfg.batch_reps = 4;
    cfg.max_reps = 8;
    setup.time_limit_s = std::min(setup.time_limit_s, 0.25);
  }
  return setup;
}

Params base_params(const BenchSetup& setup) {
  Params p;  // BFn / LIFO / U-DBAS / LB1 / EDF / BR=0
  p.rb.time_limit_s = setup.time_limit_s;
  p.rb.max_active = setup.max_active;
  return p;
}

AlgorithmVariant bnb_variant(std::string label, const Params& params) {
  AlgorithmVariant v;
  v.label = std::move(label);
  v.kind = AlgorithmVariant::Kind::kBnB;
  v.params = params;
  return v;
}

AlgorithmVariant edf_variant() {
  AlgorithmVariant v;
  v.label = "EDF (greedy)";
  v.kind = AlgorithmVariant::Kind::kEdf;
  return v;
}

void run_and_report(const std::string& bench_id,
                    const std::string& expected_shape, const BenchSetup& setup,
                    std::size_t ratio_reference) {
  std::printf("# %s\n", bench_id.c_str());
  std::printf("workload: %d-%d tasks, depth %d-%d, CCR %.2f, laxity %.2f; "
              "machines ",
              setup.cfg.workload.n_min, setup.cfg.workload.n_max,
              setup.cfg.workload.depth_min, setup.cfg.workload.depth_max,
              setup.cfg.workload.ccr, setup.cfg.slicing.laxity);
  for (const int m : setup.cfg.machine_sizes) std::printf("%d ", m);
  std::printf("\nreplication: %d..%d (CI stop: vertices 90%%/±10%%, "
              "lateness 95%%/±0.5%%); per-run TIMELIMIT %.2fs, MAXSZAS %zu\n",
              setup.cfg.min_reps, setup.cfg.max_reps, setup.time_limit_s,
              setup.max_active);
  std::printf("expected shape: %s\n", expected_shape.c_str());
  std::fflush(stdout);

  const ExperimentResult result = run_experiment(setup.cfg);
  const TextTable report = make_report_table(setup.cfg, result);
  emit(bench_id + " — results", report, setup.csv);
  if (setup.cfg.machine_sizes.size() > 1) {
    std::printf("\n%s",
                render_paper_figure(setup.cfg, result, bench_id).c_str());
  }
  TextTable ratios;
  if (setup.cfg.variants.size() > 1) {
    ratios = make_ratio_table(setup.cfg, result, ratio_reference);
    emit(bench_id + " — ratios vs " +
             setup.cfg.variants[ratio_reference].label,
         ratios);
  }
  if (!setup.json.empty()) {
    JsonValue doc = bench_record(bench_id);
    JsonValue workload = JsonValue::object();
    workload.set("n_min", setup.cfg.workload.n_min);
    workload.set("n_max", setup.cfg.workload.n_max);
    workload.set("depth_min", setup.cfg.workload.depth_min);
    workload.set("depth_max", setup.cfg.workload.depth_max);
    workload.set("ccr", setup.cfg.workload.ccr);
    workload.set("laxity", setup.cfg.slicing.laxity);
    doc.set("workload", std::move(workload));
    JsonValue machines = JsonValue::array();
    for (const int m : setup.cfg.machine_sizes) machines.push_back(m);
    doc.set("machines", std::move(machines));
    JsonValue replication = JsonValue::object();
    replication.set("min_reps", setup.cfg.min_reps);
    replication.set("max_reps", setup.cfg.max_reps);
    replication.set("reps_used", result.reps_used);
    replication.set("converged", result.converged);
    replication.set("time_limit_s", setup.time_limit_s);
    doc.set("replication", std::move(replication));
    JsonValue tables = JsonValue::object();
    tables.set("results", table_to_json(report));
    if (setup.cfg.variants.size() > 1) {
      tables.set("ratios", table_to_json(ratios));
    }
    doc.set("tables", std::move(tables));
    write_text_file(setup.json, doc.dump() + "\n");
    std::printf("json report written to %s\n", setup.json.c_str());
  }
  std::printf("replications used: %d (%s); excluded runs are counted per "
              "row above\n\n",
              result.reps_used,
              result.converged ? "CI targets met"
                               : "replication cap reached first");
  std::fflush(stdout);
}

}  // namespace parabb::bench
