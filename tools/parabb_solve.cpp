// parabb_solve — command-line front end to the ParaBB scheduler.
//
// Reads a task graph in TGF format (see taskgraph/io.hpp), optionally
// assigns deadlines by slicing, runs the configured algorithm, and prints
// the schedule (with optional Gantt chart and DOT export).
//
// A budget-limited or Ctrl-C'd B&B run is *anytime*: it reports the best
// incumbent found so far with outcome `feasible_timeout` / `cancelled`
// instead of dying empty-handed.
//
//   $ parabb_solve graph.tgf --procs 3 --select lifo --branch bfn
//   $ parabb_solve graph.tgf --algo edf --gantt
//   $ parabb_solve graph.tgf --slice 1.5 --br 0.1 --time-limit 10
//   $ parabb_solve graph.tgf --max-generated 100000
//   $ parabb_solve graph.tgf --checkpoint run.ckpt --checkpoint-interval 1000
//   $ parabb_solve graph.tgf --resume run.ckpt --checkpoint run.ckpt
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>

#include "parabb/bnb/cancel.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/sched/etf.hpp"
#include "parabb/sched/improve.hpp"
#include "parabb/sched/list.hpp"
#include "parabb/sched/schedule_io.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/service/job.hpp"
#include "parabb/service/protocol.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/bench_record.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"
#include "parabb/taskgraph/io.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"

namespace {

using namespace parabb;

// SIGINT trips the cooperative cancellation token; the engine unwinds at
// its next poll and the run finishes normally with its best incumbent.
// CancelToken::cancel() is a relaxed atomic store: async-signal-safe.
CancelToken g_interrupt;

// SIGTERM, with --checkpoint armed, means "snapshot, then die": the
// handler demands an immediate write and the engine winds down (outcome
// `cancelled`) only after the state is durably on disk. Without a
// checkpoint it degrades to plain cancellation. Both paths are relaxed
// atomic stores: async-signal-safe.
CheckpointController* g_ckpt = nullptr;

extern "C" void handle_sigint(int) { g_interrupt.cancel(); }
extern "C" void handle_sigterm(int) {
  if (g_ckpt != nullptr) {
    g_ckpt->request_now(/*stop_after=*/true);
  } else {
    g_interrupt.cancel();
  }
}

/// parabb-bench-v1 record for --stats-json: one metric/value table with
/// every SearchStats counter (driven by the bnb/search_obs field table,
/// so new counters show up here automatically) plus the run verdict.
/// Consumable by tools/bench_check.py --structure-only.
void write_stats_json(const std::string& path, const std::string& algo,
                      const SearchStats& stats, JobOutcome outcome,
                      Time cost, bool proved) {
  TextTable t;
  t.set_header({"metric", "value"});
  for (const SearchStatsField& f : kSearchStatsFields) {
    t.add_row({f.name, std::to_string(stats.*(f.member))});
  }
  t.add_row({"peak_active", std::to_string(stats.peak_active)});
  t.add_row({"peak_memory_bytes", std::to_string(stats.peak_memory_bytes)});
  t.add_row({"seconds", fmt_double(stats.seconds, 6)});
  t.add_row({"cost", std::to_string(cost)});
  t.add_row({"outcome", to_string(outcome)});
  t.add_row({"proved", proved ? "1" : "0"});
  t.add_row({"algo", algo});

  JsonValue doc = bench_record("parabb_solve");
  JsonValue tables = JsonValue::object();
  tables.set("solve", table_to_json(t));
  doc.set("tables", std::move(tables));
  write_text_file(path, doc.dump() + "\n");
}

void print_schedule(const Schedule& schedule, const TaskGraph& graph) {
  TextTable table;
  table.set_header({"task", "proc", "start", "finish", "deadline",
                    "lateness"});
  for (TaskId t = 0; t < schedule.task_count(); ++t) {
    const ScheduledTask& e = schedule.entry(t);
    const Time deadline = graph.task(t).abs_deadline();
    table.add_row({graph.task(t).name, std::to_string(e.proc),
                   std::to_string(e.start), std::to_string(e.finish),
                   std::to_string(deadline),
                   std::to_string(e.finish - deadline)});
  }
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("parabb_solve",
                   "Minimize maximum task lateness of a TGF task graph");
  parser.add_option("procs", "number of identical processors", "2");
  parser.add_option("comm", "nominal delay per data item per hop", "1");
  parser.add_option("topology",
                    "interconnect: bus | ring | line | mesh<RxC> "
                    "(e.g. mesh2x2)",
                    "bus");
  parser.add_option("algo",
                    "bnb | bnb-parallel | edf | etf | hlfet | edf+improve",
                    "bnb");
  parser.add_option("select", "B&B selection rule: lifo | llb | fifo",
                    "lifo");
  parser.add_option("branch", "B&B branching rule: bfn | bf1 | df", "bfn");
  parser.add_option("lb", "lower bound: lb0 | lb1 | lb2", "lb1");
  parser.add_option("br", "inaccuracy limit BR (0 = exact)", "0");
  parser.add_option("ub", "initial upper bound: edf | inf | <number>",
                    "edf");
  parser.add_option("time-limit", "TIMELIMIT seconds (0 = unlimited)", "0");
  parser.add_option("max-active", "MAXSZAS (0 = unlimited)", "0");
  parser.add_option("max-generated",
                    "budget: generated-vertex cap (0 = unlimited)", "0");
  parser.add_option("max-memory",
                    "budget: active-set pool bytes (0 = unlimited)", "0");
  parser.add_option("threads", "workers for bnb-parallel (0 = hw)", "0");
  parser.add_option("workers",
                    "alias for --threads; takes precedence when nonzero",
                    "0");
  parser.add_option("slice",
                    "assign deadlines by slicing with this laxity ratio "
                    "before solving (0 = keep the file's windows)",
                    "0");
  parser.add_option("slice-base", "laxity base: path | total", "path");
  parser.add_option("dot", "write Graphviz DOT of the graph here", "");
  parser.add_option("out", "write the schedule (text format) here", "");
  parser.add_option("certify",
                    "write an optimality certificate here (bnb algos only; "
                    "check it with parabb_verify)",
                    "");
  parser.add_option("stats-json",
                    "write search stats as a parabb-bench-v1 record here "
                    "(bnb algos only)",
                    "");
  parser.add_option("checkpoint",
                    "write crash-safe search snapshots here (bnb algos; "
                    "SIGTERM = snapshot then exit)",
                    "");
  parser.add_option("checkpoint-interval",
                    "snapshot cadence in ms (0 = only on SIGTERM)", "1000");
  parser.add_option("resume",
                    "seed the search from this snapshot (same graph and "
                    "parameters required)",
                    "");
  parser.add_option("inject-faults",
                    "run under a seeded fault plan (robustness testing; "
                    "empty = off)",
                    "");
  parser.add_flag("degrade",
                  "enable the graceful-degradation ladder (effective with "
                  "--max-memory)");
  parser.add_flag("gantt", "print an ASCII Gantt chart");
  parser.add_flag("quiet", "print only the final cost");

  try {
    if (!parser.parse(argc, argv)) return 0;
    if (parser.positional().size() != 1) {
      std::fprintf(stderr, "usage: parabb_solve <graph.tgf> [options]\n");
      return 2;
    }

    TaskGraph graph = load_tgf(parser.positional()[0]);
    if (const double laxity = parser.get_double("slice"); laxity > 0) {
      SlicingConfig cfg;
      cfg.laxity = laxity;
      cfg.base = parser.get_string("slice-base") == "total"
                     ? LaxityBase::kTotalWork
                     : LaxityBase::kPathWork;
      const SlicingReport rep = assign_deadlines_slicing(graph, cfg);
      if (!parser.has_flag("quiet")) {
        std::printf("sliced deadlines: e2e %lld, scale %.3f\n",
                    static_cast<long long>(rep.e2e_deadline), rep.scale);
      }
    }
    if (const std::string dot = parser.get_string("dot"); !dot.empty()) {
      write_text_file(dot, to_dot(graph));
    }

    const Machine machine =
        machine_from_spec(static_cast<int>(parser.get_int("procs")),
                          parser.get_int("comm"),
                          parser.get_string("topology"));
    const SchedContext ctx(graph, machine);

    Schedule schedule;
    Time cost = 0;
    int exit_code = 0;  // bnb algos: exit_code_for(outcome)
    std::string status;
    const std::string algo = parser.get_string("algo");
    if (!parser.get_string("stats-json").empty() && algo != "bnb" &&
        algo != "bnb-parallel") {
      std::fprintf(stderr,
                   "--stats-json requires --algo bnb or bnb-parallel\n");
      return 2;
    }
    if (algo == "edf") {
      const EdfResult r = schedule_edf(ctx);
      schedule = r.schedule;
      cost = r.max_lateness;
      status = "greedy EDF";
    } else if (algo == "etf") {
      const EtfResult r = schedule_etf(ctx);
      schedule = r.schedule;
      cost = r.max_lateness;
      status = "greedy ETF";
    } else if (algo == "hlfet") {
      const ListResult r = schedule_hlfet(ctx);
      schedule = r.schedule;
      cost = r.max_lateness;
      status = "HLFET list";
    } else if (algo == "edf+improve") {
      const ImproveResult r =
          improve_schedule(ctx, schedule_edf(ctx).schedule);
      schedule = r.schedule;
      cost = r.max_lateness;
      status = "EDF + local search (" + std::to_string(r.moves_applied) +
               " moves)";
    } else if (algo == "bnb" || algo == "bnb-parallel") {
      Params params;
      params.select = parse_select_rule(parser.get_string("select"));
      params.branch = parse_branch_rule(parser.get_string("branch"));
      params.lb = parse_lower_bound(parser.get_string("lb"));
      params.br = parser.get_double("br");
      if (const std::string ub = parser.get_string("ub"); ub == "inf") {
        params.ub = UpperBoundInit::kInfinite;
      } else if (ub != "edf") {
        params.ub = UpperBoundInit::kExplicit;
        params.explicit_ub = static_cast<Time>(std::stoll(ub));
      }
      if (const auto ma = parser.get_int("max-active"); ma > 0)
        params.rb.max_active = static_cast<std::size_t>(ma);

      // The budget rides the same path the solver service uses: resource
      // bounds plus a cancellation token, so an expired or interrupted
      // run still reports its best incumbent.
      Budget budget;
      budget.wall_ms = parser.get_double("time-limit") * 1000.0;
      budget.max_generated =
          static_cast<std::uint64_t>(parser.get_int("max-generated"));
      budget.max_active_bytes =
          static_cast<std::size_t>(parser.get_int("max-memory"));
      apply_budget(params, budget, &g_interrupt);
      params.degrade = parser.has_flag("degrade");
      std::optional<FaultInjector> injector;
      if (const std::string fs = parser.get_string("inject-faults");
          !fs.empty()) {
        injector.emplace(
            FaultPlan::random(static_cast<std::uint64_t>(std::stoull(fs))));
        params.faults = &*injector;
        if (!parser.has_flag("quiet")) {
          std::fprintf(stderr, "fault plan: %s\n",
                       injector->plan().describe().c_str());
        }
      }
      const std::string cert_path = parser.get_string("certify");
      CertificateBuilder builder;
      if (!cert_path.empty()) params.certify = &builder;
      std::optional<CheckpointController> ckpt;
      if (const std::string cp = parser.get_string("checkpoint");
          !cp.empty()) {
        ckpt.emplace(cp, parser.get_double("checkpoint-interval"));
        params.ckpt = &*ckpt;
        g_ckpt = &*ckpt;
      }
      SearchSnapshot resume_snap;
      if (const std::string rp = parser.get_string("resume"); !rp.empty()) {
        resume_snap = load_snapshot(rp);  // SnapshotError -> exit 2
        params.resume = &resume_snap;
      }
      std::signal(SIGINT, handle_sigint);
      std::signal(SIGTERM, handle_sigterm);

      SearchResult r;
      std::string engine_info;
      if (algo == "bnb") {
        r = solve_bnb(ctx, params);
        engine_info = std::to_string(r.stats.generated) + " vertices";
      } else {
        ParallelParams pp;
        pp.base = params;
        const auto workers = parser.get_int("workers");
        pp.threads = static_cast<int>(workers != 0 ? workers
                                                   : parser.get_int("threads"));
        ParallelResult pr = solve_bnb_parallel(ctx, pp);
        engine_info = std::to_string(pr.threads_used) + " threads";
        r = std::move(pr);
      }
      schedule = std::move(r.best);
      cost = r.best_cost;
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      g_ckpt = nullptr;

      // Saved before the found check: an infeasible run's certificate is
      // still meaningful (it records why the search came up empty).
      if (!cert_path.empty()) {
        save_certificate(builder.take(), graph, cert_path);
      }

      const JobOutcome outcome = outcome_of(r.reason, r.found_solution);
      // Stable exit-code taxonomy (docs/robustness.md): 0 optimal,
      // 3 feasible_timeout, 4 cancelled, 5 infeasible; 2 stays the
      // usage/runtime-error code. Scripts branch on the outcome without
      // parsing output.
      exit_code = exit_code_for(outcome);
      // Written before the found check so an infeasible or interrupted
      // run still leaves its effort record behind.
      if (const std::string sp = parser.get_string("stats-json");
          !sp.empty()) {
        write_stats_json(sp, algo, r.stats, outcome, cost, r.proved);
      }
      if (!r.found_solution) {
        std::fprintf(stderr, "no solution found (outcome: %s)\n",
                     to_string(outcome).c_str());
        return exit_code;
      }
      status = describe(params) + (r.proved ? " [proved]" : " [heuristic]") +
               ", " + engine_info + ", outcome: " + to_string(outcome);
    } else {
      std::fprintf(stderr, "unknown --algo: %s\n", algo.c_str());
      return 2;
    }

    if (const std::string out = parser.get_string("out"); !out.empty()) {
      save_schedule(schedule, graph, out);
    }
    if (parser.has_flag("quiet")) {
      std::printf("%lld\n", static_cast<long long>(cost));
      return exit_code;
    }
    std::printf("algorithm: %s\nmachine:   %s\nmax task lateness: %lld\n\n",
                status.c_str(), machine.describe().c_str(),
                static_cast<long long>(cost));
    print_schedule(schedule, graph);
    const ValidationReport rep = validate_schedule(schedule, graph, machine);
    std::printf("\nstructurally sound: %s; deadlines met: %s\n",
                rep.structurally_sound ? "yes" : "no",
                rep.deadlines_met ? "yes" : "no");
    if (parser.has_flag("gantt")) {
      std::printf("\n%s", to_gantt(schedule, graph, machine.procs).c_str());
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parabb_solve: %s\n", e.what());
    return 2;
  }
}
