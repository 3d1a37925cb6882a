// The closed-loop solve workloads: SchedContext, then solve_bnb or
// solve_bnb_parallel, one instance at a time, as a library or parabb_solve
// user calls them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/sched/context.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTraceChunk = 32;
constexpr double kWarmupSeconds = 2;

struct SolveSetup {
  std::string corpus_name;  ///< reference key; solve_seq and solve_llb share "seq"
  CorpusSpec corpus;
  parabb::Params params;
  int threads = 1;  ///< > 1 selects the work-stealing parallel engine
};

/// The paper's optimal configuration (BFn / LIFO / U-DBAS / LB1 / U=EDF /
/// BR=0) with a fixed generated-vertex budget in place of TIMELIMIT.
parabb::Params paper_params(std::uint64_t budget) {
  parabb::Params p;
  p.rb.max_generated = budget;
  return p;
}

SolveSetup setup_for(const std::string& workload) {
  SolveSetup s;
  if (workload == "solve_seq" || workload == "solve_llb") {
    s.corpus_name = "seq";
    s.corpus = solve_corpus_spec(workload);
    s.params = paper_params(300'000);
    if (workload == "solve_llb") s.params.select = parabb::SelectRule::kLLB;
  } else if (workload == "solve_par") {
    s.corpus_name = "par";
    s.corpus = solve_corpus_spec(workload);
    s.params = paper_params(500'000);
    s.params.lb = parabb::LowerBound::kLB2;
    s.params.transposition.enabled = true;
    s.threads = 2;
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  return s;
}

struct Solved {
  bool ok = false;  ///< false when the call threw
  bool found = false;
  Time cost = 0;
  bool proved = false;
  Schedule best;
  parabb::SearchStats stats;
  double total_s = 0;
  double ctx_s = 0;     ///< traced solves only
  double search_s = 0;  ///< traced solves only
};

Solved solve_one(const Instance& inst, const SolveSetup& s, int threads,
                 Trace* trace, std::uint64_t id) {
  Solved out;
  try {
    const double t0 = now_s();
    const parabb::SchedContext ctx(inst.graph, inst.machine);
    const double t1 = trace ? now_s() : 0;
    if (threads > 1 || s.threads > 1) {
      parabb::ParallelParams pp;
      pp.base = s.params;
      pp.threads = threads;
      parabb::ParallelResult r = parabb::solve_bnb_parallel(ctx, pp);
      out.found = r.found_solution;
      out.cost = r.best_cost;
      out.proved = r.proved;
      out.best = std::move(r.best);
      out.stats = r.stats;
    } else {
      parabb::SearchResult r = parabb::solve_bnb(ctx, s.params);
      out.found = r.found_solution;
      out.cost = r.best_cost;
      out.proved = r.proved;
      out.best = std::move(r.best);
      out.stats = r.stats;
    }
    const double t2 = now_s();
    out.total_s = t2 - t0;
    if (trace) {
      out.ctx_s = t1 - t0;
      out.search_s = t2 - t1;
      trace->add(id, "solve", "", t0, t2);
      trace->add(id, "sched.context", "solve", t0, t1);
      trace->add(id, "bnb.search", "solve", t1, t2);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "solve %llu failed: %s\n",
                 static_cast<unsigned long long>(id), e.what());
  }
  return out;
}

/// Validity, recomputed cost and reference optima for every answer.
void check_solves(const std::vector<Instance>& corpus,
                  const std::vector<Solved>& solved, const SolveSetup& s,
                  const Reference& ref, Report& report) {
  for (std::size_t i = 0; i < solved.size(); ++i) {
    const Solved& r = solved[i];
    if (!r.ok) continue;  // counted as failed, not as wrong
    const std::string where = s.corpus_name + " instance " + std::to_string(i);
    if (!r.found) {
      report.mismatch(where + ": no schedule returned");
      continue;
    }
    if (std::string e = check_answer(corpus[i], r.best, r.cost); !e.empty()) {
      report.mismatch(where + ": " + e);
    }
    if (std::string e = check_against_reference(ref, s.corpus_name, i, r.cost,
                                                r.proved);
        !e.empty()) {
      report.mismatch(where + ": " + e);
    }
  }
}

/// solve_llb's answers against the solve_seq configuration on the same
/// instances: two proofs must agree, and no incumbent may beat a proof.
void cross_check_lifo(const std::vector<Instance>& corpus,
                      const std::vector<Solved>& solved, Report& report) {
  const SolveSetup lifo = setup_for("solve_seq");
  std::size_t compared = 0;
  for (std::size_t i = 0; i < solved.size(); ++i) {
    const Solved& a = solved[i];
    if (!a.ok || !a.found) continue;
    const Solved b = solve_one(corpus[i], lifo, 1, nullptr, i);
    if (!b.ok || !b.found) continue;
    const std::string where = "seq instance " + std::to_string(i);
    if (a.proved && b.proved && a.cost != b.cost) {
      report.mismatch(where + ": LLB proved " + std::to_string(a.cost) +
                      ", LIFO proved " + std::to_string(b.cost));
    } else if ((a.proved && b.cost < a.cost) || (b.proved && a.cost < b.cost)) {
      report.mismatch(where + ": an incumbent beats a proved optimum");
    }
    compared += a.proved && b.proved;
  }
  std::printf("cross-check: %zu proved optima agree between LLB and LIFO\n",
              compared);
}

std::uint64_t sum_of(const std::vector<Solved>& v,
                     std::uint64_t parabb::SearchStats::*field) {
  std::uint64_t total = 0;
  for (const Solved& r : v) total += r.stats.*field;
  return total;
}

void report_end_to_end(const std::vector<Solved>& solved, double wall_s,
                       double setup_s, Report& report) {
  std::vector<double> lat_ms;
  std::size_t unproved = 0;
  for (const Solved& r : solved) {
    if (!r.ok) continue;
    lat_ms.push_back(r.total_s * 1e3);
    unproved += !r.proved;
  }
  const std::string n = std::to_string(lat_ms.size()) + " solves";
  report.add("setup_s", setup_s, "s",
             "median of " + std::to_string(kSetupReps) + " set-ups");
  report.add("throughput_per_s", static_cast<double>(lat_ms.size()) / wall_s,
             "1/s", n + " in " + std::to_string(wall_s) + " s");
  report.add("latency_ms_p50", percentile(lat_ms, 50), "ms", n);
  report.add("latency_ms_p95", percentile(lat_ms, 95), "ms", n);
  report.add("latency_ms_p99", percentile(lat_ms, 99), "ms", n);
  report.add("vertices_generated",
             static_cast<double>(sum_of(solved, &parabb::SearchStats::generated)),
             "count", "sum over " + n);
  report.add("unproved_ratio",
             static_cast<double>(unproved) /
                 static_cast<double>(report.attempted),
             "ratio", std::to_string(unproved) + " of " +
                          std::to_string(report.attempted) + " attempted");
  report.add("failed_ratio",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted),
             "ratio", std::to_string(report.failed) + " of " +
                          std::to_string(report.attempted) + " attempted");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB", "process high-water mark");
}

void report_layers(const std::vector<Solved>& traced, const SolveSetup& s,
                   const ProbeCosts& probe, Report& report) {
  std::vector<double> ctx_us, search_ms;
  double search_s = 0;
  std::size_t peak_active = 0, peak_bytes = 0;
  for (const Solved& r : traced) {
    if (!r.ok) continue;
    ctx_us.push_back(r.ctx_s * 1e6);
    search_ms.push_back(r.search_s * 1e3);
    search_s += r.search_s;
    peak_active = std::max(peak_active, r.stats.peak_active);
    peak_bytes = std::max(peak_bytes, r.stats.peak_memory_bytes);
  }
  using St = parabb::SearchStats;
  const auto generated = static_cast<double>(sum_of(traced, &St::generated));
  const auto expanded = static_cast<double>(sum_of(traced, &St::expanded));
  const auto activated = static_cast<double>(sum_of(traced, &St::activated));
  const std::string n = std::to_string(search_ms.size()) + " solves";
  report.add("sched.context_us_p50", percentile(ctx_us, 50), "us", n);
  report.add("bnb.search_ms_p50", percentile(search_ms, 50), "ms", n);
  report.add("bnb.search_ms_p95", percentile(search_ms, 95), "ms", n);
  report.add("bnb.generated_per_s", generated / search_s, "1/s",
             "generated over " + std::to_string(search_s) + " s search");
  report.add("bnb.expanded", expanded, "count", "sum over " + n);
  report.add("bnb.activated", activated, "count", "sum over " + n);
  report.add("bnb.pruned_children",
             static_cast<double>(sum_of(traced, &St::pruned_children)),
             "count", "sum over " + n);
  report.add("bnb.pruned_active",
             static_cast<double>(sum_of(traced, &St::pruned_active)), "count",
             "sum over " + n);
  report.add("bnb.activated_ratio", activated / generated, "ratio",
             "of " + std::to_string(generated) + " generated");
  report.add("bnb.peak_active_max", static_cast<double>(peak_active), "count",
             "max over " + n);
  report.add("bnb.peak_memory_mb_max",
             static_cast<double>(peak_bytes) / (1 << 20), "MiB",
             "max over " + n);

  const auto tt_hits = static_cast<double>(sum_of(traced, &St::tt_hits));
  const auto tt_probes =
      tt_hits + static_cast<double>(sum_of(traced, &St::tt_misses));
  const bool tt = s.params.transposition.enabled;
  if (tt) {
    report.add("bnb.tt_hit_ratio", tt_hits / tt_probes, "ratio",
               "of " + std::to_string(tt_probes) + " probes");
    report.add("bnb.tt_evictions",
               static_cast<double>(sum_of(traced, &St::tt_evictions)), "count",
               "sum over " + n);
  }
  if (s.threads > 1) {
    const auto attempted =
        static_cast<double>(sum_of(traced, &St::steals_attempted));
    const auto succeeded =
        static_cast<double>(sum_of(traced, &St::steals_succeeded));
    report.add("bnb.steal_success_ratio", succeeded / attempted, "ratio",
               "of " + std::to_string(attempted) + " attempts");
    report.add("bnb.steals_per_kexp", succeeded / (expanded / 1000.0), "count",
               "per 1000 of " + std::to_string(expanded) + " expanded");
  }

  // How much of search time the probed kernels explain: per generated
  // child one place/evaluate/unplace, per activated vertex one frontier
  // push/pop (the parallel engine's Chase-Lev deques are not probed), per
  // table probe one seen_or_insert, per solve one EDF bound and one table.
  const bool lb2 = s.params.lb == parabb::LowerBound::kLB2;
  const double solves = static_cast<double>(search_ms.size());
  double frontier_ns = 0;
  if (s.threads == 1) {
    frontier_ns = s.params.select == parabb::SelectRule::kLLB
                      ? probe.llb_push_pop_ns
                      : probe.lifo_push_pop_ns;
  }
  const double explained_ns =
      generated * (lb2 ? probe.lb2_eval_ns : probe.lb1_eval_ns) +
      activated * frontier_ns + tt_probes * probe.tt_probe_ns +
      solves * probe.edf_us_p50 * 1e3 +
      (tt ? solves * probe.tt_create_us * 1e3 : 0.0);
  const double base_s = search_s * s.threads;
  report.add("bnb.kernel_coverage", explained_ns * 1e-9 / base_s, "ratio",
             "of " + std::to_string(base_s) + " s search thread-time (" +
                 std::to_string(s.threads) + " threads)");
}

}  // namespace

CorpusSpec solve_corpus_spec(const std::string& workload) {
  CorpusSpec spec;
  if (workload == "solve_par") {
    spec.stream = 2;
    spec.n_min = 14;
    spec.n_max = 18;
    spec.m_first = 3;
    spec.m_count = 2;
  } else {
    spec.stream = 1;  // solve_seq and solve_llb share their corpus
  }
  return spec;
}

std::size_t solve_corpus_size(const std::string& workload, double seconds) {
  // Instances per second of --seconds, sized on a 4-core Xeon VM so that
  // one pass takes about --seconds.
  double per_second = 200;
  if (workload == "solve_llb") per_second = 50;
  if (workload == "solve_par") per_second = 90;
  return std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(per_second * seconds)));
}

void run_solve_workload(const Options& opt, Report& report) {
  const SolveSetup s = setup_for(opt.workload);
  const std::size_t n = solve_corpus_size(opt.workload, opt.seconds);
  const Reference ref(opt.reference, opt.seed);

  std::vector<double> setup_times;
  std::vector<Instance> corpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    corpus = make_corpus(s.corpus, opt.seed, n);
    setup_times.push_back(now_s() - t0);
  }
  std::printf("workload %s: %zu instances, %d thread(s), %s\n",
              opt.workload.c_str(), n, s.threads,
              parabb::describe(s.params).c_str());

  // Untimed warm-up for a fixed time rather than a fixed count: on the VM
  // this was sized on, the first second or two of solving runs 10-20 %
  // slower than the rest, however few instances that is.
  const double warm_until = now_s() + kWarmupSeconds;
  for (std::size_t i = 0; now_s() < warm_until; i = (i + 1) % n) {
    solve_one(corpus[i], s, s.threads, nullptr, i);
  }

  report.attempted = n;
  std::vector<Solved> solved(n);
  if (!opt.trace) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) {
      solved[i] = solve_one(corpus[i], s, s.threads, nullptr, i);
    }
    const double wall = now_s() - t0;
    for (const Solved& r : solved) report.failed += !r.ok;
    report_end_to_end(solved, wall, percentile(setup_times, 50), report);
  } else {
    // Untraced and traced solves of the same instances, alternating which
    // goes first per chunk so drift in machine speed cancels out.
    Trace trace;
    double untraced_s = 0, traced_s = 0;
    for (std::size_t lo = 0; lo < n; lo += kTraceChunk) {
      const std::size_t hi = std::min(n, lo + kTraceChunk);
      const bool traced_first = (lo / kTraceChunk) % 2 == 1;
      for (int pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == traced_first;
        for (std::size_t i = lo; i < hi; ++i) {
          if (traced) {
            solved[i] = solve_one(corpus[i], s, s.threads, &trace, i);
            traced_s += solved[i].total_s;
          } else {
            untraced_s += solve_one(corpus[i], s, s.threads, nullptr, i).total_s;
          }
        }
      }
    }
    for (const Solved& r : solved) report.failed += !r.ok;
    const ProbeCosts probe = run_probes(corpus, opt.seed);
    report_probes(probe, report);
    report_layers(solved, s, probe, report);
    measure_service_layers(opt, report);
    if (s.threads > 1) {
      // The plain single-threaded baseline on the first half of the corpus.
      double one_s = 0, many_s = 0;
      for (std::size_t i = 0; i < n / 2; ++i) {
        one_s += solve_one(corpus[i], s, 1, nullptr, i).total_s;
        many_s += solved[i].total_s;
      }
      report.add("bnb.par_speedup", one_s / many_s, "ratio",
                 "1 thread " + std::to_string(one_s) + " s / " +
                     std::to_string(s.threads) + " threads " +
                     std::to_string(many_s) + " s, " + std::to_string(n / 2) +
                     " solves");
    }
    report.add("bench.trace_overhead_ratio", traced_s / untraced_s - 1, "ratio",
               "traced " + std::to_string(traced_s) + " s / untraced " +
                   std::to_string(untraced_s) + " s");
    trace.report_self_times(report);
    trace.write_jsonl(opt.out_dir + "/spans-" + opt.workload + "-s" +
                      std::to_string(opt.seed) + ".jsonl");
  }

  check_solves(corpus, solved, s, ref, report);
  if (opt.workload == "solve_llb") cross_check_lifo(corpus, solved, report);
}

}  // namespace perfbench
