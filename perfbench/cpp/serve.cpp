// The serve workload: request lines go through request_from_json,
// SolverService::submit and response_to_json, with the service configured
// as parabb_serve configures it, driven by closed-loop clients.
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/obs/span.hpp"
#include "parabb/service/protocol.hpp"
#include "parabb/service/service.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/rng.hpp"
#include "parabb/taskgraph/io.hpp"

namespace perfbench {
namespace {

using parabb::JsonValue;

// Closed loop: each client sends its next request when the previous
// response has been serialized. Two clients per worker keep one request
// queued behind each running one, so no worker idles between requests.
constexpr int kClients = 4;
constexpr double kRequestsPerS = 1000;  ///< requests per second of --seconds
constexpr int kWorkers = 2;
constexpr std::size_t kCacheEntries = 256;
constexpr std::uint64_t kBudget = 100'000;
// One request in kResubmitEvery repeats one of the kRecentBodies latest
// bodies (mostly a cache hit); one body in kCertifyEvery asks for a
// certificate, one in kTTEvery for the table.
constexpr std::size_t kResubmitEvery = 5;
constexpr std::size_t kRecentBodies = 128;
constexpr std::size_t kCertifyEvery = 128;
constexpr std::size_t kTTEvery = 4;
constexpr std::size_t kWarmupRequests = 16;

/// A distinct request body; body b always carries graph b of the corpus.
struct Body {
  bool certify = false;
  bool tt = false;
};

struct Plan {
  std::vector<Instance> graphs;
  std::vector<Body> bodies;
  std::vector<std::size_t> body_of;  ///< per request
  std::vector<std::string> lines;    ///< per request
};

std::string request_line(const std::string& id, const Instance& inst,
                         const Body& body) {
  JsonValue o = JsonValue::object();
  o.set("id", id);
  o.set("graph", parabb::to_tgf(inst.graph));
  o.set("procs", inst.machine.procs);
  if (body.tt) o.set("tt", true);
  if (body.certify) o.set("certify", true);
  JsonValue budget = JsonValue::object();
  budget.set("max_generated", kBudget);
  o.set("budget", std::move(budget));
  return o.dump();
}

/// True for one seeded position in every block of `block` indices, so a
/// share is exact per block instead of binomial over the whole run.
class BlockPick {
 public:
  BlockPick(std::size_t block, parabb::Rng& rng) : block_(block), rng_(rng) {}
  bool next() {
    if (i_ % block_ == 0) pick_ = i_ + rng_.index(block_);
    return i_++ == pick_;
  }

 private:
  std::size_t block_;
  parabb::Rng& rng_;
  std::size_t i_ = 0;
  std::size_t pick_ = 0;
};

Plan make_plan(std::uint64_t seed, std::size_t n) {
  Plan plan;
  parabb::Rng rng(parabb::derive_seed(seed, 0x6d6978));
  BlockPick resubmit(kResubmitEvery, rng), certify(kCertifyEvery, rng),
      tt(kTTEvery, rng);
  for (std::size_t i = 0; i < n; ++i) {
    if (resubmit.next() && !plan.bodies.empty()) {
      const std::size_t recent = std::min(kRecentBodies, plan.bodies.size());
      plan.body_of.push_back(plan.bodies.size() - 1 - rng.index(recent));
    } else {
      Body b;
      b.certify = certify.next();
      b.tt = tt.next();
      plan.body_of.push_back(plan.bodies.size());
      plan.bodies.push_back(b);
    }
  }
  plan.graphs = make_corpus(serve_corpus_spec(), seed, plan.bodies.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t b = plan.body_of[i];
    plan.lines.push_back(
        request_line("r" + std::to_string(i), plan.graphs[b], plan.bodies[b]));
  }
  return plan;
}

/// The service and the sinks parabb_serve attaches to it; the sinks are
/// declared first so they outlive the service.
struct Rig {
  parabb::MetricsRegistry registry;
  parabb::SpanLog spans;
  std::unique_ptr<parabb::SolverService> service;

  Rig() {
    parabb::ServiceConfig config;
    config.workers = kWorkers;
    config.cache_entries = kCacheEntries;
    config.metrics = &registry;
    config.spans = &spans;
    service = std::make_unique<parabb::SolverService>(config);
  }
};

/// What the benchmark saw of one request; times are on the SpanLog clock.
struct Seen {
  double send_s = 0, parsed_s = 0, submitted_s = 0;
  double respond_start_s = 0, respond_end_s = 0;
  bool responded = false;
  bool refused = false;  ///< parse error or load shedding
  bool error = false;    ///< the service answered with an error
  bool cached = false;
  bool proved = false;
  std::uint64_t generated = 0;
  std::size_t cert_bytes = 0;
  std::string line;  ///< the serialized response
};

struct Loop {
  std::vector<Seen> seen;
  double start_s = 0;
  double wall_s = 0;  ///< loop start to the last response
  parabb::MetricsSnapshot before, after;
};

/// Sends every request through kClients closed-loop clients and waits for
/// all responses. An untraced loop reads the clock only at send and
/// response time; a traced one also around parsing, submission and
/// serialization.
Loop run_loop(const Plan& plan, Rig& rig, bool traced) {
  // Warm-up on graphs outside the corpus, so none of them is a cache hit
  // for a timed request.
  CorpusSpec warm_spec = serve_corpus_spec();
  warm_spec.stream += 100;
  const std::vector<Instance> warm = make_corpus(warm_spec, 0, kWarmupRequests);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    rig.service->submit(parabb::request_from_json(
        request_line("w" + std::to_string(i), warm[i], Body{})));
  }
  rig.service->wait_all();

  Loop loop;
  loop.before = rig.registry.snapshot();
  const std::size_t n = plan.lines.size();
  loop.seen.resize(n);
  parabb::SpanLog& clock = rig.spans;
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      Seen& s = loop.seen[i];
      // Shared with the callback, which may still be returning from
      // set_value() when this client moves on.
      auto done = std::make_shared<std::promise<void>>();
      std::future<void> responded = done->get_future();
      s.send_s = clock.now();
      try {
        parabb::JobRequest req = parabb::request_from_json(plan.lines[i]);
        if (traced) s.parsed_s = clock.now();
        auto graph = std::make_shared<const TaskGraph>(req.graph);
        if (traced) s.submitted_s = clock.now();
        rig.service->submit(
            std::move(req),
            [&s, &clock, graph, traced, done](const parabb::JobResult& r) {
              if (traced) s.respond_start_s = clock.now();
              s.line = parabb::response_to_json(r, *graph);
              s.respond_end_s = clock.now();
              s.responded = true;
              s.error = !r.error.empty();
              s.cached = r.cached;
              s.proved = s.error ? false : r.proved;
              s.generated = r.generated;
              s.cert_bytes = r.certificate.size();
              done->set_value();
            });
        responded.wait();
      } catch (const std::exception& e) {
        s.refused = true;
        std::fprintf(stderr, "request r%zu refused: %s\n", i, e.what());
      }
    }
  };
  loop.start_s = clock.now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  rig.service->wait_all();
  double last = loop.start_s;
  for (const Seen& s : loop.seen) last = std::max(last, s.respond_end_s);
  loop.wall_s = last - loop.start_s;
  loop.after = rig.registry.snapshot();
  return loop;
}

std::uint64_t counter_delta(const Loop& loop, const std::string& name) {
  const auto* a = loop.after.find_counter(name);
  const auto* b = loop.before.find_counter(name);
  return (a ? a->value : 0) - (b ? b->value : 0);
}

double gauge_of(const Loop& loop, const std::string& name) {
  const auto* g = loop.after.find_gauge(name);
  return g ? static_cast<double>(g->value) : 0.0;
}

/// Checks one serialized response against its instance. Empty when it is
/// a valid answer whose cost is the schedule's recomputed lateness.
std::string check_response(const Instance& inst, const JsonValue& doc) {
  if (const JsonValue* err = doc.find("error")) {
    return "error response: " + err->as_string();
  }
  const JsonValue* cost = doc.find("cost");
  const JsonValue* sched = doc.find("schedule");
  if (!cost || !sched) return "response carries no schedule";
  std::map<std::string, parabb::TaskId> ids;
  for (parabb::TaskId t = 0; t < inst.graph.task_count(); ++t) {
    ids[inst.graph.task(t).name] = t;
  }
  std::vector<parabb::ScheduledTask> entries;
  try {
    for (const JsonValue& e : sched->items()) {
      const JsonValue* task = e.find("task");
      const JsonValue* proc = e.find("proc");
      const JsonValue* start = e.find("start");
      const JsonValue* finish = e.find("finish");
      if (!task || !proc || !start || !finish) {
        return "schedule entry lacks task, proc, start or finish";
      }
      const auto it = ids.find(task->as_string());
      if (it == ids.end()) return "schedule names an unknown task";
      entries.push_back({it->second, static_cast<parabb::ProcId>(proc->as_int()),
                         start->as_int(), finish->as_int()});
    }
    const Schedule s = Schedule::from_entries(inst.graph.task_count(),
                                              std::move(entries));
    return check_answer(inst, s, cost->as_int());
  } catch (const std::exception& e) {
    return std::string("malformed schedule: ") + e.what();
  }
}

/// The answer part of a response: what a cache hit must reproduce.
std::string answer_of(JsonValue doc) {
  JsonValue out = JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "id" && key != "cached" && key != "seconds") out.set(key, value);
  }
  return out.dump();
}

struct CertStats {
  std::vector<double> check_ms;
  std::uint64_t replayed = 0;
};

void check_loop(const Plan& plan, const Loop& loop, const Reference& ref,
                Report& report, CertStats& certs) {
  std::vector<std::string> first_answer(plan.bodies.size());
  std::vector<std::size_t> first_request(plan.bodies.size());
  for (std::size_t i = 0; i < loop.seen.size(); ++i) {
    const Seen& s = loop.seen[i];
    if (s.refused || !s.responded) continue;  // counted as failed
    const std::size_t b = plan.body_of[i];
    const Instance& inst = plan.graphs[b];
    const std::string where = "request r" + std::to_string(i);
    JsonValue doc;
    try {
      doc = JsonValue::parse(s.line);
    } catch (const std::exception& e) {
      report.mismatch(where + ": unparseable response: " + e.what());
      continue;
    }
    if (doc.find("error")) continue;  // counted as failed
    if (std::string e = check_response(inst, doc); !e.empty()) {
      report.mismatch(where + ": " + e);
      continue;
    }
    const Time cost = doc.find("cost")->as_int();
    const JsonValue* proved_field = doc.find("proved");
    const bool proved = proved_field && proved_field->as_bool();
    if (std::string e = check_against_reference(ref, "serve", b, cost, proved);
        !e.empty()) {
      report.mismatch(where + ": " + e);
    }
    // Every answer to one body must be the same, cached or solved again.
    const std::string answer = answer_of(doc);
    if (first_answer[b].empty()) {
      first_answer[b] = answer;
      first_request[b] = i;
      const JsonValue* cert = doc.find("certificate");
      if (plan.bodies[b].certify && !cert) {
        report.mismatch(where + ": certify requested, no certificate");
      } else if (const JsonValue* outcome = doc.find("outcome");
                 cert && outcome && outcome->as_string() == "optimal") {
        const CertCheck c = check_certificate(inst, cert->as_string());
        certs.check_ms.push_back(c.seconds * 1e3);
        certs.replayed += c.replayed;
        if (!c.certified) {
          report.mismatch(where + ": certificate not CERTIFIED: " + c.error);
        }
      }
    } else if (answer != first_answer[b]) {
      report.mismatch(where + ": answer differs from r" +
                      std::to_string(first_request[b]) +
                      " for the same request");
    }
  }
}

void tally(const Loop& loop, Report& report) {
  report.attempted = loop.seen.size();
  report.failed = 0;
  for (const Seen& s : loop.seen) {
    report.failed += s.refused || !s.responded || s.error;
  }
}

void report_end_to_end(const Loop& loop, double setup_s, Report& report) {
  std::vector<double> lat_ms;
  std::size_t unproved = 0;
  double generated = 0;
  for (const Seen& s : loop.seen) {
    unproved += !s.proved;
    if (!s.responded) continue;
    lat_ms.push_back((s.respond_end_s - s.send_s) * 1e3);
    if (!s.cached) generated += static_cast<double>(s.generated);
  }
  const std::string n = std::to_string(lat_ms.size()) + " responses";
  report.add("setup_s", setup_s, "s",
             "median of " + std::to_string(kSetupReps) + " set-ups");
  report.add("throughput_per_s",
             static_cast<double>(lat_ms.size()) / loop.wall_s, "1/s",
             n + " in " + std::to_string(loop.wall_s) + " s from " +
                 std::to_string(kClients) + " closed-loop clients");
  report.add("latency_ms_p50", percentile(lat_ms, 50), "ms", n);
  report.add("latency_ms_p95", percentile(lat_ms, 95), "ms", n);
  report.add("latency_ms_p99", percentile(lat_ms, 99), "ms", n);
  report.add("vertices_generated", generated, "count",
             "sum over solved responses; cache hits add 0");
  const auto attempted = static_cast<double>(report.attempted);
  report.add("unproved_ratio", static_cast<double>(unproved) / attempted,
             "ratio", std::to_string(unproved) + " of " +
                          std::to_string(report.attempted) + " attempted");
  report.add("failed_ratio", static_cast<double>(report.failed) / attempted,
             "ratio", std::to_string(report.failed) + " of " +
                          std::to_string(report.attempted) + " attempted");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB",
             "process high-water mark, service cache and held responses");
}

void report_layers(const Plan& plan, const Loop& loop, const Rig& rig,
                   const CertStats& certs, const ProbeCosts& probe,
                   Trace& trace, Report& report) {
  // Service spans carry the request id as their tag ("r<i>"; warm-up
  // requests are "w<i>").
  std::vector<double> ctx_start(loop.seen.size(), -1);
  std::vector<double> ctx_us, search_ms, cert_ms;
  double busy_s = 0, search_s = 0;
  for (const parabb::SpanRecord& r : rig.spans.spans()) {
    if (r.tag.empty() || r.tag[0] != 'r') continue;
    const std::size_t i = std::stoul(r.tag.substr(1));
    busy_s += r.dur_s;
    if (r.name == "context") {
      ctx_start[i] = r.start_s;
      ctx_us.push_back(r.dur_s * 1e6);
    } else if (r.name == "search") {
      search_ms.push_back(r.dur_s * 1e3);
      search_s += r.dur_s;
    } else if (r.name == "certify") {
      cert_ms.push_back(r.dur_s * 1e3);
    }
    trace.add(i, r.name, "request", r.start_s, r.start_s + r.dur_s);
  }
  std::vector<double> parse_us, respond_us, queue_ms, cert_kb;
  std::size_t cached = 0, responses = 0, tt_solves = 0;
  double generated = 0;
  for (std::size_t i = 0; i < loop.seen.size(); ++i) {
    const Seen& s = loop.seen[i];
    if (s.refused) continue;
    parse_us.push_back((s.parsed_s - s.send_s) * 1e6);
    trace.add(i, "service.parse", "request", s.send_s, s.parsed_s);
    if (!s.responded) continue;
    ++responses;
    trace.add(i, "request", "", s.send_s, s.respond_end_s);
    trace.add(i, "service.respond", "request", s.respond_start_s,
              s.respond_end_s);
    respond_us.push_back((s.respond_end_s - s.respond_start_s) * 1e6);
    if (s.cached) {
      ++cached;
      trace.add(i, "service.cache_hit", "request", s.submitted_s,
                s.respond_start_s);
      continue;
    }
    generated += static_cast<double>(s.generated);
    tt_solves += plan.bodies[plan.body_of[i]].tt;
    if (s.cert_bytes > 0) {
      cert_kb.push_back(static_cast<double>(s.cert_bytes) / 1024.0);
    }
    if (ctx_start[i] >= 0) {
      queue_ms.push_back((ctx_start[i] - s.submitted_s) * 1e3);
      trace.add(i, "service.queue", "request", s.submitted_s, ctx_start[i]);
    }
  }
  const std::string n = std::to_string(responses) + " responses";
  const std::string solved = std::to_string(search_ms.size()) + " solves";
  report.add("service.parse_us_p50", percentile(parse_us, 50), "us",
             std::to_string(parse_us.size()) + " requests");
  report.add("service.respond_us_p50", percentile(respond_us, 50), "us", n);
  report.add("service.queue_ms_p50", percentile(queue_ms, 50), "ms", solved);
  report.add("service.queue_ms_p99", percentile(queue_ms, 99), "ms", solved);
  report.add("service.worker_busy_ratio", busy_s / (kWorkers * loop.wall_s),
             "ratio",
             std::to_string(busy_s) + " s in jobs / (" +
                 std::to_string(kWorkers) + " workers x " +
                 std::to_string(loop.wall_s) + " s)");
  report.add("service.cache_hit_ratio",
             static_cast<double>(cached) / static_cast<double>(responses),
             "ratio", std::to_string(cached) + " of " + n);
  report.add("sched.context_us_p50", percentile(ctx_us, 50), "us", solved);
  report.add("bnb.search_ms_p50", percentile(search_ms, 50), "ms", solved);
  report.add("bnb.search_ms_p95", percentile(search_ms, 95), "ms", solved);
  report.add("bnb.generated_per_s", generated / search_s, "1/s",
             "generated over " + std::to_string(search_s) + " s search");

  const auto delta = [&](const char* field) {
    return static_cast<double>(
        counter_delta(loop, std::string("parabb_search_") + field + "_total"));
  };
  const std::string reg = "sum over " + solved + " (metrics registry)";
  const double activated = delta("activated");
  report.add("bnb.expanded", delta("expanded"), "count", reg);
  report.add("bnb.activated", activated, "count", reg);
  report.add("bnb.pruned_children", delta("pruned_children"), "count", reg);
  report.add("bnb.pruned_active", delta("pruned_active"), "count", reg);
  report.add("bnb.activated_ratio", activated / delta("generated"), "ratio",
             "of " + std::to_string(delta("generated")) + " generated");
  report.add("bnb.peak_active_max", gauge_of(loop, "parabb_search_peak_active"),
             "count", "registry high-water mark");
  report.add("bnb.peak_memory_mb_max",
             gauge_of(loop, "parabb_search_peak_memory_bytes") / (1 << 20),
             "MiB", "registry high-water mark");
  const double tt_probes = delta("tt_hits") + delta("tt_misses");
  report.add("bnb.tt_hit_ratio", delta("tt_hits") / tt_probes, "ratio",
             "of " + std::to_string(tt_probes) + " probes in " +
                 std::to_string(tt_solves) + " tt solves");
  report.add("bnb.tt_evictions", delta("tt_evictions"), "count", reg);

  report.add("verify.cert_text_ms_p50", percentile(cert_ms, 50), "ms",
             std::to_string(cert_ms.size()) + " certify spans");
  report.add("verify.cert_kb_p50", percentile(cert_kb, 50), "KiB",
             std::to_string(cert_kb.size()) + " certificates");
  report.add("verify.check_ms_p50", percentile(certs.check_ms, 50), "ms",
             std::to_string(certs.check_ms.size()) + " verified certificates");
  report.add("verify.replayed", static_cast<double>(certs.replayed), "count",
             "sum over " + std::to_string(certs.check_ms.size()) +
                 " verified certificates");

  const double explained_ns =
      delta("generated") * probe.lb1_eval_ns + activated * probe.lifo_push_pop_ns +
      tt_probes * probe.tt_probe_ns +
      static_cast<double>(search_ms.size()) * probe.edf_us_p50 * 1e3 +
      static_cast<double>(tt_solves) * probe.tt_create_us * 1e3;
  report.add("bnb.kernel_coverage", explained_ns * 1e-9 / search_s, "ratio",
             "of " + std::to_string(search_s) + " s in search spans");
}

}  // namespace

CorpusSpec serve_corpus_spec() {
  CorpusSpec spec;
  spec.stream = 3;
  return spec;
}

std::size_t serve_request_count(double seconds) {
  return std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(kRequestsPerS * seconds)));
}

void measure_service_layers(const Options& opt, Report& report) {
  constexpr double kPassSeconds = 2;
  const Plan plan = make_plan(opt.seed, serve_request_count(kPassSeconds));
  Rig rig;
  const Loop loop = run_loop(plan, rig, true);
  Report layers;
  layers.print = false;
  CertStats certs;
  check_loop(plan, loop, Reference(opt.reference, opt.seed), layers, certs);
  for (const std::string& w : layers.wrong) report.mismatch("service pass: " + w);
  Trace unused;
  report_layers(plan, loop, rig, certs, ProbeCosts{}, unused, layers);
  for (const Metric& m : layers.metrics) {
    if (m.name.rfind("service.", 0) == 0 || m.name.rfind("verify.", 0) == 0) {
      report.add(m.name, m.value, m.unit,
                 m.base + " (serve_mix pass, " +
                     std::to_string(plan.lines.size()) + " requests)");
    }
  }
}

void run_serve_workload(const Options& opt, Report& report) {
  const std::size_t n = serve_request_count(opt.seconds);
  const Reference ref(opt.reference, opt.seed);

  // Set-up: corpus, request encoding and service start-up, repeated.
  std::vector<double> setup_times;
  Plan plan;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rig.reset();
    plan = Plan{};
    const double t0 = now_s();
    plan = make_plan(opt.seed, n);
    rig = std::make_unique<Rig>();
    setup_times.push_back(now_s() - t0);
  }
  std::printf("workload serve_mix: %zu requests over %zu distinct bodies, "
              "%d closed-loop clients, %d workers, cache %zu\n",
              n, plan.bodies.size(), kClients, kWorkers, kCacheEntries);

  CertStats certs;
  if (!opt.trace) {
    const Loop loop = run_loop(plan, *rig, false);
    tally(loop, report);
    report_end_to_end(loop, percentile(setup_times, 50), report);
    check_loop(plan, loop, ref, report, certs);
    return;
  }

  // Traced run: an untraced loop on one service, then a traced loop on a
  // fresh one, so both start from an empty cache.
  const Loop untraced = run_loop(plan, *rig, false);
  rig = std::make_unique<Rig>();
  const Loop traced = run_loop(plan, *rig, true);
  tally(traced, report);
  Report untraced_checks;
  CertStats untraced_certs;
  check_loop(plan, untraced, ref, untraced_checks, untraced_certs);
  for (std::string& w : untraced_checks.wrong) report.mismatch("untraced " + w);
  check_loop(plan, traced, ref, report, certs);

  Trace trace;
  const ProbeCosts probe = run_probes(plan.graphs, opt.seed);
  report_probes(probe, report);
  report_layers(plan, traced, *rig, certs, probe, trace, report);
  report.add("bench.trace_overhead_ratio", traced.wall_s / untraced.wall_s - 1,
             "ratio",
             "traced " + std::to_string(traced.wall_s) + " s / untraced " +
                 std::to_string(untraced.wall_s) + " s");
  trace.report_self_times(report);
  trace.write_jsonl(opt.out_dir + "/spans-serve_mix-s" +
                    std::to_string(opt.seed) + ".jsonl");
}

namespace {

/// Rewrites the integer after `key` on the first line starting with
/// `line_prefix`; false when there is no such line.
bool bump_field(std::string& text, const std::string& line_prefix,
                const std::string& key, Time delta) {
  std::size_t line = text.rfind(line_prefix, 0) == 0 ? 0 : std::string::npos;
  if (line == std::string::npos) {
    line = text.find("\n" + line_prefix);
    if (line == std::string::npos) return false;
    ++line;
  }
  const std::size_t at = text.find(key, line);
  if (at == std::string::npos || at > text.find('\n', line)) return false;
  const std::size_t from = at + key.size();
  std::size_t to = from;
  while (to < text.size() && (text[to] == '-' || std::isdigit(static_cast<unsigned char>(text[to])))) ++to;
  const Time value = std::stoll(text.substr(from, to - from)) + delta;
  text.replace(from, to - from, std::to_string(value));
  return true;
}

JsonValue with_member(const JsonValue& doc, const std::string& key,
                      JsonValue value) {
  JsonValue out = JsonValue::object();
  for (const auto& [k, v] : doc.members()) {
    out.set(k, k == key ? value : v);
  }
  return out;
}

}  // namespace

int run_selftest() {
  // A certified optimal answer from the service, then the same answer with
  // a forged cost and with a forged certificate: the checks must accept
  // the first and reject both forgeries.
  const std::vector<Instance> graphs =
      make_corpus(serve_corpus_spec(), Reference::kDefaultSeed, 32);
  Rig rig;
  Body certified;
  certified.certify = true;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const parabb::JobTicket ticket = rig.service->submit(
        parabb::request_from_json(request_line("s", graphs[g], certified)));
    const parabb::JobResult r = rig.service->wait(ticket);
    const std::string line = parabb::response_to_json(r, graphs[g].graph);
    if (r.outcome != parabb::JobOutcome::kOptimal ||
        r.certificate.find("\ncut ") == std::string::npos) {
      continue;  // need an optimal answer whose proof has cuts to forge
    }
    const JsonValue doc = JsonValue::parse(line);
    const std::string cert = doc.find("certificate")->as_string();
    int bad = 0;
    const auto expect = [&bad](const char* what, bool caught, bool want) {
      std::printf("selftest %-34s %s\n", what, caught ? "rejected" : "accepted");
      bad += caught != want;
    };
    expect("original answer", !check_response(graphs[g], doc).empty(), false);
    expect("original certificate",
           !check_certificate(graphs[g], cert).certified, false);

    const Time cost = doc.find("cost")->as_int();
    expect("answer with cost - 1",
           !check_response(graphs[g], with_member(doc, "cost", cost - 1)).empty(),
           true);
    expect("answer with cost + 1",
           !check_response(graphs[g], with_member(doc, "cost", cost + 1)).empty(),
           true);
    std::string forged_cut = cert;
    std::string forged_cost = cert;
    if (!bump_field(forged_cut, "cut ", "bound=", 1000) ||
        !bump_field(forged_cost, "result ", "cost=", -1)) {
      std::printf("selftest: certificate has no cut or result line\n");
      return 1;
    }
    expect("certificate with an inflated cut",
           !check_certificate(graphs[g], forged_cut).certified, true);
    expect("certificate claiming cost - 1",
           !check_certificate(graphs[g], forged_cost).certified, true);
    std::printf("selftest %s on graph %zu (cost %lld)\n",
                bad == 0 ? "passed" : "FAILED", g,
                static_cast<long long>(cost));
    return bad == 0 ? 0 : 1;
  }
  std::printf("selftest: no certified optimal answer with cuts found\n");
  return 1;
}

}  // namespace perfbench
