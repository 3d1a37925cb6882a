// parabb_serve — JSONL solver service front end.
//
// Reads one JSON request per line from stdin (or a file given as the
// positional argument), admits each onto a SolverService, and writes one
// JSON response line per request to stdout. Responses are emitted as jobs
// finish, so they may appear out of submission order; clients correlate
// by the request `id`. Lines that fail to parse produce an error response
// instead of killing the stream. On shutdown a counters summary, sourced
// from the metrics registry, is printed to stderr (suppress with --quiet).
//
// Observability (docs/observability.md):
//   * {"id":"m1","metrics":true} on the input stream is answered in-band
//     with a full registry snapshot (live queue/cache/engine counters).
//   * --metrics-interval S streams a snapshot line to stderr every S
//     seconds while the service runs.
//   * --metrics-prom PATH writes a Prometheus text dump at shutdown.
//   * --spans PATH writes the per-job phase spans as JSONL at shutdown.
//   * a request carrying "flight":true gets a flight-recorder dump
//     attached to its response if it times out or is cancelled.
//
// Durability (docs/robustness.md, "Recovery"):
//   * --journal DIR arms a write-ahead job journal: every request is
//     journaled before it is admitted and every response before it is
//     emitted, and running jobs checkpoint their engine state into DIR.
//     A restarted server replays the journal — still-pending jobs are
//     re-enqueued (resuming mid-search from their checkpoint) and a
//     resubmitted id that already completed is answered straight from
//     the log, never solved twice.
//   * SIGTERM drains: in-flight jobs finish, their responses are emitted
//     and journaled, and the process exits 6 (same as a closed stdout).
//
//   $ parabb_serve < requests.jsonl > responses.jsonl
//   $ parabb_serve --workers 4 --cache 512 requests.jsonl
//   $ parabb_serve --journal /var/lib/parabb/jobs < requests.jsonl
//
// Protocol schema: docs/formats.md, "Solver service protocol".
#include <signal.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "parabb/ckpt/journal.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/obs/span.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/service/backoff.hpp"
#include "parabb/service/protocol.hpp"
#include "parabb/service/service.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"

namespace {

using namespace parabb;

/// SIGTERM = drain-and-exit. The handler only sets a flag; the read loop
/// checks it per line and — because the handler is installed without
/// SA_RESTART — a getline blocked on stdin is interrupted (EINTR) instead
/// of resuming, so the loop falls through to the normal drain path.
std::atomic<bool> g_terminate{false};

extern "C" void handle_serve_sigterm(int) {
  g_terminate.store(true, std::memory_order_relaxed);
}

/// Best-effort id recovery from a line whose request failed validation:
/// the error response should still correlate when the JSON itself was
/// well-formed and carried an id.
std::string salvage_id(const std::string& line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    if (const JsonValue* id = doc.find("id"); id && id->is_string()) {
      return id->as_string();
    }
  } catch (const std::exception&) {
  }
  return "";
}

/// Shutdown summary, sourced from the registry, the service's only counter
/// store. Labels are stable for scripts that scrape stderr.
void print_summary(const MetricsSnapshot& snap, const CacheCounters& cc,
                   std::uint64_t rejected) {
  const auto counter = [&snap](const char* name) {
    const auto* c = snap.find_counter(name);
    return c ? c->value : 0;
  };
  const auto gauge = [&snap](const char* name) -> std::int64_t {
    const auto* g = snap.find_gauge(name);
    return g ? g->value : 0;
  };
  TextTable table;
  table.set_header({"counter", "value"});
  const std::pair<const char*, const char*> rows[] = {
      {"jobs admitted", "parabb_service_jobs_admitted_total"},
      {"jobs completed", "parabb_service_jobs_completed_total"},
      {"  optimal", "parabb_service_jobs_optimal_total"},
      {"  feasible_timeout", "parabb_service_jobs_feasible_timeout_total"},
      {"  cancelled", "parabb_service_jobs_cancelled_total"},
      {"  infeasible", "parabb_service_jobs_infeasible_total"},
      {"  errors", "parabb_service_jobs_error_total"},
      {"cache hits", "parabb_service_cache_hits_total"},
      {"cache misses", "parabb_service_cache_misses_total"},
      {"vertices expanded", "parabb_search_expanded_total"},
      {"vertices generated", "parabb_search_generated_total"},
  };
  for (const auto& [label, metric] : rows) {
    table.add_row({label, std::to_string(counter(metric))});
  }
  table.add_row({"queue depth peak",
                 std::to_string(gauge("parabb_service_queue_depth_peak"))});
  table.add_row({"cache insertions", std::to_string(cc.insertions)});
  table.add_row({"cache evictions", std::to_string(cc.evictions)});
  table.add_row({"cache collisions", std::to_string(cc.collisions)});
  table.add_row({"rejected requests", std::to_string(rejected)});
  std::fprintf(stderr, "%s", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("parabb_serve",
                   "JSONL multi-tenant solver service (one request per "
                   "line on stdin, one response per line on stdout)");
  parser.add_option("workers", "concurrent solve cap (0 = hardware)", "0");
  parser.add_option("cache", "result-cache entries (0 = disabled)", "256");
  parser.add_option("metrics-interval",
                    "stream a metrics snapshot to stderr every N seconds "
                    "(0 = off)",
                    "0");
  parser.add_option("metrics-prom",
                    "write a Prometheus text dump here at shutdown", "");
  parser.add_option("spans", "write phase spans (JSONL) here at shutdown",
                    "");
  parser.add_option("max-queue",
                    "admission control: shed submissions past this many "
                    "pending jobs (0 = unbounded)",
                    "0");
  parser.add_option("watchdog-ms",
                    "cancel a running job after this long without search "
                    "progress (0 = off)",
                    "0");
  parser.add_option("resubmit",
                    "max exponential-backoff resubmits after an "
                    "overloaded rejection",
                    "3");
  parser.add_option("backoff-seed",
                    "seed for the full-jitter resubmit backoff", "1");
  parser.add_option("journal",
                    "durable job journal directory: write-ahead "
                    "accept/complete log plus per-job engine checkpoints, "
                    "replayed on restart (empty = off)",
                    "");
  parser.add_option("checkpoint-interval",
                    "per-job engine snapshot cadence in ms (with "
                    "--journal)",
                    "1000");
  parser.add_option("inject-faults",
                    "run every job under a seeded fault plan (robustness "
                    "testing; empty = off)",
                    "");
  parser.add_flag("quiet", "suppress the shutdown counters summary");

#ifdef SIGPIPE
  // A client closing the response stream must not kill the server with
  // SIGPIPE; writes fail with EPIPE instead, which emit() detects and
  // turns into a clean drain + exit 6 (docs/robustness.md).
  std::signal(SIGPIPE, SIG_IGN);
#endif

  // sigaction, not std::signal: SA_RESTART must stay OFF so a read
  // blocked on stdin is interrupted when the drain flag is raised.
  struct sigaction term_action = {};
  term_action.sa_handler = handle_serve_sigterm;
  sigemptyset(&term_action.sa_mask);
  term_action.sa_flags = 0;
  sigaction(SIGTERM, &term_action, nullptr);

  try {
    if (!parser.parse(argc, argv)) return 0;
    if (parser.positional().size() > 1) {
      std::fprintf(stderr, "usage: parabb_serve [requests.jsonl]\n");
      return 2;
    }

    std::ifstream file;
    if (!parser.positional().empty()) {
      file.open(parser.positional()[0]);
      if (!file) {
        std::fprintf(stderr, "parabb_serve: cannot open %s\n",
                     parser.positional()[0].c_str());
        return 2;
      }
    }
    std::istream& in = file.is_open() ? file : std::cin;

    // Declared before the service so they outlive it: the service's
    // destructor detaches its registry collector.
    MetricsRegistry registry;
    SpanLog span_log;

    std::optional<FaultInjector> injector;
    if (const std::string fs = parser.get_string("inject-faults");
        !fs.empty()) {
      injector.emplace(
          FaultPlan::random(static_cast<std::uint64_t>(std::stoull(fs))));
      std::fprintf(stderr, "fault plan: %s\n",
                   injector->plan().describe().c_str());
    }

    // Declared before the service: running jobs checkpoint through the
    // journal pointer until the service drains.
    std::optional<JobJournal> journal;
    std::map<std::string, std::string> completed;
    std::vector<JobJournal::PendingJob> recovered;
    if (const std::string jd = parser.get_string("journal"); !jd.empty()) {
      JobJournal::Replay replayed = JobJournal::replay(jd);
      completed = std::move(replayed.completed);
      recovered = std::move(replayed.pending);
      if (replayed.malformed > 0) {
        std::fprintf(stderr,
                     "parabb_serve: journal: ignored %zu malformed "
                     "record(s) (torn tail write)\n",
                     replayed.malformed);
      }
      journal.emplace(jd);
    }

    ServiceConfig config;
    config.workers = static_cast<int>(parser.get_int("workers"));
    config.cache_entries =
        static_cast<std::size_t>(parser.get_int("cache"));
    config.metrics = &registry;
    config.spans = &span_log;
    config.max_queue_depth =
        static_cast<std::size_t>(parser.get_int("max-queue"));
    config.watchdog_stall_ms = parser.get_double("watchdog-ms");
    if (injector) config.faults = &*injector;
    if (journal) {
      config.journal = &*journal;
      config.checkpoint_interval_ms =
          parser.get_double("checkpoint-interval");
    }
    SolverService service(config);

    // A closed/broken stdout (client went away) stops the read loop; the
    // in-flight jobs still drain so the service shuts down cleanly.
    std::atomic<bool> out_broken{false};
    std::mutex out_mutex;
    const auto emit = [&out_mutex, &out_broken](const std::string& json_line) {
      std::lock_guard lock(out_mutex);
      if (out_broken.load(std::memory_order_relaxed)) return;
      if (std::fputs(json_line.c_str(), stdout) < 0 ||
          std::fputc('\n', stdout) < 0 || std::fflush(stdout) != 0) {
        std::clearerr(stdout);
        out_broken.store(true, std::memory_order_relaxed);
      }
    };

    // Periodic snapshot streamer (stderr, so stdout stays pure protocol).
    const double interval_s = parser.get_double("metrics-interval");
    std::atomic<bool> stop_streamer{false};
    std::thread streamer;
    if (interval_s > 0) {
      streamer = std::thread([&registry, &stop_streamer, interval_s] {
        const auto step = std::chrono::milliseconds(20);
        auto next = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(interval_s);
        while (!stop_streamer.load()) {
          if (std::chrono::steady_clock::now() >= next) {
            const std::string line =
                metrics_response_json("metrics-interval",
                                      registry.snapshot());
            std::fprintf(stderr, "%s\n", line.c_str());
            next += std::chrono::duration<double>(interval_s);
          }
          std::this_thread::sleep_for(step);
        }
      });
    }

    const int max_resubmits =
        static_cast<int>(parser.get_int("resubmit"));
    BackoffPolicy backoff(
        static_cast<std::uint64_t>(parser.get_int("backoff-seed")));
    std::uint64_t rejected = 0;

    // Submission path shared by journal-recovered and fresh requests.
    // The terminal response is journaled before it is emitted, so a
    // response the client may have seen is always answerable again from
    // the completed log after a restart. Overloaded rejections retry
    // under seeded full jitter (service/backoff.hpp) so shed clients
    // don't re-stampede in lock-step.
    const auto submit_request = [&](JobRequest request) {
      // The responder needs the graph for task names, so it keeps its
      // own copy (the request itself is copied per submission attempt).
      auto graph = std::make_shared<const TaskGraph>(request.graph);
      JobJournal* const wal = journal ? &*journal : nullptr;
      const auto on_done = [&emit, graph, wal](const JobResult& result) {
        const std::string json_line = response_to_json(result, *graph);
        if (wal != nullptr) wal->record_complete(result.id, json_line);
        emit(json_line);
      };
      for (int attempt = 0;; ++attempt) {
        try {
          service.submit(request, on_done);
          break;
        } catch (const OverloadedError& e) {
          if (attempt >= max_resubmits) {
            ++rejected;
            // Shed past the retry budget: void the accept record so a
            // restart does not replay a job the client was told to
            // resubmit themselves.
            if (wal != nullptr) wal->record_cancel(request.id);
            emit(overloaded_response_json(request.id, e.retry_after_ms));
            break;
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  backoff.delay_ms(e.retry_after_ms, attempt)));
        }
      }
    };

    // Journal replay: jobs accepted by a previous incarnation that never
    // completed are re-enqueued; each resumes mid-search from its per-job
    // checkpoint when one survived.
    if (!recovered.empty()) {
      std::fprintf(stderr,
                   "parabb_serve: journal: re-enqueueing %zu in-flight "
                   "job(s)\n",
                   recovered.size());
      for (const auto& p : recovered) {
        try {
          submit_request(request_from_json(p.request_json));
        } catch (const std::exception& e) {
          ++rejected;
          const std::string resp = error_response_json(p.id, e.what());
          if (journal) journal->record_complete(p.id, resp);
          emit(resp);
        }
      }
    }

    std::size_t line_no = 0;
    std::string line;
    while (!out_broken.load(std::memory_order_relaxed) &&
           !g_terminate.load(std::memory_order_relaxed) &&
           std::getline(in, line)) {
      ++line_no;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

      // In-band metrics requests are answered synchronously: the snapshot
      // reflects everything admitted before this line.
      try {
        if (const auto mreq = parse_metrics_request(line, line_no)) {
          emit(metrics_response_json(mreq->id, registry.snapshot()));
          continue;
        }
      } catch (const std::exception& e) {
        ++rejected;
        emit(error_response_json(salvage_id(line), e.what()));
        continue;
      }

      JobRequest request;
      try {
        request = request_from_json(line);
      } catch (const std::exception& e) {
        ++rejected;
        emit(error_response_json(salvage_id(line), e.what()));
        continue;
      }
      if (journal) {
        // Duplicate resubmission of a journaled job: answer from the
        // completed log without solving twice (at-most-once execution
        // across restarts).
        if (const auto it = completed.find(request.id);
            it != completed.end()) {
          emit(it->second);
          continue;
        }
        // Write-ahead accept: once this record is durable, a crash
        // before the response leads to replay-and-resume on restart.
        journal->record_accept(request.id, line);
      }
      submit_request(std::move(request));
    }

    service.wait_all();
    if (streamer.joinable()) {
      stop_streamer.store(true);
      streamer.join();
    }

    const std::string prom_path = parser.get_string("metrics-prom");
    if (!prom_path.empty()) {
      write_text_file(prom_path, registry.snapshot().to_prometheus());
    }
    const std::string spans_path = parser.get_string("spans");
    if (!spans_path.empty()) {
      write_text_file(spans_path, span_log.to_jsonl());
    }
    if (!parser.has_flag("quiet")) {
      print_summary(registry.snapshot(), service.cache_counters(),
                    rejected);
    }
    if (out_broken.load()) {
      std::fprintf(stderr,
                   "parabb_serve: output stream closed; drained in-flight "
                   "jobs and stopped\n");
      return 6;
    }
    if (g_terminate.load(std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "parabb_serve: SIGTERM: drained in-flight jobs, "
                   "flushed the journal, and stopped\n");
      return 6;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parabb_serve: %s\n", e.what());
    return 2;
  }
}
