// SolverService: the multi-tenant solver front of the B&B engines.
//
// Architecture (ISSUE 2 tentpole):
//
//   submit() ──► admission queue ──► support/ThreadPool workers ──► results
//                (priority + FIFO)      (concurrency cap)
//                                          │
//                            ResultCache ◄─┴─► bnb engines
//                         (canonical request   (per-job Budget +
//                          fingerprint, LRU)    CancelToken, anytime)
//
// * Admission: every submitted job enters a priority queue (higher
//   `priority` first, FIFO within a priority level). One pump task per
//   admitted job is pushed onto a fixed ThreadPool whose thread count is
//   the service's concurrency cap; each pump pops the *best* pending job,
//   so priorities are honored at dispatch time regardless of submission
//   order.
// * Budgets: each job's Budget is mapped onto the engine's resource
//   bounds plus a per-job CancelToken polled on the search hot loop; an
//   expired or cancelled job returns its best incumbent, never aborts.
// * Caching: results of cacheable jobs (no F hook, no fault injector, not
//   cancelled, no error) are stored in a bounded LRU keyed by the
//   canonical request fingerprint; identical re-submissions are answered
//   without searching.
// * Completion: each result is delivered once, through one channel: the
//   job's on_done callback on the worker thread (parabb_serve streams
//   responses out of order through it) or, without one, wait(ticket).
//   The job's record is then dropped, so the service does not grow with
//   the jobs it has served. wait_all() drains everything in flight.
// * Metrics: the configured MetricsRegistry is the only place the service
//   counts anything (parabb_service_*); without one it keeps no counts.
//
// Thread-safe: submit/cancel/wait may be called from any thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "parabb/bnb/cancel.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/robust/watchdog.hpp"
#include "parabb/service/cache.hpp"
#include "parabb/service/job.hpp"
#include "parabb/support/threadpool.hpp"

namespace parabb {

class SpanLog;         // obs/span.hpp
class FaultInjector;   // robust/fault.hpp
class JobJournal;      // ckpt/journal.hpp

struct ServiceConfig {
  /// Concurrent solve cap = worker threads; 0 = hardware concurrency.
  int workers = 0;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 256;

  /// Optional metrics registry (obs/metrics.hpp); not owned, may be null,
  /// must outlive the service. When set, the service publishes its job /
  /// cache counters (parabb_service_* family), registers a pull collector
  /// for the live queue/cache gauges, and hands the registry to every
  /// solve so the engines publish their search_* counters too. It is the
  /// service's only counter store: a service without one counts nothing.
  MetricsRegistry* metrics = nullptr;

  /// Optional span log (obs/span.hpp); not owned, may be null, must
  /// outlive the service. Each job emits context/search/certify spans
  /// tagged with its request id.
  SpanLog* spans = nullptr;

  /// Ring capacity (events per engine worker) for jobs that request a
  /// flight-recorder dump.
  std::size_t flight_capacity = 256;

  /// Admission control: submissions past this many pending jobs are shed
  /// with OverloadedError instead of queued (0 = unbounded, the default).
  /// Load shedding keeps a saturated service's latency bounded: a client
  /// sees `overloaded` + a retry hint instead of an unbounded queue wait.
  std::size_t max_queue_depth = 0;

  /// Stagnation watchdog: a running job whose generated-count has not
  /// advanced for this long is escalated by tripping its CancelToken, so
  /// a hung search unwinds into a defined kCancelled outcome (0 = off).
  double watchdog_stall_ms = 0;

  /// Optional fault injector (robust/fault.hpp); not owned, may be null,
  /// must outlive the service. Threaded into every job's Params::faults
  /// and consulted for kQueueFull admission rejections. Fault-afflicted
  /// results are never cached (they are injection-dependent).
  FaultInjector* faults = nullptr;

  /// Optional durable job journal (ckpt/journal.hpp); not owned, may be
  /// null, must outlive the service. When set, every running job arms a
  /// per-job engine checkpoint at journal->job_checkpoint_path(id) (cadence
  /// `checkpoint_interval_ms`), resumes from a matching snapshot left by a
  /// crashed predecessor, and removes the snapshot file once the job
  /// reaches a terminal outcome. Accept/complete records themselves are
  /// the caller's responsibility (parabb_serve writes them around submit).
  JobJournal* journal = nullptr;

  /// Per-job snapshot cadence in ms when `journal` is set (<= 0 disables
  /// the interval; snapshots then only happen on explicit request).
  double checkpoint_interval_ms = 1000;
};

/// Thrown by submit() when admission control sheds the job (queue full or
/// an injected kQueueFull fault). `retry_after_ms` is the service's
/// backoff hint, scaled by the current queue depth per worker.
class OverloadedError : public std::runtime_error {
 public:
  explicit OverloadedError(double retry_ms)
      : std::runtime_error("service overloaded"), retry_after_ms(retry_ms) {}
  double retry_after_ms = 0;
};

/// Handle returned by submit(); identifies a job to wait()/cancel().
using JobTicket = std::uint64_t;

class SolverService {
 public:
  explicit SolverService(ServiceConfig config = {});

  /// Drains: blocks until every admitted job reached a terminal state.
  ~SolverService();

  const ServiceConfig& config() const noexcept { return config_; }

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Admits a job; throws OverloadedError (without admitting) when
  /// admission control sheds it. `on_done` (optional) fires exactly once with the
  /// terminal result, on a worker thread (or on the canceller's thread
  /// for a job cancelled before it ran); it must not block for long and
  /// must not call wait() on its own job. It is the job's only delivery
  /// channel: once it returns, the ticket is unknown to wait() and
  /// cancel(). wait_all() does not return until every admitted job's
  /// callback has returned.
  JobTicket submit(JobRequest request,
                   std::function<void(const JobResult&)> on_done = {});

  /// Blocks until a job submitted without `on_done` is terminal and
  /// returns its result, once: the service then forgets the ticket.
  /// Throws precondition_error for a job with `on_done` and for an
  /// unknown ticket, which includes one whose result was delivered.
  JobResult wait(JobTicket ticket);

  /// Requests cancellation. A still-pending job completes immediately
  /// with outcome kCancelled (it never runs); a running job's token is
  /// tripped and it unwinds with its best incumbent. Returns false when
  /// the ticket is unknown (or its result was delivered) or the job is
  /// already terminal.
  bool cancel(JobTicket ticket);

  /// Blocks until every job admitted so far is terminal.
  void wait_all();

  int worker_count() const noexcept;
  CacheCounters cache_counters() const { return cache_.counters(); }

 private:
  enum class State : std::uint8_t { kPending, kRunning, kDone };

  struct JobRecord {
    JobRequest request;
    std::function<void(const JobResult&)> on_done;
    CancelToken token;
    State state = State::kPending;
    JobResult result;
    JobTicket ticket = 0;  ///< tickets rise with admission: FIFO tie-break
    /// Engine progress feed (Params::progress) the watchdog scans.
    std::atomic<std::uint64_t> progress{0};
  };

  /// Max-heap orders pending jobs: higher priority first, then lower ticket.
  struct PendingRef {
    int priority = 0;
    JobTicket ticket = 0;
    bool operator<(const PendingRef& o) const noexcept {
      if (priority != o.priority) return priority < o.priority;
      return ticket > o.ticket;  // older (smaller ticket) wins
    }
  };

  void pump();  ///< one admitted job: pop best pending, run, finalize
  JobResult run_job(const std::shared_ptr<JobRecord>& record);
  void finalize(const std::shared_ptr<JobRecord>& record, JobResult result);

  /// Resolves the parabb_service_* registry handles (null registry OK).
  void bind_metrics();

  ServiceConfig config_;
  ResultCache cache_;
  ThreadPool pool_;
  /// Stagnation watchdog; null unless config_.watchdog_stall_ms > 0.
  /// Declared after pool_ so it is destroyed (joined) first.
  std::unique_ptr<Watchdog> watchdog_;

  // Registry handles; all null when config_.metrics is null.
  Counter* m_admitted_ = nullptr;
  Counter* m_completed_ = nullptr;
  Counter* m_optimal_ = nullptr;
  Counter* m_timed_out_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Counter* m_infeasible_ = nullptr;
  Counter* m_errors_ = nullptr;
  Counter* m_shed_ = nullptr;
  Counter* m_watchdog_ = nullptr;
  Counter* m_cache_hits_ = nullptr;
  Counter* m_cache_misses_ = nullptr;
  Gauge* m_queue_peak_ = nullptr;
  Histogram* m_job_seconds_ = nullptr;
  MetricsRegistry::CollectorId collector_ = 0;

  std::mutex mutex_;
  std::condition_variable cv_done_;
  /// Jobs whose result is not yet delivered (see submit() and wait()).
  std::map<JobTicket, std::shared_ptr<JobRecord>> jobs_;
  std::vector<PendingRef> pending_;  // std::push_heap/pop_heap
  JobTicket next_ticket_ = 1;
  std::uint64_t in_flight_ = 0;  ///< admitted, not yet terminal
};

}  // namespace parabb
