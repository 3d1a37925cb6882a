#include "parabb/service/service.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/journal.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "parabb/obs/span.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/service/fingerprint.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/timer.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"

namespace parabb {

namespace {

void bump(Counter* c) {
  if (c) c->add(1);
}

}  // namespace

SolverService::SolverService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_entries),
      pool_(config.workers <= 0 ? 0
                                : static_cast<std::size_t>(config.workers)) {
  if (config_.watchdog_stall_ms > 0) {
    Watchdog::Config wc;
    wc.stall_ms = config_.watchdog_stall_ms;
    wc.interval_ms = std::max(1.0, config_.watchdog_stall_ms / 4.0);
    watchdog_ = std::make_unique<Watchdog>(wc);
  }
  bind_metrics();
}

void SolverService::bind_metrics() {
  MetricsRegistry* reg = config_.metrics;
  if (!reg) return;
  m_admitted_ = reg->counter("parabb_service_jobs_admitted_total");
  m_completed_ = reg->counter("parabb_service_jobs_completed_total");
  m_optimal_ = reg->counter("parabb_service_jobs_optimal_total");
  m_timed_out_ = reg->counter("parabb_service_jobs_feasible_timeout_total");
  m_cancelled_ = reg->counter("parabb_service_jobs_cancelled_total");
  m_infeasible_ = reg->counter("parabb_service_jobs_infeasible_total");
  m_errors_ = reg->counter("parabb_service_jobs_error_total");
  m_shed_ = reg->counter("parabb_service_jobs_shed_total");
  m_watchdog_ = reg->counter("parabb_service_watchdog_cancels_total");
  m_cache_hits_ = reg->counter("parabb_service_cache_hits_total");
  m_cache_misses_ = reg->counter("parabb_service_cache_misses_total");
  m_queue_peak_ = reg->gauge("parabb_service_queue_depth_peak");
  m_job_seconds_ = reg->histogram(
      "parabb_service_job_seconds", {0.001, 0.01, 0.1, 1.0, 10.0});
  // Pull gauges: sampled at snapshot time so they are live values, not
  // whatever the last job left behind.
  collector_ = reg->add_collector([this](MetricsRegistry& r) {
    std::size_t pending;
    std::uint64_t inflight;
    {
      const std::lock_guard lock(mutex_);
      pending = pending_.size();
      inflight = in_flight_;
    }
    r.gauge("parabb_service_queue_depth")
        ->set(static_cast<std::int64_t>(pending));
    r.gauge("parabb_service_jobs_inflight")
        ->set(static_cast<std::int64_t>(inflight));
    r.gauge("parabb_service_pool_queue_depth")
        ->set(static_cast<std::int64_t>(pool_.queue_depth()));
    r.gauge("parabb_service_cache_entries")
        ->set(static_cast<std::int64_t>(cache_.size()));
    r.gauge("parabb_service_cache_capacity")
        ->set(static_cast<std::int64_t>(cache_.capacity()));
    r.gauge("parabb_service_workers")
        ->set(static_cast<std::int64_t>(pool_.thread_count()));
  });
}

SolverService::~SolverService() {
  // Drain-then-join: shutdown runs every queued pump to completion and
  // joins the workers, so no pump can touch members after they die.
  pool_.shutdown(ThreadPool::DrainPolicy::kDrain);
  // Only now is it safe to detach the collector: it reads pool_/cache_,
  // and a snapshot may race the teardown otherwise.
  if (config_.metrics) config_.metrics->remove_collector(collector_);
}

JobTicket SolverService::submit(
    JobRequest request, std::function<void(const JobResult&)> on_done) {
  auto record = std::make_shared<JobRecord>();
  record->request = std::move(request);
  record->on_done = std::move(on_done);

  JobTicket ticket;
  {
    const std::lock_guard lock(mutex_);
    // Admission control: shed instead of queueing without bound. The
    // retry hint grows with the backlog each worker already owes.
    const bool injected_full =
        config_.faults && config_.faults->submit_rejected();
    if (injected_full || (config_.max_queue_depth > 0 &&
                          pending_.size() >= config_.max_queue_depth)) {
      bump(m_shed_);
      const double backlog =
          static_cast<double>(pending_.size()) /
          static_cast<double>(std::max<std::size_t>(1, pool_.thread_count()));
      throw OverloadedError(25.0 * (1.0 + backlog));
    }
    ticket = next_ticket_++;
    record->ticket = ticket;
    jobs_.emplace(ticket, record);
    pending_.push_back(PendingRef{record->request.priority, ticket});
    std::push_heap(pending_.begin(), pending_.end());
    ++in_flight_;
    bump(m_admitted_);
    if (m_queue_peak_) {
      m_queue_peak_->set_max(static_cast<std::int64_t>(pending_.size()));
    }
  }
  // One pump per admitted job: the pool's thread count caps concurrency,
  // the heap decides *which* pending job each pump runs.
  pool_.submit([this] { pump(); });
  return ticket;
}

void SolverService::pump() {
  std::shared_ptr<JobRecord> record;
  {
    const std::lock_guard lock(mutex_);
    while (!pending_.empty()) {
      std::pop_heap(pending_.begin(), pending_.end());
      const JobTicket ticket = pending_.back().ticket;
      pending_.pop_back();
      // A job cancelled while pending is finalized by cancel(), and its
      // record may already be delivered and dropped.
      const auto it = jobs_.find(ticket);
      if (it == jobs_.end() || it->second->state != State::kPending) continue;
      record = it->second;
      record->state = State::kRunning;
      break;
    }
  }
  // All heap entries consumed by cancellation: this pump has nothing to do
  // (the cancel path already finalized those jobs).
  if (!record) return;
  finalize(record, run_job(record));
}

JobResult SolverService::run_job(const std::shared_ptr<JobRecord>& record) {
  const JobRequest& req = record->request;
  JobResult out;
  out.id = req.id;

  // Jobs with an opaque F hook, which the request key cannot cover,
  // bypass the cache entirely rather than risk a stale-config hit.
  // Fault-afflicted runs are injection-dependent partial results and are
  // never looked up or cached either.
  const bool cacheable = !req.params.characteristic && !config_.faults;
  std::uint64_t fp = 0;
  std::string key;
  if (cacheable) {
    key = request_key(req);
    fp = fingerprint_bytes(key);
    auto hit = cache_.lookup(fp, key);
    bump(hit ? m_cache_hits_ : m_cache_misses_);
    if (hit) {
      hit->id = req.id;
      hit->cached = true;
      hit->seconds = 0.0;
      return *std::move(hit);
    }
  }

  FlightRecorder recorder(config_.flight_capacity);
  try {
    ScopedSpan ctx_span(config_.spans, "context", req.id);
    const SchedContext ctx(req.graph, req.machine);
    ctx_span.finish();

    // The service owns every run-time attachment: none of the caller's
    // pointers reaches the engine on a worker thread. `cancel`, `faults`
    // and `progress` are always overwritten; the others are cleared here
    // and set below only when the service attaches its own.
    Params params = req.params;
    params.observe = nullptr;
    params.certify = nullptr;
    params.ckpt = nullptr;
    params.resume = nullptr;
    apply_budget(params, req.budget, &record->token);
    params.faults = config_.faults;
    params.progress = &record->progress;

    // Durable per-job checkpoints: with a journal configured, the engine
    // snapshots its search state into the job's checkpoint file, so a
    // killed-and-restarted service resumes the job mid-search instead of
    // redoing it. A snapshot left behind by a crashed predecessor is
    // adopted only when it matches this exact (instance, parameter) pair;
    // anything else — missing, torn, corrupt, or from a different request
    // shape — starts the search fresh.
    std::optional<CheckpointController> ckpt;
    SearchSnapshot resume_snap;
    struct CkptCleanup {  // terminal outcome: the snapshot is spent
      std::string path;
      ~CkptCleanup() {
        if (!path.empty()) std::remove(path.c_str());
      }
    } ckpt_cleanup;
    if (config_.journal != nullptr) {
      const std::string path = config_.journal->job_checkpoint_path(req.id);
      ckpt.emplace(path, config_.checkpoint_interval_ms);
      params.ckpt = &*ckpt;
      ckpt_cleanup.path = path;
      try {
        resume_snap = load_snapshot(path);
        if (snapshot_matches(resume_snap, ctx, params)) {
          params.resume = &resume_snap;
        }
      } catch (const SnapshotError&) {
        // No usable snapshot: start fresh.
      }
    }

    Observation ob;
    ob.metrics = config_.metrics;
    if (req.flight) ob.recorder = &recorder;
    if (ob.enabled()) params.observe = &ob;

    CertificateBuilder builder;
    if (req.certify) params.certify = &builder;

    // Stagnation escalation: a running job whose progress feed stops
    // advancing for watchdog_stall_ms is cancelled, turning a hung search
    // into a defined kCancelled outcome. RAII so the registration is
    // dropped on every exit path, including engine throws.
    struct WatchGuard {
      Watchdog* dog = nullptr;
      std::uint64_t id = 0;
      ~WatchGuard() {
        if (dog) dog->unwatch(id);
      }
    } watch_guard;
    if (watchdog_) {
      watch_guard.dog = watchdog_.get();
      watch_guard.id =
          watchdog_->watch(&record->progress, [this, record] {
            bump(m_watchdog_);  // counted before the job can unwind
            record->token.cancel();
          });
    }

    Stopwatch watch;
    ScopedSpan search_span(config_.spans, "search", req.id);
    SearchResult r;
    if (req.threads > 1) {
      ParallelParams pp;
      pp.base = params;
      pp.threads = req.threads;
      r = solve_bnb_parallel(ctx, pp);
    } else {
      r = solve_bnb(ctx, params);
    }
    out.found = r.found_solution;
    out.schedule = std::move(r.best);
    out.cost = r.best_cost;
    out.proved = r.proved;
    out.certified_lower_bound = r.certified_lower_bound;
    out.reason = r.reason;
    out.generated = r.stats.generated;
    search_span.finish();
    out.seconds = watch.seconds();
    out.outcome = outcome_of(out.reason, out.found, r.compromised);
    if (req.certify) {
      const ScopedSpan certify_span(config_.spans, "certify", req.id);
      out.certificate = certificate_to_text(builder.take(), req.graph);
    }
    // The dump explains *interrupted* searches; a job that ran to its
    // natural end has nothing to explain, so its response stays lean.
    if (req.flight && (out.outcome == JobOutcome::kFeasibleTimeout ||
                       out.outcome == JobOutcome::kCancelled)) {
      out.flight_json = recorder.dump_json().dump();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }

  // Cancelled searches are timing-dependent partial results; caching them
  // would serve a worse incumbent than a fresh (budgeted) run could find.
  if (cacheable && out.outcome != JobOutcome::kCancelled) {
    cache_.insert(fp, std::move(key), out);
  }
  return out;
}

void SolverService::finalize(const std::shared_ptr<JobRecord>& record,
                             JobResult result) {
  if (m_completed_) {
    m_completed_->add(1);
    if (!result.error.empty()) {
      m_errors_->add(1);
    } else {
      switch (result.outcome) {
        case JobOutcome::kOptimal: m_optimal_->add(1); break;
        case JobOutcome::kFeasibleTimeout: m_timed_out_->add(1); break;
        case JobOutcome::kCancelled: m_cancelled_->add(1); break;
        case JobOutcome::kInfeasible: m_infeasible_->add(1); break;
      }
    }
    if (result.error.empty() && !result.cached) {
      m_job_seconds_->observe(result.seconds);
    }
  }
  {
    const std::lock_guard lock(mutex_);
    record->result = std::move(result);
    record->state = State::kDone;
  }
  cv_done_.notify_all();  // wait(ticket) waiters: the result is terminal
  // The callback runs before in_flight_ drops so wait_all() implies every
  // on_done has returned — parabb_serve relies on that to emit all
  // responses before its shutdown summary (and before its stream state
  // is torn down). wait() refuses a job with a callback, so the unlocked
  // read races with nothing.
  if (record->on_done) record->on_done(record->result);
  {
    const std::lock_guard lock(mutex_);
    // The callback delivered the result; without one, wait() delivers it
    // and drops the record.
    if (record->on_done) jobs_.erase(record->ticket);
    PARABB_ASSERT(in_flight_ > 0);
    --in_flight_;
  }
  cv_done_.notify_all();
}

JobResult SolverService::wait(JobTicket ticket) {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(ticket);
  PARABB_REQUIRE(it != jobs_.end(), "unknown job ticket");
  const std::shared_ptr<JobRecord> record = it->second;
  PARABB_REQUIRE(!record->on_done, "the job delivers to its callback");
  cv_done_.wait(lock, [&] { return record->state == State::kDone; });
  // Delivered once: a second waiter on this ticket finds it unknown.
  PARABB_REQUIRE(jobs_.erase(ticket) == 1, "unknown job ticket");
  return std::move(record->result);
}

bool SolverService::cancel(JobTicket ticket) {
  std::shared_ptr<JobRecord> to_finalize;
  {
    const std::lock_guard lock(mutex_);
    const auto it = jobs_.find(ticket);
    if (it == jobs_.end()) return false;
    const auto& record = it->second;
    switch (record->state) {
      case State::kDone:
        return false;
      case State::kRunning:
        record->token.cancel();  // engine unwinds with its incumbent
        return true;
      case State::kPending: {
        // Never ran: finalize here; the pump that would have claimed it
        // skips the stale heap entry.
        record->state = State::kRunning;  // claim under the lock
        to_finalize = record;
        break;
      }
    }
  }
  JobResult result;
  result.id = to_finalize->request.id;
  result.outcome = JobOutcome::kCancelled;
  result.reason = TerminationReason::kCancelled;
  finalize(to_finalize, std::move(result));
  return true;
}

void SolverService::wait_all() {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&] { return in_flight_ == 0; });
}

int SolverService::worker_count() const noexcept {
  return static_cast<int>(pool_.thread_count());
}

}  // namespace parabb
