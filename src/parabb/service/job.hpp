// Solver-service job model: what a client submits (JobRequest), the
// resources a job may consume (Budget), and what comes back (JobResult
// with a four-way JobOutcome taxonomy).
//
// A job is one B&B solve of one task graph on one machine description.
// The service enforces the budget *cooperatively*: the engine polls a
// cancellation token and its resource bounds on the hot loop and returns
// the best incumbent found so far — a budget-expired job yields a usable
// (validator-clean) schedule with outcome kFeasibleTimeout, never an
// aborted process (the anytime operation arXiv:1905.05568 argues is the
// only way to run exact schedulers at scale).
#pragma once

#include <cstdint>
#include <string>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/params.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/schedule.hpp"
#include "parabb/taskgraph/graph.hpp"

namespace parabb {

/// Per-job resource budget. Zero means "unlimited" for every field, so a
/// default-constructed Budget imposes nothing.
struct Budget {
  double wall_ms = 0;                ///< wall-clock cap in milliseconds
  std::uint64_t max_generated = 0;   ///< generated-vertex cap
  std::size_t max_active_bytes = 0;  ///< active-set vertex-pool memory cap

  bool unlimited() const noexcept {
    return wall_ms <= 0 && max_generated == 0 && max_active_bytes == 0;
  }
};

/// Maps a Budget onto the engine's resource bounds and ties the given
/// cancellation token to `params`. Existing tighter bounds are kept (the
/// budget can only shrink what the caller already set).
void apply_budget(Params& params, const Budget& budget,
                  const CancelToken* cancel);

/// Terminal outcome of a job, the service's client-facing taxonomy.
enum class JobOutcome : std::uint8_t {
  kOptimal,          ///< search completed; result carries its guarantee
  kFeasibleTimeout,  ///< a budget stopped or compromised the search;
                     ///< best incumbent returned
  kCancelled,        ///< cancelled; any incumbent found so far returned
  kInfeasible,       ///< search completed without finding any schedule
};

std::string to_string(JobOutcome o);

/// Folds an engine termination reason, solution flag and compromise flag
/// (SearchResult::compromised) into the taxonomy.
JobOutcome outcome_of(TerminationReason reason, bool found_solution,
                      bool compromised);

/// Stable process exit code for CLI front ends (docs/robustness.md):
/// optimal -> 0, feasible_timeout -> 3, cancelled -> 4, infeasible -> 5.
/// (1/2 are reserved for usage/runtime errors, 6 for a broken output
/// stream in parabb_serve.)
int exit_code_for(JobOutcome o);

/// One solve request. The graph/machine are owned by value: a request is
/// self-contained and outlives the client buffer it was parsed from.
struct JobRequest {
  std::string id;     ///< client-chosen tag, echoed in the response
  TaskGraph graph;
  Machine machine;
  /// The service owns every run-time attachment: all seven hook pointers
  /// (`cancel`, `certify`, `observe`, `faults`, `ckpt`, `resume`,
  /// `progress`) are ignored.
  Params params;
  int threads = 1;    ///< 1 = sequential engine; >1 = parallel engine
  int priority = 0;   ///< higher admits earlier; FIFO within a priority
  Budget budget;
  /// When true the solve records an optimality certificate
  /// (verify/certificate.hpp) and the result carries its text serialization.
  /// Certified solves disable the engines' bound-aware LB short-circuit, so
  /// they are slower than plain ones; the flag participates in the cache key.
  bool certify = false;
  /// When true the solve records recent search events into a per-worker
  /// flight recorder (obs/recorder.hpp) and, if the job ends early
  /// (feasible_timeout / cancelled), the result carries the dump —
  /// explaining where the budget went. Unlike `certify`, recording is
  /// read-beside and does not slow the bound computation; the flag still
  /// participates in the cache key (a dump-carrying result must not
  /// satisfy a plain request, or vice versa).
  bool flight = false;
};

/// One terminal response. `schedule` is meaningful iff `found`.
struct JobResult {
  std::string id;
  JobOutcome outcome = JobOutcome::kInfeasible;
  bool found = false;
  Schedule schedule;
  Time cost = kTimeInf;
  bool proved = false;
  Time certified_lower_bound = kTimeNegInf;
  TerminationReason reason = TerminationReason::kExhausted;
  std::uint64_t generated = 0;  ///< vertices cost-evaluated by the search
  bool cached = false;          ///< served from the result cache
  double seconds = 0.0;         ///< solve wall time (0 for cache hits)
  /// Non-empty when the job failed before/inside the engine (bad request,
  /// capacity limits). An errored job has no meaningful outcome fields.
  std::string error;
  /// Text-format optimality certificate (verify/certificate_io.hpp);
  /// non-empty iff the request set `certify`. Check it independently with
  /// `parabb_verify` or verify_certificate().
  std::string certificate;
  /// Serialized flight-recorder dump (one JSON object; see
  /// docs/observability.md). Non-empty iff the request set `flight` AND
  /// the job ended early (feasible_timeout / cancelled).
  std::string flight_json;
};

}  // namespace parabb
