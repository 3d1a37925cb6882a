// JSONL request/response protocol of the parabb_serve front end.
//
// One request per input line, one response per output line, correlated by
// the client-chosen `id`; responses may be emitted out of submission
// order (the service completes jobs as workers free up). The full schema
// lives in docs/formats.md ("Solver service protocol"); in brief:
//
//   request  {"id":"r1","graph":"task a exec=3\n...","procs":2,
//             "select":"lifo","budget":{"wall_ms":1000},...}
//   response {"id":"r1","outcome":"optimal","cost":-2,"proved":true,
//             "cached":false,"generated":41,"seconds":0.001,
//             "schedule":[{"task":"a","proc":0,"start":0,"finish":3},...]}
//   error    {"id":"r1","error":"tgf parse error at line 2: ..."}
//
// Response field order is fixed, so output lines are byte-deterministic
// for deterministic jobs (the serve smoke test diffs against a golden
// file after zeroing the "seconds" field).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "parabb/service/job.hpp"

namespace parabb {

struct MetricsSnapshot;  // obs/metrics.hpp

/// Hard cap on one request line. A line past this is rejected with a
/// structured error before JSON parsing — the graph is capped at
/// kMaxTasks tasks, so legitimate requests are orders of magnitude
/// smaller and an oversized line is a protocol error, not a big job.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Builds a Machine from the protocol/CLI spelling: `topology` is
/// "bus" | "ring" | "line" | "mesh<R>x<C>" (mesh overrides `procs`).
Machine machine_from_spec(int procs, Time comm_per_item,
                          const std::string& topology);

/// Parses one JSONL request line into a self-contained JobRequest.
/// Throws std::runtime_error on malformed JSON, a missing/invalid field,
/// or an invalid task graph. The thrown message is client-facing.
JobRequest request_from_json(const std::string& line);

/// Serializes a terminal result (error results included) as one JSONL
/// line, without the trailing newline. `graph` supplies task names for
/// the schedule entries and must be the request's graph.
std::string response_to_json(const JobResult& result, const TaskGraph& graph);

/// The error-response line for requests that failed before admission
/// (unparseable line: `id` may be empty, emitted as "?").
std::string error_response_json(const std::string& id,
                                const std::string& message);

/// The load-shedding response line: {"id":...,"outcome":"overloaded",
/// "retry_after_ms":N}. Emitted when admission control rejected the
/// request and the client should back off (docs/robustness.md).
std::string overloaded_response_json(const std::string& id,
                                     double retry_after_ms);

/// An in-band observability request: {"id":"m1","metrics":true} asks the
/// server for one registry snapshot, answered on the same stream as
/// {"id":"m1","metrics":{...}} (see docs/formats.md, "Metrics requests").
struct MetricsRequest {
  std::string id;
};

/// Classifies one input line. Returns nullopt when the line is not a
/// metrics request (no "metrics" member, or not parseable as a JSON
/// object) — the caller falls through to the solve-request path, which
/// owns the error reporting for those. A line that *is* a metrics
/// request but malformed (unknown field, wrong types, missing id) throws
/// std::runtime_error whose message carries `line_no`, e.g.
///   metrics request at line 7: unknown field 'metrcs_interval'
std::optional<MetricsRequest> parse_metrics_request(const std::string& line,
                                                    std::size_t line_no);

/// Serializes a snapshot as the response line for a metrics request
/// (without the trailing newline).
std::string metrics_response_json(const std::string& id,
                                  const MetricsSnapshot& snapshot);

}  // namespace parabb
