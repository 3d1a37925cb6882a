// Shared pieces of the ParaBB benchmark: seeded corpora, the metric report,
// in-memory spans, answer checks and the kernel probe pass. Everything here
// sits outside the library: the benchmark only calls public entry points.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/platform/machine.hpp"
#include "parabb/sched/schedule.hpp"
#include "parabb/taskgraph/graph.hpp"

namespace perfbench {

using parabb::Machine;
using parabb::Schedule;
using parabb::TaskGraph;
using parabb::Time;

/// Seconds on the steady clock since the first call in the process.
double now_s();

/// One scheduling problem: a §4.1 graph with sliced deadlines on a
/// shared-bus machine.
struct Instance {
  TaskGraph graph;
  Machine machine;
};

/// How a workload draws its graphs. Instance i of a corpus is a pure
/// function of (seed, stream, i), so two workloads that share a stream
/// solve the same problems.
struct CorpusSpec {
  std::uint64_t stream = 0;
  int n_min = 12;
  int n_max = 16;
  int m_first = 2;  ///< processors of instance i: m_first + i % m_count
  int m_count = 3;
};

std::vector<Instance> make_corpus(const CorpusSpec& spec, std::uint64_t seed,
                                  std::size_t count);

/// Linear-interpolation percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  ///< what a ratio or total is taken over
};

/// Everything one run reports: metrics, the request tally and the answer
/// checks that failed.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> wrong;  ///< answer-check failures
  bool print = true;               ///< echo each metric to stdout

  void add(std::string name, double value, std::string unit,
           std::string base = {});
  void mismatch(std::string what);
  bool correct() const { return wrong.empty(); }
};

/// A timed interval recorded from the benchmark's own code. Spans of one
/// solve or request share `id`; `parent` names the enclosing span.
struct Span {
  std::uint64_t id = 0;
  std::string name;
  std::string parent;
  double start_s = 0;
  double dur_s = 0;
};

/// Spans kept in memory and written as JSONL when the run ends.
class Trace {
 public:
  void add(std::uint64_t id, std::string name, std::string parent,
           double start_s, double end_s);
  /// Per span name: total duration and self time (duration minus the
  /// durations of its children with the same id), as report lines.
  void report_self_times(Report& report) const;
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Proved optima kept with the benchmark for its default seed, keyed by
/// "<corpus> <index>".
class Reference {
 public:
  static constexpr std::uint64_t kDefaultSeed = 1;
  /// Loads `path` when `seed` is the default seed; otherwise stays empty.
  Reference(const std::string& path, std::uint64_t seed);
  std::optional<Time> optimum(const std::string& corpus,
                              std::size_t index) const;

 private:
  std::map<std::string, Time> optima_;
};

/// Empty when `schedule` is valid for the instance (structure, precedence
/// and communication; deadlines may be missed) and its recomputed maximum
/// lateness equals `claimed`; otherwise the first problem found.
std::string check_answer(const Instance& inst, const Schedule& schedule,
                         Time claimed);

/// Checks a proved or budget-limited cost against the reference optimum:
/// a proof must match it, an incumbent may not beat it.
std::string check_against_reference(const Reference& ref,
                                    const std::string& corpus,
                                    std::size_t index, Time cost,
                                    bool proved);

struct CertCheck {
  bool certified = false;
  std::string error;
  std::uint64_t replayed = 0;
  double seconds = 0;
};
/// Parses certificate text against the instance and runs the independent
/// verifier on it.
CertCheck check_certificate(const Instance& inst, const std::string& text);

/// Unit costs of the search kernels, timed on states drawn from a corpus.
struct ProbeCosts {
  double place_unplace_ns = 0;
  double lb1_eval_ns = 0;
  double lb2_eval_ns = 0;
  double lifo_push_pop_ns = 0;
  double llb_push_pop_ns = 0;
  double tt_probe_ns = 0;
  double tt_create_us = 0;
  double edf_us_p50 = 0;
  double context_us_p50 = 0;
};
ProbeCosts run_probes(const std::vector<Instance>& corpus, std::uint64_t seed);
void report_probes(const ProbeCosts& costs, Report& report);

/// Resident-set high-water mark of this process, in MiB.
double peak_rss_mib();

struct Options {
  std::string workload;
  std::uint64_t seed = Reference::kDefaultSeed;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string reference;
};

/// The four workloads. Each fills `report` and returns normally; wrong
/// answers are recorded in report.wrong.
void run_solve_workload(const Options& opt, Report& report);
void run_serve_workload(const Options& opt, Report& report);

/// A short traced serve_mix pass whose service.* and verify.* metrics (and
/// answer checks) go into `report`. The solve workloads' traced runs call
/// it, so the service and certificate layers are measured by a gated
/// workload.
void measure_service_layers(const Options& opt, Report& report);

/// Proved optima for the default seed, one "<corpus> <index> <cost>" line
/// per instance a strong reference configuration proves.
void write_reference(const Options& opt, const std::string& path);

/// Shows that a tampered cost and a tampered certificate are caught.
/// Returns the process exit code.
int run_selftest();

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

/// Corpus sizes per second of --seconds, shared by the workloads and the
/// reference writer so both enumerate the same instances.
std::size_t solve_corpus_size(const std::string& workload, double seconds);
std::size_t serve_request_count(double seconds);
CorpusSpec solve_corpus_spec(const std::string& workload);
CorpusSpec serve_corpus_spec();

}  // namespace perfbench
