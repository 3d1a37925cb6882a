// parabb_perfbench: the ParaBB benchmark program. perfbench/run.py builds
// and runs it; see perfbench/README.md for the workloads and metrics.
//
//   parabb_perfbench --workload solve_seq --seed 1 --seconds 20 --trace 0
//   parabb_perfbench --selftest
//   parabb_perfbench --write-reference perfbench/reference/optima-seed1.txt
//
// Human-readable lines go to stdout; the last line is one JSON object with
// the stamp, the answer-check verdict and every metric.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/support/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

parabb::JsonValue stamp() {
  parabb::JsonValue s = parabb::JsonValue::object();
  s.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  s.set("cpu_model", cpu_model());
#if defined(__clang__)
  s.set("compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  s.set("compiler", std::string("gcc ") + __VERSION__);
#else
  s.set("compiler", std::string("unknown"));
#endif
  s.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  return s;
}

void print_result(const Options& opt, const Report& report) {
  parabb::JsonValue out = parabb::JsonValue::object();
  out.set("workload", opt.workload);
  out.set("seed", static_cast<std::uint64_t>(opt.seed));
  out.set("seconds", opt.seconds);
  out.set("trace", opt.trace);
  out.set("stamp", stamp());
  out.set("correct", report.correct());
  out.set("attempted", static_cast<std::uint64_t>(report.attempted));
  out.set("failed", static_cast<std::uint64_t>(report.failed));
  parabb::JsonValue wrong = parabb::JsonValue::array();
  for (std::size_t i = 0; i < report.wrong.size() && i < 20; ++i) {
    wrong.push_back(report.wrong[i]);
  }
  out.set("wrong", std::move(wrong));
  parabb::JsonValue metrics = parabb::JsonValue::object();
  for (const Metric& m : report.metrics) {
    parabb::JsonValue v = parabb::JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    v.set("base", m.base);
    metrics.set(m.name, std::move(v));
  }
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
}

/// The reference configuration: sequential LIFO with LB2 and the
/// transposition table and a 3M-vertex budget. Its bound and duplicate
/// pruning differ from every workload's, so agreement is a real check.
void solve_reference(const std::string& corpus_name,
                     const std::vector<Instance>& corpus, std::ofstream& out) {
  parabb::Params p;
  p.lb = parabb::LowerBound::kLB2;
  p.transposition.enabled = true;
  p.rb.max_generated = 3'000'000;
  std::vector<std::optional<Time>> optima(corpus.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < corpus.size(); i = next++) {
        const parabb::SchedContext ctx(corpus[i].graph, corpus[i].machine);
        const parabb::SearchResult r = parabb::solve_bnb(ctx, p);
        if (r.proved) optima[i] = r.best_cost;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::size_t proved = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (!optima[i]) continue;
    out << corpus_name << ' ' << i << ' ' << *optima[i] << '\n';
    ++proved;
  }
  std::printf("reference %s: %zu of %zu instances proved\n",
              corpus_name.c_str(), proved, corpus.size());
}

}  // namespace

void write_reference(const Options& opt, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Proved optimal maximum lateness, \"<corpus> <index> <cost>\", for\n"
      << "# seed " << opt.seed << " at --seconds " << opt.seconds
      << ". Regenerate with: parabb_perfbench --write-reference PATH\n";
  const std::size_t seq = std::max(solve_corpus_size("solve_seq", opt.seconds),
                                   solve_corpus_size("solve_llb", opt.seconds));
  solve_reference("seq", make_corpus(solve_corpus_spec("solve_seq"), opt.seed, seq),
                  out);
  solve_reference("par",
                  make_corpus(solve_corpus_spec("solve_par"), opt.seed,
                              solve_corpus_size("solve_par", opt.seconds)),
                  out);
  // Request bodies never outnumber requests, so this covers every graph.
  solve_reference("serve",
                  make_corpus(serve_corpus_spec(), opt.seed,
                              serve_request_count(opt.seconds)),
                  out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string reference_out;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--out") opt.out_dir = value();
      else if (a == "--reference") opt.reference = value();
      else if (a == "--write-reference") reference_out = value();
      else if (a == "--selftest") selftest = true;
      else throw std::invalid_argument("unknown option " + a);
    }
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    if (selftest) return run_selftest();
    if (!reference_out.empty()) {
      write_reference(opt, reference_out);
      return 0;
    }
    ::mkdir(opt.out_dir.c_str(), 0755);
    Report report;
    if (opt.workload == "serve_mix") {
      run_serve_workload(opt, report);
    } else {
      run_solve_workload(opt, report);
    }
    std::printf("answers: %s (%zu wrong), %llu attempted, %llu failed\n",
                report.correct() ? "all correct" : "WRONG", report.wrong.size(),
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    print_result(opt, report);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parabb_perfbench: %s\n", e.what());
    return 2;
  }
}
