#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/rng.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "parabb/verify/verifier.hpp"
#include "parabb/workload/generator.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

std::vector<Instance> make_corpus(const CorpusSpec& spec, std::uint64_t seed,
                                  std::size_t count) {
  parabb::GeneratorConfig gen = parabb::paper_config();
  parabb::SlicingConfig slicing;
  slicing.laxity = 1.5;
  slicing.base = parabb::LaxityBase::kPathWork;
  const std::uint64_t base = parabb::derive_seed(seed, spec.stream);
  const auto m_count = static_cast<std::size_t>(spec.m_count);
  const auto n_count = static_cast<std::size_t>(spec.n_max - spec.n_min + 1);
  std::vector<Instance> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Task and processor counts cycle through every pair instead of being
    // drawn, so the hard (large n, large m) share of a corpus is the same
    // for every seed; the seed picks the graphs within each pair.
    gen.n_min = gen.n_max = spec.n_min + static_cast<int>((i / m_count) % n_count);
    const int m = spec.m_first + static_cast<int>(i % m_count);
    parabb::GeneratedGraph g = parabb::generate_graph(gen,
                                                      parabb::derive_seed(base, i));
    parabb::assign_deadlines_slicing(g.graph, slicing);
    corpus.push_back({std::move(g.graph), parabb::make_shared_bus_machine(m)});
  }
  return corpus;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::add(std::string name, double value, std::string unit,
                 std::string base) {
  if (print) {
    std::printf("metric %-28s %14.6g %-6s %s\n", name.c_str(), value,
                unit.c_str(), base.c_str());
  }
  metrics.push_back({std::move(name), value, std::move(unit), std::move(base)});
}

void Report::mismatch(std::string what) {
  // Every failure is printed; the first few are enough to debug from.
  std::fprintf(stderr, "WRONG ANSWER: %s\n", what.c_str());
  wrong.push_back(std::move(what));
}

void Trace::add(std::uint64_t id, std::string name, std::string parent,
                double start_s, double end_s) {
  spans_.push_back(
      {id, std::move(name), std::move(parent), start_s, end_s - start_s});
}

void Trace::report_self_times(Report& report) const {
  // Children are matched to their parent by (id, parent name): each solve
  // or request has at most one span of each name.
  std::unordered_map<std::uint64_t, std::vector<const Span*>> by_id;
  for (const Span& s : spans_) by_id[s.id].push_back(&s);
  struct Total {
    double dur = 0;
    double self = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Total> totals;
  for (const auto& [id, group] : by_id) {
    for (const Span* s : group) {
      double children = 0;
      for (const Span* c : group) {
        if (c->parent == s->name) children += c->dur_s;
      }
      Total& t = totals[s->name];
      t.dur += s->dur_s;
      t.self += std::max(0.0, s->dur_s - children);
      ++t.count;
    }
  }
  for (const auto& [name, t] : totals) {
    report.add("self_ms." + name, t.self * 1e3, "ms",
               "of " + std::to_string(t.dur * 1e3) + " ms total over " +
                   std::to_string(t.count) + " spans");
  }
}

void Trace::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    parabb::JsonValue o = parabb::JsonValue::object();
    o.set("id", static_cast<std::uint64_t>(s.id));
    o.set("span", s.name);
    o.set("parent", s.parent);
    o.set("start_s", s.start_s);
    o.set("dur_s", s.dur_s);
    out << o.dump() << '\n';
  }
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

Reference::Reference(const std::string& path, std::uint64_t seed) {
  if (seed != kDefaultSeed || path.empty()) return;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: no reference optima at %s\n",
                 path.c_str());
    return;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string corpus;
    std::size_t index = 0;
    Time cost = 0;
    if (is >> corpus >> index >> cost) {
      optima_[corpus + " " + std::to_string(index)] = cost;
    }
  }
}

std::optional<Time> Reference::optimum(const std::string& corpus,
                                       std::size_t index) const {
  const auto it = optima_.find(corpus + " " + std::to_string(index));
  if (it == optima_.end()) return std::nullopt;
  return it->second;
}

std::string check_answer(const Instance& inst, const Schedule& schedule,
                         Time claimed) {
  if (schedule.task_count() != inst.graph.task_count()) {
    return "schedule covers " + std::to_string(schedule.task_count()) +
           " of " + std::to_string(inst.graph.task_count()) + " tasks";
  }
  const parabb::ValidationReport v =
      parabb::validate_schedule(schedule, inst.graph, inst.machine);
  if (!v.structurally_sound) return "invalid schedule: " + v.error;
  const Time actual = parabb::max_lateness(schedule, inst.graph);
  if (actual != claimed) {
    return "reported cost " + std::to_string(claimed) +
           " but the schedule's maximum lateness is " + std::to_string(actual);
  }
  return {};
}

std::string check_against_reference(const Reference& ref,
                                    const std::string& corpus,
                                    std::size_t index, Time cost,
                                    bool proved) {
  const std::optional<Time> opt = ref.optimum(corpus, index);
  if (!opt) return {};
  if (proved && cost != *opt) {
    return "proved cost " + std::to_string(cost) + " but reference optimum " +
           std::to_string(*opt);
  }
  if (cost < *opt) {
    return "cost " + std::to_string(cost) + " beats the reference optimum " +
           std::to_string(*opt);
  }
  return {};
}

CertCheck check_certificate(const Instance& inst, const std::string& text) {
  CertCheck out;
  const double t0 = now_s();
  try {
    const parabb::Certificate cert =
        parabb::certificate_from_text(text, inst.graph);
    const parabb::VerifyReport r =
        parabb::verify_certificate(inst.graph, inst.machine, cert);
    out.certified = r.certified;
    out.replayed = r.replayed;
    if (!r.certified) {
      out.error = r.error.empty() ? r.summary() : r.error;
    }
  } catch (const std::exception& e) {
    out.error = std::string("unreadable certificate: ") + e.what();
  }
  out.seconds = now_s() - t0;
  return out;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
