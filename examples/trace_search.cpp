// Watching the branch-and-bound search unfold.
//
// Attaches a flight recorder (obs/recorder.hpp) to a small optimal search
// and summarizes its event stream: the dive profile (expansions per
// level), the incumbent trajectory, the pruned children split by the rule
// that cut them, and the last events verbatim. A compact way to *see* why
// LIFO works: goals appear almost immediately and the incumbent ratchets
// down within the first few hundred events.
//
// The recorder reads beside the search: attaching it changes nothing the
// engine explores or returns, including the bound-aware short-circuit of
// the lower bound. A pruned child's recorded value is therefore at least
// the prune threshold, but not always its exact bound.
//
//   $ ./trace_search [--procs 2] [--seed 7] [--tail 25]
#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "parabb/support/cli.hpp"
#include "parabb/workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace parabb;

  ArgParser parser("trace_search", "Visualize a B&B search event stream");
  parser.add_option("procs", "processor count", "2");
  parser.add_option("seed", "workload seed", "7");
  parser.add_option("tail", "final trace events to print verbatim", "25");
  if (!parser.parse(argc, argv)) return 0;

  GeneratedGraph gen = generate_graph(
      paper_config(), static_cast<std::uint64_t>(parser.get_int("seed")));
  SlicingConfig tight;
  tight.base = LaxityBase::kPathWork;
  tight.laxity = 1.2;
  assign_deadlines_slicing(gen.graph, tight);
  const SchedContext ctx(
      gen.graph,
      make_shared_bus_machine(static_cast<int>(parser.get_int("procs"))));

  FlightRecorder recorder(std::size_t{1} << 22);
  Observation observe;
  observe.recorder = &recorder;
  Params params;
  params.observe = &observe;
  const SearchResult r = solve_bnb(ctx, params);
  const FlightChannel& channel = recorder.channel(0);
  const std::vector<FlightEvent> log = channel.chronological();

  std::printf("instance: %d tasks on %d processors; optimal lateness %lld "
              "(%s), %llu events recorded",
              ctx.task_count(), ctx.proc_count(),
              static_cast<long long>(r.best_cost),
              r.proved ? "proved" : "unproved",
              static_cast<unsigned long long>(channel.total()));
  if (channel.dropped() > 0) {
    std::printf(" (oldest %llu dropped)",
                static_cast<unsigned long long>(channel.dropped()));
  }
  std::printf("\n\n");

  // Dive profile, incumbents, and child-level prunes (level >= 0; the
  // active-set prunes carry level -1) per rule.
  std::array<std::uint64_t, kMaxTasks + 1> expands_per_level{};
  std::vector<std::pair<std::uint64_t, std::int64_t>> incumbents;
  constexpr FlightPruneRule kRules[] = {
      FlightPruneRule::kBound, FlightPruneRule::kCharacteristic,
      FlightPruneRule::kTransposition};
  std::array<std::uint64_t, std::size(kRules)> prunes_by_rule{};
  std::uint64_t prunes = 0;
  for (const FlightEvent& e : log) {
    switch (e.kind) {
      case FlightEventKind::kExpand:
        ++expands_per_level[static_cast<std::size_t>(e.level)];
        break;
      case FlightEventKind::kIncumbent:
        incumbents.emplace_back(e.seq, e.value);
        break;
      case FlightEventKind::kPrune:
        if (e.level < 0) break;
        ++prunes;
        for (std::size_t i = 0; i < std::size(kRules); ++i) {
          if (e.rule == kRules[i]) ++prunes_by_rule[i];
        }
        break;
      default:
        break;
    }
  }

  std::printf("expansions by search-tree level (dive profile):\n");
  for (int lvl = 0; lvl <= ctx.task_count(); ++lvl) {
    const std::uint64_t c = expands_per_level[static_cast<std::size_t>(lvl)];
    if (c == 0) continue;
    std::printf("  level %2d  %8llu  ", lvl,
                static_cast<unsigned long long>(c));
    const int bar = static_cast<int>(
        std::min<std::uint64_t>(50, c * 50 /
                                        std::max<std::uint64_t>(
                                            1, r.stats.expanded)));
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf("\n");
  }

  std::printf("\nincumbent trajectory (event index -> cost):\n");
  if (incumbents.empty()) {
    std::printf("  (the EDF seed was already optimal)\n");
  }
  for (const auto& [idx, cost] : incumbents) {
    std::printf("  @%-10llu %lld\n", static_cast<unsigned long long>(idx),
                static_cast<long long>(cost));
  }
  std::printf("\nchildren pruned before activation: %llu of %llu generated "
              "(%.1f%%)\n",
              static_cast<unsigned long long>(prunes),
              static_cast<unsigned long long>(r.stats.generated),
              r.stats.generated
                  ? 100.0 * static_cast<double>(prunes) /
                        static_cast<double>(r.stats.generated)
                  : 0.0);
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    std::printf("  %-15s %llu\n", to_string(kRules[i]).c_str(),
                static_cast<unsigned long long>(prunes_by_rule[i]));
  }

  const auto tail = static_cast<std::size_t>(parser.get_int("tail"));
  std::printf("\nlast %zu events:\n", std::min(tail, log.size()));
  for (std::size_t i = log.size() > tail ? log.size() - tail : 0;
       i < log.size(); ++i) {
    const FlightEvent& e = log[i];
    std::printf("  #%-8llu %-10s level=%-3d value=%lld",
                static_cast<unsigned long long>(e.seq),
                to_string(e.kind).c_str(), e.level,
                static_cast<long long>(e.value));
    if (e.kind == FlightEventKind::kPrune) {
      std::printf(" rule=%s", to_string(e.rule).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
