// The parametrized branch-and-bound engine (paper §3, Figure 1).
//
// Faithful to the published pseudo-code with the paper's own refinement:
// goal vertices are never inserted into the active set — a goal either
// improves the incumbent (upper-bound solution) or is pruned on the spot.
#pragma once

#include <array>
#include <cstdint>

#include "parabb/bnb/params.hpp"
#include "parabb/sched/schedule.hpp"

namespace parabb {

enum class TerminationReason : std::uint8_t {
  kExhausted,   ///< active set ran empty
  kBoundStop,   ///< S_LLB stop condition: selected bound >= incumbent
  kTimeLimit,   ///< RB.TIMELIMIT exceeded; best-so-far returned
  kCancelled,   ///< cooperative CancelToken tripped; best-so-far returned
  kBudget,      ///< RB.max_generated / max_memory_bytes hit; best-so-far
};

/// True for the reasons that end a search early with the incumbent
/// (time limit, cancellation, budget exhaustion) rather than by proof.
constexpr bool is_interrupted(TerminationReason r) noexcept {
  return r == TerminationReason::kTimeLimit ||
         r == TerminationReason::kCancelled ||
         r == TerminationReason::kBudget;
}

struct SearchStats {
  std::uint64_t expanded = 0;        ///< vertices selected and branched
  std::uint64_t generated = 0;       ///< child vertices cost-evaluated
  std::uint64_t activated = 0;       ///< children inserted into AS
  std::uint64_t goals = 0;           ///< complete solutions encountered
  std::uint64_t goal_updates = 0;    ///< incumbent improvements
  std::uint64_t pruned_children = 0; ///< children discarded before insertion
  std::uint64_t pruned_active = 0;   ///< AS entries removed by E_U/DBAS
  std::uint64_t disposed = 0;        ///< AS entries dropped by RB.MAXSZAS
  std::uint64_t tt_hits = 0;         ///< duplicates pruned by the table
  std::uint64_t tt_misses = 0;       ///< table probes that found no duplicate
  std::uint64_t tt_evictions = 0;    ///< table entries replaced (memory cap)
  std::uint64_t tt_collisions = 0;   ///< equal fingerprint, unequal state
  /// Parallel engine only (zero for the sequential engine): victim-deque
  /// probes by idle workers, and probes that came back with at least one
  /// vertex.
  std::uint64_t steals_attempted = 0;
  std::uint64_t steals_succeeded = 0;
  /// Degradation-ladder rungs applied (robust/degrade.hpp); zero unless
  /// Params::degrade is on and memory pressure forced a step-down.
  std::uint64_t degrade_steps = 0;
  std::size_t peak_active = 0;       ///< max |AS| observed
  std::size_t peak_memory_bytes = 0; ///< max vertex-pool footprint
  double seconds = 0.0;              ///< wall time of the search
};

/// One uint64 counter of SearchStats.
struct SearchStatsField {
  const char* name;  ///< short name ("expanded"); metric is
                     ///< parabb_search_<name>_total unless overridden
  std::uint64_t SearchStats::*member;
  /// Full metric name override (null -> parabb_search_<name>_total). The
  /// steal counters use it: their published names are
  /// parabb_steals_*_total, not parabb_search_steals_*_total.
  const char* metric = nullptr;
};

inline constexpr std::size_t kSearchStatsFieldCount = 15;
/// Every uint64 counter of SearchStats, once. Metric names, stats-JSON
/// rows, the worker merge (bnb/search_obs.hpp) and the snapshot codec
/// (ckpt/snapshot.cpp) all walk this table, so a counter added to
/// SearchStats is wired everywhere by adding one row. The row order is the
/// snapshot's byte order.
inline constexpr std::array<SearchStatsField, kSearchStatsFieldCount>
    kSearchStatsFields = {{
        {"expanded", &SearchStats::expanded},
        {"generated", &SearchStats::generated},
        {"activated", &SearchStats::activated},
        {"goals", &SearchStats::goals},
        {"goal_updates", &SearchStats::goal_updates},
        {"pruned_children", &SearchStats::pruned_children},
        {"pruned_active", &SearchStats::pruned_active},
        {"disposed", &SearchStats::disposed},
        {"tt_hits", &SearchStats::tt_hits},
        {"tt_misses", &SearchStats::tt_misses},
        {"tt_evictions", &SearchStats::tt_evictions},
        {"tt_collisions", &SearchStats::tt_collisions},
        {"steals_attempted", &SearchStats::steals_attempted,
         "parabb_steals_attempted_total"},
        {"steals_succeeded", &SearchStats::steals_succeeded,
         "parabb_steals_succeeded_total"},
        {"degrade_steps", &SearchStats::degrade_steps,
         "parabb_degrade_steps_total"},
    }};

struct SearchResult {
  /// True when `best` holds an actual schedule (always true with
  /// U = kFromEDF; with other initializations the search may fail).
  bool found_solution = false;
  Schedule best;
  Time best_cost = kTimeInf;

  /// True when the result carries the full guarantee: cost within BR of
  /// optimal. Requires the complete branching rule (BFn), no resource-bound
  /// compromise, and a normally terminated search.
  bool proved = false;

  /// A certified lower bound on the optimal cost: no schedule can beat
  /// this value. Equals `best_cost` when the search proved optimality;
  /// after a TIMELIMIT or disposal-compromised run it is the least bound
  /// among the abandoned active vertices, so `best_cost -
  /// certified_lower_bound` is a sound optimality gap. Only meaningful
  /// with the complete branching rule (BFn); kTimeNegInf otherwise.
  Time certified_lower_bound = kTimeNegInf;

  TerminationReason reason = TerminationReason::kExhausted;
  SearchStats stats;
};

/// Runs the B&B algorithm of Figure 1 on `ctx` with parameters `params`.
SearchResult solve_bnb(const SchedContext& ctx, const Params& params);

/// The bound below which a vertex must stay to survive E_U/DBAS given the
/// incumbent cost and the BR inaccuracy limit: vertices with
/// lb >= incumbent - floor(br*|incumbent|) are pruned. Exposed for tests.
Time prune_threshold(Time incumbent, double br);

}  // namespace parabb
