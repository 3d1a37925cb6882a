// Graceful-degradation ladder for search under memory pressure.
//
// The paper's RB resource bounds stop the search with a cliff: once the
// active-set memory budget (MAXSZAS / rb.max_memory_bytes) is exhausted
// the engines dispose work, mark the result compromised, and stop.
// Following Orr & Sinnen's memory-limited B&B results (PAPERS.md),
// degrading the *strategy* under pressure preserves far more solution
// quality than truncating the search: as memory usage crosses fixed
// high-water fractions of the budget (kDegradeLadder), the engines step
// down
//
//   shed the transposition table  ->  tighten MAXSZDB  ->  BFn -> BF1  ->  DF
//
// before resorting to disposal. Each rung fires once per run
// (monotone), is counted in SearchStats::degrade_steps / the
// parabb_degrade_steps_total metric, emitted as a kDegrade flight event,
// and recorded in the optimality certificate so parabb_verify can audit
// a degraded run. With Params::degrade off (the default) no ladder state
// is consulted anywhere and the search is byte-identical to a build
// without this header.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace parabb {

enum class DegradeAction : std::uint8_t {
  kShedTT,     // disable the transposition table and free its slots
  kTightenDB,  // tighten the effective MAXSZDB child cap
  kBF1,        // BFn -> BF1 branching (one task, all processors)
  kDF,         // BF1 -> DF branching (depth-first dive)
};

std::string to_string(DegradeAction a);
bool parse_degrade_action(std::string_view text, DegradeAction& out);

struct DegradeRung {
  double frac;  ///< fires once memory use reaches this fraction of budget
  DegradeAction action;
};

/// The ladder, in firing order. The search governor tracks the level
/// reached, i.e. how many of these rungs have fired.
inline constexpr std::array<DegradeRung, 4> kDegradeLadder = {{
    {0.55, DegradeAction::kShedTT},
    {0.70, DegradeAction::kTightenDB},
    {0.80, DegradeAction::kBF1},
    {0.90, DegradeAction::kDF},
}};

/// How many rungs should have fired at this usage level. Monotone in
/// `used_bytes`; 0 when the budget is 0.
int degrade_target_level(std::size_t used_bytes, std::size_t budget_bytes);

/// Effective MAXSZDB after kTightenDB on `procs` processors.
int tightened_child_cap(int procs);

}  // namespace parabb
