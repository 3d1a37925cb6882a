#include "parabb/robust/degrade.hpp"

#include <algorithm>

namespace parabb {

namespace {

/// Children per processor the kTightenDB rung leaves an expansion.
constexpr int kTightenedChildrenPerProc = 2;

}  // namespace

std::string to_string(DegradeAction a) {
  switch (a) {
    case DegradeAction::kShedTT: return "shed_tt";
    case DegradeAction::kTightenDB: return "tighten_db";
    case DegradeAction::kBF1: return "bf1";
    case DegradeAction::kDF: return "df";
  }
  return "?";
}

bool parse_degrade_action(std::string_view text, DegradeAction& out) {
  if (text == "shed_tt") { out = DegradeAction::kShedTT; return true; }
  if (text == "tighten_db") { out = DegradeAction::kTightenDB; return true; }
  if (text == "bf1") { out = DegradeAction::kBF1; return true; }
  if (text == "df") { out = DegradeAction::kDF; return true; }
  return false;
}

int tightened_child_cap(int procs) {
  return std::max(1, procs * kTightenedChildrenPerProc);
}

int degrade_target_level(std::size_t used_bytes, std::size_t budget_bytes) {
  if (budget_bytes == 0) return 0;
  const double frac =
      static_cast<double>(used_bytes) / static_cast<double>(budget_bytes);
  int level = 0;
  for (const DegradeRung& rung : kDegradeLadder) {
    if (frac < rung.frac) break;
    ++level;
  }
  return level;
}

}  // namespace parabb
