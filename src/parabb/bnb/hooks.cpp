#include "parabb/bnb/hooks.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "parabb/support/types.hpp"

namespace parabb {

CharacteristicFn make_deadline_characteristic() {
  return [](const SchedContext& ctx, const PartialSchedule& ps) {
    // LB0-style optimistic finish for every task; any miss kills the
    // subtree (for feasibility search).
    std::array<Time, kMaxTasks> fhat{};
    for (const TaskId t : ctx.topo_order()) {
      const auto ut = static_cast<std::size_t>(t);
      Time f;
      if (ps.scheduled().contains(t)) {
        f = Time{ps.finish(ctx, t)};
      } else {
        Time floor = ctx.arrival(t);
        for (const TaskId j : ctx.pred_ids(t)) {
          floor = std::max(floor, fhat[static_cast<std::size_t>(j)]);
        }
        f = floor + ctx.exec(t);
      }
      fhat[ut] = f;
      if (f > Time{ctx.deadline(t)}) return false;
    }
    return true;
  };
}

namespace {

/// Canonical per-processor signature: the (task, start) pairs hosted by
/// each processor, processors sorted so renamings compare equal.
using ProcSig = std::vector<std::pair<TaskId, CTime>>;

std::vector<ProcSig> signature(const SchedContext& ctx,
                               const PartialSchedule& ps) {
  std::vector<ProcSig> sig(static_cast<std::size_t>(ctx.proc_count()));
  for (const TaskId t : ps.scheduled()) {
    sig[static_cast<std::size_t>(ps.proc(t))].emplace_back(t, ps.start(t));
  }
  for (ProcSig& s : sig) std::sort(s.begin(), s.end());
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// True when every pair of distinct processors is the same number of hops
/// apart, so that any renaming of the processors keeps every message delay.
bool uniform_hops(const SchedContext& ctx) {
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    for (ProcId q = 0; q < ctx.proc_count(); ++q) {
      if (p != q && ctx.hop(p, q) != ctx.hop(0, 1)) return false;
    }
  }
  return true;
}

}  // namespace

DominanceFn make_processor_symmetry_dominance() {
  return [](const SchedContext& ctx, const PartialSchedule& a,
            const PartialSchedule& b) {
    if (a.scheduled() != b.scheduled() || !uniform_hops(ctx)) return false;
    return signature(ctx, a) == signature(ctx, b);
  };
}

Params feasibility_params() {
  Params p;
  p.ub = UpperBoundInit::kExplicit;
  p.explicit_ub = 1;  // accept only L_max <= 0 (every deadline met)
  p.characteristic = make_deadline_characteristic();
  return p;
}

}  // namespace parabb
