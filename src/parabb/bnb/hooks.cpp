#include "parabb/bnb/hooks.hpp"

#include <algorithm>
#include <array>

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

Params feasibility_params() {
  Params p;
  p.ub = UpperBoundInit::kExplicit;
  p.explicit_ub = 1;  // accept only L_max <= 0 (every deadline met)
  p.characteristic = make_deadline_characteristic();
  return p;
}

}  // namespace parabb
