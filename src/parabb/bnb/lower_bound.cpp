#include "parabb/bnb/lower_bound.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "parabb/support/assert.hpp"

namespace parabb {
namespace {

/// Workload packing term of LB2. Considers unscheduled tasks in increasing
/// absolute-deadline order; the prefix with deadlines <= D forms work W_D
/// that m processors, free no earlier than avail_q each, must complete.
Time packing_bound(const SchedContext& ctx, const PartialSchedule& ps) {
  const int n = ctx.task_count();
  const int m = ctx.proc_count();

  std::array<TaskId, kMaxTasks> order{};
  int k = 0;
  for (TaskId t = 0; t < n; ++t) {
    if (!ps.scheduled().contains(t)) order[static_cast<std::size_t>(k++)] = t;
  }
  if (k == 0) return kTimeNegInf;
  std::sort(order.begin(), order.begin() + k, [&](TaskId a, TaskId b) {
    return ctx.deadline(a) < ctx.deadline(b);
  });

  Time avail_sum = 0;
  for (ProcId p = 0; p < m; ++p) avail_sum += ps.proc_avail(p);

  Time bound = kTimeNegInf;
  Time work = 0;
  for (int i = 0; i < k; ++i) {
    const TaskId t = order[static_cast<std::size_t>(i)];
    work += ctx.exec(t);
    // Last deadline of a group of equal deadlines dominates; skipping the
    // inner ones is only an optimization, correctness holds either way.
    const Time d = ctx.deadline(t);
    const Time completion =
        (avail_sum + work + m - 1) / m;  // ceil; operands are non-negative
    bound = std::max(bound, completion - d);
  }
  return bound;
}

}  // namespace

Time lower_bound_cost(const SchedContext& ctx, const PartialSchedule& ps,
                      LowerBound kind) {
  const bool contention = kind != LowerBound::kLB0;
  const Time lmin = contention ? Time{ps.min_proc_avail(ctx)} : 0;

  std::array<Time, kMaxTasks> fhat{};
  Time worst = kTimeNegInf;

  for (const TaskId t : ctx.topo_order()) {
    const auto ut = static_cast<std::size_t>(t);
    Time f;
    if (ps.scheduled().contains(t)) {
      f = Time{ps.finish(ctx, t)};
    } else {
      const Time a = ctx.arrival(t);
      const Time c = ctx.exec(t);
      Time start_floor = contention ? std::max(a, lmin) : a;
      for (std::size_t idx = 0; idx < ctx.pred_ids(t).size(); ++idx) {
        const TaskId j = ctx.pred_ids(t)[idx];
        start_floor = std::max(start_floor,
                               fhat[static_cast<std::size_t>(j)]);
      }
      f = start_floor + c;
    }
    fhat[ut] = f;
    worst = std::max(worst, f - Time{ctx.deadline(t)});
  }

  if (kind == LowerBound::kLB2) {
    worst = std::max(worst, packing_bound(ctx, ps));
  }
  return worst;
}

Time exact_cost(const SchedContext& ctx, const PartialSchedule& ps) {
  PARABB_ASSERT(ps.complete(ctx));
  return ps.max_lateness_scheduled(ctx);
}

void IncrementalLB::attach(const PartialSchedule& ps) noexcept {
  const SchedContext& ctx = *ctx_;
  avail_sum_ = 0;
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    avail_sum_ += Time{ps.proc_avail(p)};
  }
  worst_sched_ = kTimeNegInf;
  for (const TaskId t : ps.scheduled()) {
    const Time f = Time{ps.finish(ctx, t)};
    fhat_[static_cast<std::size_t>(t)] = f;
    worst_sched_ = std::max(worst_sched_, f - Time{ctx.deadline(t)});
  }
  unsched_topo_ = 0;
  unsched_dl_ = 0;
  unsched_work_ = 0;
  for (const TaskId t : ctx.all_tasks() - ps.scheduled()) {
    unsched_topo_ |= 1ULL << ctx.topo_rank(t);
    unsched_dl_ |= 1ULL << ctx.deadline_rank(t);
    unsched_work_ += Time{ctx.exec(t)};
  }
  depth_ = 0;
}

CTime IncrementalLB::place(PartialSchedule& ps, TaskId t, ProcId p) noexcept {
  const SchedContext& ctx = *ctx_;
  const CTime before = ps.proc_avail(p);
  const CTime s = ps.place(ctx, t, p);
  const CTime f = s + ctx.exec(t);
  avail_sum_ += Time{f} - Time{before};
  unsched_work_ -= Time{ctx.exec(t)};
  unsched_topo_ &= ~(1ULL << ctx.topo_rank(t));
  unsched_dl_ &= ~(1ULL << ctx.deadline_rank(t));
  fhat_[static_cast<std::size_t>(t)] = Time{f};
  PARABB_ASSERT(depth_ <= kMaxTasks);
  undo_[static_cast<std::size_t>(depth_++)] = Undo{worst_sched_, before};
  worst_sched_ = std::max(worst_sched_, Time{f} - Time{ctx.deadline(t)});
  return s;
}

void IncrementalLB::unplace(PartialSchedule& ps, TaskId t) noexcept {
  const SchedContext& ctx = *ctx_;
  PARABB_ASSERT(depth_ > 0);
  const Undo& undo = undo_[static_cast<std::size_t>(--depth_)];
  const CTime finish = ps.proc_avail(ps.proc(t));
  ps.unplace(ctx, t, undo.frontier);
  avail_sum_ -= Time{finish} - Time{undo.frontier};
  unsched_work_ += Time{ctx.exec(t)};
  unsched_topo_ |= 1ULL << ctx.topo_rank(t);
  unsched_dl_ |= 1ULL << ctx.deadline_rank(t);
  worst_sched_ = undo.worst_sched;
}

Time IncrementalLB::evaluate(const PartialSchedule& ps, LowerBound kind,
                             Time cutoff) noexcept {
  const SchedContext& ctx = *ctx_;
  // Seeding with exact floors (the scheduled prefix and the static
  // a+c−D floor, both <= every f̂−D they cover) cannot change the final
  // maximum — it only lets the cutoff fire before any work happens.
  const Time worst = std::max(worst_sched_, ctx.static_lateness_floor());
  if (worst >= cutoff) return worst;
  // LB0 has no contention term; kTimeNegInf leaves every start at a_i.
  const Time lmin = kind == LowerBound::kLB0
                        ? kTimeNegInf
                        : Time{ps.min_proc_avail(ctx)};
  return scan(worst, lmin, unsched_topo_, unsched_dl_, avail_sum_,
              unsched_work_, kind, cutoff);
}

Time IncrementalLB::evaluate_child(const PartialSchedule& ps, TaskId t,
                                   ProcId p, LowerBound kind,
                                   Time cutoff) noexcept {
  const SchedContext& ctx = *ctx_;
  PARABB_ASSERT(ps.ready().contains(t));
  // The terms place() would update, computed for the child: t's finish
  // joins the scheduled prefix's lateness, moves p's frontier and l_min,
  // and leaves the unscheduled masks and work.
  const Time f = Time{ps.earliest_start(ctx, t, p)} + Time{ctx.exec(t)};
  const Time worst =
      std::max({worst_sched_, f - Time{ctx.deadline(t)},
                ctx.static_lateness_floor()});
  if (worst >= cutoff) return worst;
  Time lmin = kTimeNegInf;
  if (kind != LowerBound::kLB0) {
    lmin = f;
    for (ProcId q = 0; q < ctx.proc_count(); ++q) {
      if (q != p) lmin = std::min(lmin, Time{ps.proc_avail(q)});
    }
  }
  fhat_[static_cast<std::size_t>(t)] = f;
  return scan(worst, lmin, unsched_topo_ & ~(1ULL << ctx.topo_rank(t)),
              unsched_dl_ & ~(1ULL << ctx.deadline_rank(t)),
              avail_sum_ + f - Time{ps.proc_avail(p)},
              unsched_work_ - Time{ctx.exec(t)}, kind, cutoff);
}

Time IncrementalLB::scan(Time worst, Time lmin, std::uint64_t topo,
                         std::uint64_t dl, Time avail_sum, Time work,
                         LowerBound kind, Time cutoff) noexcept {
  const SchedContext& ctx = *ctx_;
  const auto order = ctx.topo_order();
  for (std::uint64_t rest = topo; rest != 0; rest &= rest - 1) {
    const TaskId t = order[static_cast<std::size_t>(std::countr_zero(rest))];
    Time start_floor = std::max(Time{ctx.arrival(t)}, lmin);
    const auto preds = ctx.pred_ids(t);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      start_floor = std::max(
          start_floor, fhat_[static_cast<std::size_t>(preds[k])]);
    }
    const Time f = start_floor + Time{ctx.exec(t)};
    fhat_[static_cast<std::size_t>(t)] = f;
    worst = std::max(worst, f - Time{ctx.deadline(t)});
    if (worst >= cutoff) return worst;
  }

  if (kind == LowerBound::kLB2 && dl != 0) {
    const Time m = ctx.proc_count();
    // No candidate at deadline rank >= r can exceed cap − d_r (its work
    // term is <= the unscheduled work and deadlines are nondecreasing in
    // rank), so once cap − d_r <= worst the remaining suffix is settled
    // exactly.
    const Time cap = (avail_sum + work + m - 1) / m;
    Time prefix = 0;
    for (std::uint64_t rest = dl; rest != 0; rest &= rest - 1) {
      const int r = std::countr_zero(rest);
      const Time d = Time{ctx.deadline_at_rank(r)};
      if (cap - d <= worst) break;
      prefix += Time{ctx.exec_at_deadline_rank(r)};
      const Time completion = (avail_sum + prefix + m - 1) / m;
      worst = std::max(worst, completion - d);
      if (worst >= cutoff) return worst;
    }
  }
  return worst;
}

}  // namespace parabb
