#include "parabb/sched/improve.hpp"

#include <algorithm>

#include "parabb/support/assert.hpp"

namespace parabb {
namespace {

using Orders = std::vector<std::vector<TaskId>>;

Orders orders_of(const SchedContext& ctx, const Schedule& s) {
  Orders orders(static_cast<std::size_t>(ctx.proc_count()));
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    for (const ScheduledTask& e : s.proc_sequence(p)) {
      orders[static_cast<std::size_t>(p)].push_back(e.task);
    }
  }
  return orders;
}

}  // namespace

std::optional<Schedule> retime_orders(const SchedContext& ctx,
                                      const Orders& orders) {
  const int n = ctx.task_count();
  PARABB_REQUIRE(static_cast<int>(orders.size()) == ctx.proc_count(),
                 "one order per processor required");

  std::vector<Time> finish(static_cast<std::size_t>(n), -1);
  std::vector<ProcId> proc_of(static_cast<std::size_t>(n), kNoProc);
  std::vector<Time> start(static_cast<std::size_t>(n), -1);
  std::vector<std::size_t> next(orders.size(), 0);
  std::vector<Time> avail(orders.size(), 0);

  int covered = 0;
  for (std::size_t p = 0; p < orders.size(); ++p) {
    for (const TaskId t : orders[p]) {
      PARABB_REQUIRE(t >= 0 && t < n, "order references unknown task");
      PARABB_REQUIRE(proc_of[static_cast<std::size_t>(t)] == kNoProc,
                     "task appears twice in the orders");
      proc_of[static_cast<std::size_t>(t)] = static_cast<ProcId>(p);
      ++covered;
    }
  }
  PARABB_REQUIRE(covered == n, "orders must cover every task exactly once");

  int placed = 0;
  while (placed < n) {
    bool progressed = false;
    for (std::size_t p = 0; p < orders.size(); ++p) {
      if (next[p] >= orders[p].size()) continue;
      const TaskId t = orders[p][next[p]];
      const auto preds = ctx.pred_ids(t);
      const auto comm = ctx.pred_comm(t);
      Time s = std::max(Time{ctx.arrival(t)}, avail[p]);
      bool ready = true;
      for (std::size_t k = 0; k < preds.size(); ++k) {
        const auto uj = static_cast<std::size_t>(preds[k]);
        if (finish[uj] < 0) {
          ready = false;
          break;
        }
        const Time data =
            finish[uj] + Time{comm[k]} *
                             ctx.hop(proc_of[uj], static_cast<ProcId>(p));
        s = std::max(s, data);
      }
      if (!ready) continue;
      const auto ut = static_cast<std::size_t>(t);
      start[ut] = s;
      finish[ut] = s + ctx.exec(t);
      avail[p] = finish[ut];
      ++next[p];
      ++placed;
      progressed = true;
    }
    if (!progressed) return std::nullopt;  // deadlock
  }

  std::vector<ScheduledTask> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    entries.push_back(
        ScheduledTask{t, proc_of[ut], start[ut], finish[ut]});
  }
  return Schedule::from_entries(n, std::move(entries));
}

ImproveResult improve_schedule(const SchedContext& ctx,
                               const Schedule& initial, int max_moves) {
  PARABB_REQUIRE(max_moves >= 0, "max_moves must be >= 0");
  Orders orders = orders_of(ctx, initial);
  ImproveResult out;
  out.schedule = initial;
  out.max_lateness = max_lateness(initial, ctx);

  auto try_orders = [&](const Orders& candidate) -> bool {
    ++out.moves_evaluated;
    const std::optional<Schedule> retimed = retime_orders(ctx, candidate);
    if (!retimed) return false;
    const Time cost = max_lateness(*retimed, ctx);
    if (cost >= out.max_lateness) return false;
    out.schedule = *retimed;
    out.max_lateness = cost;
    orders = candidate;
    ++out.moves_applied;
    return true;
  };

  while (out.moves_applied < max_moves) {
    bool improved = false;

    // Move 1: adjacent swaps within a processor.
    for (std::size_t p = 0; p < orders.size() && !improved; ++p) {
      for (std::size_t i = 0; i + 1 < orders[p].size() && !improved; ++i) {
        Orders candidate = orders;
        std::swap(candidate[p][i], candidate[p][i + 1]);
        improved = try_orders(candidate);
      }
    }
    // Move 2: relocate one task to any position on any processor.
    for (std::size_t p = 0; p < orders.size() && !improved; ++p) {
      for (std::size_t i = 0; i < orders[p].size() && !improved; ++i) {
        const TaskId t = orders[p][i];
        for (std::size_t q = 0; q < orders.size() && !improved; ++q) {
          const std::size_t limit = orders[q].size() + (q == p ? 0 : 1);
          for (std::size_t j = 0; j < limit && !improved; ++j) {
            if (q == p && (j == i || j == i + 1)) continue;
            Orders candidate = orders;
            candidate[p].erase(candidate[p].begin() +
                               static_cast<std::ptrdiff_t>(i));
            std::size_t jj = j;
            if (q == p && j > i) --jj;
            candidate[q].insert(candidate[q].begin() +
                                    static_cast<std::ptrdiff_t>(jj),
                                t);
            improved = try_orders(candidate);
          }
        }
      }
    }
    if (!improved) {
      out.local_optimum = true;
      break;
    }
  }
  return out;
}

}  // namespace parabb
