#include "parabb/sched/bus_aware.hpp"

#include <algorithm>
#include <vector>

#include "parabb/support/assert.hpp"

namespace parabb {

BusAwareResult retime_with_bus(const SchedContext& ctx, const TaskGraph& graph,
                               const Schedule& nominal) {
  const int n = ctx.task_count();
  PARABB_REQUIRE(nominal.task_count() == n && graph.task_count() == n,
                 "schedule/context mismatch");
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    for (ProcId q = 0; q < ctx.proc_count(); ++q) {
      PARABB_REQUIRE(ctx.hop(p, q) <= 1,
                     "bus re-timing models a single shared medium; use 1-hop "
                     "topologies");
    }
  }

  // Fixed assignment + per-processor order from the nominal schedule.
  std::vector<std::vector<TaskId>> order(
      static_cast<std::size_t>(ctx.proc_count()));
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    for (const ScheduledTask& e : nominal.proc_sequence(p)) {
      order[static_cast<std::size_t>(p)].push_back(e.task);
    }
  }

  SharedBus bus(ctx.comm().per_item_delay());
  std::vector<Time> start(static_cast<std::size_t>(n), -1);
  std::vector<Time> finish(static_cast<std::size_t>(n), -1);
  std::vector<std::size_t> next(static_cast<std::size_t>(ctx.proc_count()), 0);
  std::vector<Time> avail(static_cast<std::size_t>(ctx.proc_count()), 0);
  BusAwareResult out;

  // Re-time tasks in a precedence-consistent sweep: repeatedly pick, among
  // each processor's next-unstarted task, one whose predecessors are all
  // timed; grant its inbound messages bus slots in producer-finish order.
  int placed = 0;
  while (placed < n) {
    bool progressed = false;
    for (ProcId p = 0; p < ctx.proc_count(); ++p) {
      const auto up = static_cast<std::size_t>(p);
      if (next[up] >= order[up].size()) continue;
      const TaskId t = order[up][next[up]];
      const auto preds = ctx.pred_ids(t);
      const bool ready = std::all_of(
          preds.begin(), preds.end(), [&](TaskId j) {
            return finish[static_cast<std::size_t>(j)] >= 0;
          });
      if (!ready) continue;

      // Serialize inbound cross-processor messages, earliest producer first.
      std::vector<TaskId> sorted_preds(preds.begin(), preds.end());
      std::sort(sorted_preds.begin(), sorted_preds.end(),
                [&](TaskId a, TaskId b) {
                  return finish[static_cast<std::size_t>(a)] <
                         finish[static_cast<std::size_t>(b)];
                });
      Time data_ready = 0;
      for (const TaskId j : sorted_preds) {
        const auto uj = static_cast<std::size_t>(j);
        if (nominal.entry(j).proc == p) {
          data_ready = std::max(data_ready, finish[uj]);
          continue;
        }
        const Time items = graph.items_on_arc(j, t);
        PARABB_ASSERT(items >= 0);
        const Time arrived = bus.reserve(finish[uj], items);
        if (items > 0) ++out.messages;
        data_ready = std::max(data_ready, arrived);
      }
      const Time s = std::max({Time{ctx.arrival(t)}, avail[up], data_ready});
      start[static_cast<std::size_t>(t)] = s;
      finish[static_cast<std::size_t>(t)] = s + ctx.exec(t);
      avail[up] = finish[static_cast<std::size_t>(t)];
      ++next[up];
      ++placed;
      progressed = true;
    }
    PARABB_REQUIRE(progressed,
                   "nominal schedule's per-processor order deadlocks under "
                   "bus re-timing (cyclic wait)");
  }

  std::vector<ScheduledTask> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    entries.push_back(ScheduledTask{t, nominal.entry(t).proc, start[ut],
                                    finish[ut]});
  }
  out.schedule = Schedule::from_entries(n, std::move(entries));
  out.max_lateness = max_lateness(out.schedule, ctx);
  out.bus_busy = bus.utilization();
  return out;
}

}  // namespace parabb
