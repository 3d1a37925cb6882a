#include "parabb/verify/reference_lb.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "parabb/taskgraph/graph.hpp"

namespace parabb {

namespace {

/// Kahn's algorithm over the raw graph, smallest id first among the ready
/// tasks — computed here instead of borrowing ctx.topo_order() so the
/// verifier's recursion order owes nothing to the code under audit.
std::vector<TaskId> own_topo_order(const TaskGraph& g) {
  const int n = g.task_count();
  std::vector<int> missing(static_cast<std::size_t>(n), 0);
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < n; ++t) {
    missing[static_cast<std::size_t>(t)] =
        static_cast<int>(g.preds(t).size());
    if (missing[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
  }
  std::vector<TaskId> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const auto it = std::min_element(ready.begin(), ready.end());
    const TaskId t = *it;
    ready.erase(it);
    order.push_back(t);
    for (const Arc& a : g.succs(t)) {
      if (--missing[static_cast<std::size_t>(a.other)] == 0) {
        ready.push_back(a.other);
      }
    }
  }
  if (static_cast<int>(order.size()) != n) {
    throw std::runtime_error("reference_lb: graph is cyclic");
  }
  return order;
}

}  // namespace

Time reference_lower_bound(const TaskGraph& g, const SchedContext& ctx,
                           const PartialSchedule& ps, int lb_kind) {
  if (lb_kind < 0 || lb_kind > 2) {
    throw std::runtime_error("reference_lb: unknown lb kind " +
                             std::to_string(lb_kind));
  }
  const int n = g.task_count();

  // l_min: the earliest time any processor frees up. Under the append-only
  // scheduling operation no unscheduled task can start before it.
  Time l_min = 0;
  if (lb_kind >= 1) {
    l_min = kTimeInf;
    for (ProcId p = 0; p < ctx.proc_count(); ++p) {
      l_min = std::min(l_min, static_cast<Time>(ps.proc_avail(p)));
    }
  }

  std::vector<Time> fhat(static_cast<std::size_t>(n), 0);
  Time worst = kTimeNegInf;
  for (const TaskId t : own_topo_order(g)) {
    const Task& task = g.task(t);
    Time f;
    if (ps.scheduled().contains(t)) {
      f = static_cast<Time>(ps.start(t)) + task.exec;
    } else {
      Time floor = task.arrival();
      if (lb_kind >= 1) floor = std::max(floor, l_min);
      for (const Arc& a : g.preds(t)) {
        floor = std::max(floor, fhat[static_cast<std::size_t>(a.other)]);
      }
      f = floor + task.exec;
    }
    fhat[static_cast<std::size_t>(t)] = f;
    worst = std::max(worst, f - task.abs_deadline());
  }

  if (lb_kind == 2) {
    worst = std::max(worst, reference_packing_bound(g, ctx, ps));
  }
  return worst;
}

Time reference_packing_bound(const TaskGraph& g, const SchedContext& ctx,
                             const PartialSchedule& ps) {
  const int n = g.task_count();
  const Time m = ctx.proc_count();

  Time committed = 0;
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    committed += static_cast<Time>(ps.proc_avail(p));
  }

  // Unscheduled tasks in (absolute deadline, id) order; a deadline-ordered
  // prefix with work W cannot all finish before ceil((committed + W)/m).
  std::vector<TaskId> unsched;
  for (TaskId t = 0; t < n; ++t) {
    if (!ps.scheduled().contains(t)) unsched.push_back(t);
  }
  std::sort(unsched.begin(), unsched.end(), [&g](TaskId a, TaskId b) {
    const Time da = g.task(a).abs_deadline();
    const Time db = g.task(b).abs_deadline();
    if (da != db) return da < db;
    return a < b;
  });

  Time worst = kTimeNegInf;
  Time work = 0;
  for (const TaskId t : unsched) {
    work += g.task(t).exec;
    const Time finish = (committed + work + m - 1) / m;  // ceil
    worst = std::max(worst, finish - g.task(t).abs_deadline());
  }
  return worst;
}

Time reference_exact_cost(const TaskGraph& g, const SchedContext& ctx,
                          const PartialSchedule& ps) {
  if (!ps.complete(ctx)) {
    throw std::runtime_error("reference_exact_cost: state is incomplete");
  }
  Time worst = kTimeNegInf;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const Time finish = static_cast<Time>(ps.start(t)) + g.task(t).exec;
    worst = std::max(worst, finish - g.task(t).abs_deadline());
  }
  return worst;
}

}  // namespace parabb
