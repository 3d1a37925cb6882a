#include "parabb/sched/context.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "parabb/support/assert.hpp"

namespace parabb {
namespace {

CTime narrow_time(Time v, const char* what) {
  PARABB_REQUIRE(v >= -kMaxCompactTime && v <= kMaxCompactTime,
                 std::string(what) + " exceeds the compact time range");
  return static_cast<CTime>(v);
}

}  // namespace

SchedContext::SchedContext(const TaskGraph& graph, const Machine& machine)
    : graph_(graph), machine_(machine), topo_(analyze(graph)) {
  n_ = graph.task_count();
  m_ = machine.procs;
  PARABB_REQUIRE(n_ >= 1, "graph must contain at least one task");
  PARABB_REQUIRE(n_ <= kMaxTasks,
                 "graph exceeds kMaxTasks (" + std::to_string(kMaxTasks) +
                     ") tasks");
  PARABB_REQUIRE(m_ >= 1 && m_ <= kMaxProcs,
                 "machine processor count out of supported range");
  const std::string err = graph.validate();
  PARABB_REQUIRE(err.empty(), "invalid graph: " + err);

  const auto un = static_cast<std::size_t>(n_);
  exec_.resize(un);
  arrival_.resize(un);
  deadline_.resize(un);
  pred_off_.assign(un + 1, 0);
  succ_off_.assign(un + 1, 0);

  for (TaskId t = 0; t < n_; ++t) {
    const Task& task = graph.task(t);
    exec_[idx(t)] = narrow_time(task.exec, "execution time");
    arrival_[idx(t)] = narrow_time(task.arrival(), "arrival time");
    deadline_[idx(t)] = narrow_time(task.abs_deadline(), "deadline");
    pred_off_[idx(t) + 1] = pred_off_[idx(t)] + graph.preds(t).size();
    succ_off_[idx(t) + 1] = succ_off_[idx(t)] + graph.succs(t).size();
  }

  pred_task_.resize(pred_off_[un]);
  pred_comm_.resize(pred_off_[un]);
  succ_task_.resize(succ_off_[un]);
  succ_comm_.resize(succ_off_[un]);

  for (TaskId t = 0; t < n_; ++t) {
    std::size_t p = pred_off_[idx(t)];
    for (const Arc& a : graph.preds(t)) {
      pred_task_[p] = a.other;
      pred_comm_[p] = narrow_time(machine.comm.delay(a.items),
                                  "communication delay");
      ++p;
    }
    std::size_t s = succ_off_[idx(t)];
    for (const Arc& a : graph.succs(t)) {
      succ_task_[s] = a.other;
      succ_comm_[s] = narrow_time(machine.comm.delay(a.items),
                                  "communication delay");
      ++s;
    }
    if (graph.preds(t).empty()) initial_ready_.insert(t);
  }

  if (machine.topology) {
    PARABB_REQUIRE(machine.topology->procs() == m_,
                   "topology/processor count mismatch");
  }
  for (ProcId p = 0; p < m_; ++p) {
    for (ProcId q = 0; q < m_; ++q) {
      hop_[static_cast<std::size_t>(p) * kMaxProcs +
           static_cast<std::size_t>(q)] =
          static_cast<CTime>(machine.hops(p, q));
      if (p != q && hop(p, q) != hop(0, 1)) uniform_hops_ = false;
    }
  }

  // Static bound-evaluation aids: the deadline-sorted order (ties broken by
  // id so the order is deterministic; the packing bound's value is
  // tie-order independent), its inverse, per-rank exec/deadline arrays,
  // workload prefix sums, slacks, and the static lateness floor.
  topo_rank_.assign(un, 0);
  for (int r = 0; r < n_; ++r) {
    topo_rank_[idx(topo_.topo_order[static_cast<std::size_t>(r)])] = r;
  }
  deadline_order_.resize(un);
  std::iota(deadline_order_.begin(), deadline_order_.end(), TaskId{0});
  std::sort(deadline_order_.begin(), deadline_order_.end(),
            [&](TaskId a, TaskId b) {
              if (deadline_[idx(a)] != deadline_[idx(b)])
                return deadline_[idx(a)] < deadline_[idx(b)];
              return a < b;
            });
  deadline_rank_.assign(un, 0);
  dl_exec_.resize(un);
  dl_deadline_.resize(un);
  dl_prefix_work_.assign(un + 1, 0);
  slack_.resize(un);
  for (int r = 0; r < n_; ++r) {
    const TaskId t = deadline_order_[static_cast<std::size_t>(r)];
    deadline_rank_[idx(t)] = r;
    dl_exec_[static_cast<std::size_t>(r)] = exec_[idx(t)];
    dl_deadline_[static_cast<std::size_t>(r)] = deadline_[idx(t)];
    dl_prefix_work_[static_cast<std::size_t>(r) + 1] =
        dl_prefix_work_[static_cast<std::size_t>(r)] + Time{exec_[idx(t)]};
  }
  for (TaskId t = 0; t < n_; ++t) {
    slack_[idx(t)] = Time{deadline_[idx(t)]} - Time{arrival_[idx(t)]} -
                     Time{exec_[idx(t)]};
    static_floor_ = std::max(static_floor_, -slack_[idx(t)]);
  }
}

}  // namespace parabb
