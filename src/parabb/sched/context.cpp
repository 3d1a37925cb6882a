#include "parabb/sched/context.hpp"

#include <algorithm>
#include <string>

#include "parabb/support/assert.hpp"
#include "parabb/taskgraph/topology.hpp"

namespace parabb {
namespace {

/// The refusal of a cyclic graph, as analyze() words it.
constexpr const char* kCyclic = "analyze() requires an acyclic graph";

bool fits_compact(Time v) {
  return v >= -kMaxCompactTime && v <= kMaxCompactTime;
}

CTime narrow_time(Time v, const char* what) {
  PARABB_REQUIRE(fits_compact(v),
                 std::string(what) + " exceeds the compact time range");
  return static_cast<CTime>(v);
}

}  // namespace

SchedContext::SchedContext(const TaskGraph& graph, const Machine& machine)
    : n_(graph.task_count()), m_(machine.procs), comm_(machine.comm) {
  PARABB_REQUIRE(n_ <= kMaxTasks,
                 "graph exceeds kMaxTasks (" + std::to_string(kMaxTasks) +
                     ") tasks");
  const auto un = idx(n_);
  // A DAG on n tasks has at most n(n-1)/2 arcs: a graph with more arcs than
  // the arrays hold has a cycle.
  const std::span<const Channel> arcs = graph.arcs();
  PARABB_REQUIRE(arcs.size() <= static_cast<std::size_t>(kMaxArcs), kCyclic);

  // Both adjacency lists in compressed form, built from the graph's
  // contiguous arc list (never its per-task lists): a counting pass, then a
  // filling pass, so each task's predecessors and successors keep the
  // graph's arc order.
  std::fill(pred_off_.begin(), pred_off_.begin() + n_ + 1, 0u);
  std::fill(succ_off_.begin(), succ_off_.begin() + n_ + 1, 0u);
  for (const Channel& c : arcs) {
    ++pred_off_[idx(c.to) + 1];
    ++succ_off_[idx(c.from) + 1];
  }
  for (std::size_t t = 0; t < un; ++t) {
    pred_off_[t + 1] += pred_off_[t];
    succ_off_[t + 1] += succ_off_[t];
  }
  PerTask<std::uint32_t> pred_next, succ_next;  // next free slot per task
  std::copy_n(pred_off_.begin(), n_, pred_next.begin());
  std::copy_n(succ_off_.begin(), n_, succ_next.begin());
  bool comm_fits = true;
  for (const Channel& c : arcs) {
    const Time delay = machine.comm.delay(c.items);
    comm_fits = comm_fits && fits_compact(delay);
    const std::uint32_t p = pred_next[idx(c.to)]++;
    pred_task_[p] = c.from;
    pred_comm_[p] = static_cast<CTime>(delay);
    const std::uint32_t s = succ_next[idx(c.from)]++;
    succ_task_[s] = c.to;
    succ_comm_[s] = static_cast<CTime>(delay);
  }

  // The orders come from the functions analyze() uses (taskgraph/
  // topology.hpp), run on the lists above and stack scratch; Kahn's pass
  // is the cycle check.
  const SuccessorLists succs{{succ_off_.data(), un + 1},
                             {succ_task_.data(), succ_off_[un]}};
  {
    std::array<std::uint64_t, (kMaxTasks + 63) / 64> ready;
    PerTask<int> indeg;
    PARABB_REQUIRE(
        topological_order(succs, {topo_order_.data(), un}, ready, indeg),
        kCyclic);
  }
  PARABB_REQUIRE(n_ >= 1, "graph must contain at least one task");
  PARABB_REQUIRE(m_ >= 1 && m_ <= kMaxProcs,
                 "machine processor count out of supported range");
  const std::span<const Task> tasks = graph.tasks();
  for (TaskId t = 0; t < n_; ++t) {
    const Task& task = tasks[idx(t)];
    PARABB_REQUIRE(task.exec >= 0, "invalid graph: negative execution time "
                                   "on task " + task.name);
    PARABB_REQUIRE(task.rel_deadline >= 0,
                   "invalid graph: negative relative deadline on " + task.name);
    PARABB_REQUIRE(task.period <= 0 || task.rel_deadline <= task.period,
                   "invalid graph: d_i > T_i violates the "
                   "non-overlapping-window model (" + task.name + ")");
    exec_[idx(t)] = narrow_time(task.exec, "execution time");
    arrival_[idx(t)] = narrow_time(task.arrival(), "arrival time");
    deadline_[idx(t)] = narrow_time(task.abs_deadline(), "deadline");
    if (pred_len(t) == 0) initial_ready_.insert(t);
  }
  PARABB_REQUIRE(comm_fits,
                 "communication delay exceeds the compact time range");

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

  {
    std::array<TaskId, kMaxTasks + kMaxArcs> stack;
    PerTask<std::uint8_t> marks;
    depth_first_order(succs, {dfs_order_.data(), un}, stack, marks);
    PerTask<Time> exec, bottom_level;
    std::copy_n(exec_.begin(), n_, exec.begin());
    bottom_levels(succs, {exec.data(), un}, topo_order(),
                  {bottom_level.data(), un});
    level_priority_order({bottom_level.data(), un}, {level_order_.data(), un});
  }

  // Static bound-evaluation aids: the deadline-sorted order (ties broken by
  // id so the order is deterministic; the packing bound's value is
  // tie-order independent), its inverse, per-rank exec/deadline arrays,
  // workload prefix sums, slacks, and the static lateness floor.
  for (int r = 0; r < n_; ++r) topo_rank_[idx(topo_order_[idx(r)])] = r;
  for (TaskId t = 0; t < n_; ++t) deadline_order_[idx(t)] = t;
  std::sort(deadline_order_.begin(), deadline_order_.begin() + n_,
            [&](TaskId a, TaskId b) {
              if (deadline_[idx(a)] != deadline_[idx(b)])
                return deadline_[idx(a)] < deadline_[idx(b)];
              return a < b;
            });
  dl_prefix_work_[0] = 0;
  for (int r = 0; r < n_; ++r) {
    const TaskId t = deadline_order_[idx(r)];
    deadline_rank_[idx(t)] = r;
    dl_exec_[idx(r)] = exec_[idx(t)];
    dl_deadline_[idx(r)] = deadline_[idx(t)];
    dl_prefix_work_[idx(r) + 1] = dl_prefix_work_[idx(r)] + Time{exec_[idx(t)]};
  }
  for (TaskId t = 0; t < n_; ++t) {
    slack_[idx(t)] = Time{deadline_[idx(t)]} - Time{arrival_[idx(t)]} -
                     Time{exec_[idx(t)]};
    static_floor_ = std::max(static_floor_, -slack_[idx(t)]);
  }
}

}  // namespace parabb
