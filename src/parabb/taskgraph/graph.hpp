// TaskGraph: directed acyclic task graph G = (N, A) with per-arc message
// sizes (paper §2.2).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "parabb/support/types.hpp"
#include "parabb/taskgraph/task.hpp"

namespace parabb {

/// One incident arc as seen from a task: the neighbour and the message size.
struct Arc {
  TaskId other = kNoTask;
  Time items = 0;
};

/// Mutable DAG of tasks. Arcs represent the direct-precedence relation
/// (tau_i ≺· tau_j); message sizes annotate interprocessor data transfer.
///
/// Invariants enforced:
///  * arcs connect existing, distinct tasks (irreflexive);
///  * duplicate arcs are rejected;
///  * acyclicity is validated by validate() / required by analyze().
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Adds a task and returns its dense id.
  TaskId add_task(Task task);

  /// Adds a precedence arc tau_from ≺· tau_to carrying `items` data items.
  void add_arc(TaskId from, TaskId to, Time items = 0);

  int task_count() const noexcept { return static_cast<int>(tasks_.size()); }
  int arc_count() const noexcept { return static_cast<int>(arcs_.size()); }

  const Task& task(TaskId t) const;
  Task& task(TaskId t);

  /// Direct predecessors of t with the message size on each arc.
  std::span<const Arc> preds(TaskId t) const;
  /// Direct successors of t with the message size on each arc.
  std::span<const Arc> succs(TaskId t) const;

  /// All tasks in id order.
  std::span<const Task> tasks() const noexcept { return tasks_; }

  /// All arcs in insertion order.
  std::span<const Channel> arcs() const noexcept { return arcs_; }

  bool is_input(TaskId t) const { return preds(t).empty(); }
  bool is_output(TaskId t) const { return succs(t).empty(); }

  /// Message size on arc (from, to); kTimeNegInf if no such arc.
  Time items_on_arc(TaskId from, TaskId to) const;

  /// Sum of all execution times (the "accumulated task graph workload").
  Time total_work() const noexcept;

  /// Checks structural invariants beyond construction-time ones; returns an
  /// empty string when valid, else a human-readable diagnosis. Currently:
  /// acyclicity and non-negative weights.
  std::string validate() const;

  /// True iff the arc set contains no directed cycle.
  bool is_acyclic() const;

 private:
  void check_task(TaskId t) const;

  std::vector<Task> tasks_;
  std::vector<Channel> arcs_;
  std::vector<std::vector<Arc>> preds_;
  std::vector<std::vector<Arc>> succs_;
};

}  // namespace parabb
