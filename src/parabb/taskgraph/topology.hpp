// Derived structural properties of a task graph: topological order, depth
// levels, bottom levels (the task "level" of Hou & Shin used by BF1),
// depth-first priority order (used by DF), and exec-weighted longest-path
// prefixes/suffixes (used by deadline slicing).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "parabb/support/types.hpp"
#include "parabb/taskgraph/graph.hpp"

namespace parabb {

struct Topology {
  /// Tasks in a deterministic topological order (Kahn, min-id first).
  std::vector<TaskId> topo_order;

  /// depth[t] = longest arc count from any input task to t (inputs = 0).
  std::vector<int> depth;

  /// Number of depth levels (= max depth + 1); the paper's "depth of the
  /// task graph" counts levels, so a chain of 8 tasks has depth 8 here
  /// via `level_count`.
  int level_count = 0;

  /// tasks grouped by depth; levels[d] lists tasks with depth d (id order).
  std::vector<std::vector<TaskId>> levels;

  /// Maximum tasks on one depth level — the graph's parallelism width.
  int width = 0;

  /// bottom_level[t] = length of the heaviest execution-weighted path from
  /// t to any output, *including* c_t (Hou & Shin's task level).
  std::vector<Time> bottom_level;

  /// pref_work[t] = heaviest execution-weighted path from any input to t,
  /// *excluding* c_t (0 for inputs). Used by deadline slicing.
  std::vector<Time> pref_work;

  /// suff_work[t] = heaviest execution-weighted path from t to any output,
  /// *excluding* c_t (0 for outputs).
  std::vector<Time> suff_work;

  /// Heaviest input->output execution-weighted path (the critical path).
  Time critical_path = 0;

  /// Depth-first priority order: preorder of a DFS that starts from input
  /// tasks in id order and visits successors in id order. Used by the DF
  /// branching rule (first *ready* task in this order is branched on).
  std::vector<TaskId> dfs_order;

  /// Level priority order: tasks sorted by decreasing bottom_level (ties by
  /// id). Used by the BF1 branching rule.
  std::vector<TaskId> level_order;

  /// Input (no predecessor) and output (no successor) task lists, id order.
  std::vector<TaskId> inputs;
  std::vector<TaskId> outputs;
};

/// Computes all of the above. Requires an acyclic graph (throws
/// precondition_error otherwise).
Topology analyze(const TaskGraph& graph);

// The orders analyze() derives, computed from compressed successor lists
// into caller-provided storage. SchedContext builds its copies of these
// orders with the same functions from its own arrays, so building a
// context allocates nothing and the two can never disagree. `out` holds
// n = succs.task_count() entries.

/// A graph's successor lists in compressed form: the successors of task t
/// are targets[offsets[t]] .. targets[offsets[t + 1] - 1], in arc order.
struct SuccessorLists {
  std::span<const std::uint32_t> offsets;  ///< task_count() + 1 entries
  std::span<const TaskId> targets;

  int task_count() const noexcept {
    return static_cast<int>(offsets.size()) - 1;
  }
  std::span<const TaskId> of(TaskId t) const noexcept {
    const auto i = static_cast<std::size_t>(t);
    return targets.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// Topology::topo_order: Kahn's algorithm taking the least-id ready task
/// first. `ready` is scratch of (n + 63) / 64 words and `indeg` of n
/// entries. Returns false, with `out` holding only the tasks it could
/// place, when the graph has a directed cycle.
bool topological_order(SuccessorLists succs, std::span<TaskId> out,
                       std::span<std::uint64_t> ready, std::span<int> indeg);

/// Topology::dfs_order of an acyclic graph. `stack` is scratch of
/// n + (arc count) entries and `marks` of n.
void depth_first_order(SuccessorLists succs, std::span<TaskId> out,
                       std::span<TaskId> stack,
                       std::span<std::uint8_t> marks);

/// Topology::bottom_level from the execution times and a topological
/// order of the graph.
void bottom_levels(SuccessorLists succs, std::span<const Time> exec,
                   std::span<const TaskId> topo_order, std::span<Time> out);

/// Topology::level_order from the bottom levels.
void level_priority_order(std::span<const Time> bottom_level,
                          std::span<TaskId> out);

}  // namespace parabb
