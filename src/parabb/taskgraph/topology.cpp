#include "parabb/taskgraph/topology.hpp"

#include <algorithm>
#include <bit>

#include "parabb/support/assert.hpp"

namespace parabb {

bool topological_order(SuccessorLists succs, std::span<TaskId> out,
                       std::span<std::uint64_t> ready, std::span<int> indeg) {
  // The ready tasks as a bitset: the least-id one is the lowest set bit of
  // the first non-zero word, and no word below `low` has a bit set.
  const int n = succs.task_count();
  const auto words = static_cast<std::size_t>(n + 63) / 64;
  std::fill(indeg.begin(), indeg.begin() + n, 0);
  for (const TaskId s : succs.targets) ++indeg[static_cast<std::size_t>(s)];
  std::fill(ready.begin(), ready.begin() + static_cast<std::ptrdiff_t>(words),
            std::uint64_t{0});
  const auto mark_ready = [&](TaskId t) {
    ready[static_cast<std::size_t>(t) / 64] |= std::uint64_t{1} << (t % 64);
  };
  for (TaskId t = 0; t < n; ++t) {
    if (indeg[static_cast<std::size_t>(t)] == 0) mark_ready(t);
  }
  std::size_t placed = 0;
  for (std::size_t low = 0;;) {
    while (low < words && ready[low] == 0) ++low;
    if (low == words) break;
    const TaskId t =
        static_cast<TaskId>(low * 64) + std::countr_zero(ready[low]);
    ready[low] &= ready[low] - 1;
    out[placed++] = t;
    for (const TaskId s : succs.of(t)) {
      if (--indeg[static_cast<std::size_t>(s)] == 0) {
        mark_ready(s);
        low = std::min(low, static_cast<std::size_t>(s) / 64);
      }
    }
  }
  return placed == static_cast<std::size_t>(n);
}

void depth_first_order(SuccessorLists succs, std::span<TaskId> out,
                       std::span<TaskId> stack,
                       std::span<std::uint8_t> marks) {
  // Preorder from the inputs in id order, successors visited in id order.
  // Each visited task pushes its unseen successors once, so the stack never
  // holds more than inputs + arcs entries.
  constexpr std::uint8_t kHasPred = 1;
  constexpr std::uint8_t kSeen = 2;
  const int n = succs.task_count();
  std::fill(marks.begin(), marks.begin() + n, std::uint8_t{0});
  for (const TaskId s : succs.targets) {
    marks[static_cast<std::size_t>(s)] = kHasPred;
  }
  std::size_t visited = 0;
  for (TaskId root = 0; root < n; ++root) {
    if (marks[static_cast<std::size_t>(root)] != 0) continue;
    std::size_t top = 0;
    stack[top++] = root;
    while (top > 0) {
      const TaskId t = stack[--top];
      std::uint8_t& mark = marks[static_cast<std::size_t>(t)];
      if (mark & kSeen) continue;
      mark |= kSeen;
      out[visited++] = t;
      // Push the unseen successors in decreasing id order, so the smallest
      // id pops first: each is inserted into place among those pushed so far.
      const std::size_t first = top;
      for (const TaskId s : succs.of(t)) {
        if (marks[static_cast<std::size_t>(s)] & kSeen) continue;
        std::size_t i = top++;
        for (; i > first && stack[i - 1] < s; --i) stack[i] = stack[i - 1];
        stack[i] = s;
      }
    }
  }
  PARABB_ASSERT(visited == static_cast<std::size_t>(n));
}

void bottom_levels(SuccessorLists succs, std::span<const Time> exec,
                   std::span<const TaskId> topo_order, std::span<Time> out) {
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const auto t = static_cast<std::size_t>(*it);
    Time level = exec[t];
    for (const TaskId s : succs.of(*it)) {
      level = std::max(level, exec[t] + out[static_cast<std::size_t>(s)]);
    }
    out[t] = level;
  }
}

void level_priority_order(std::span<const Time> bottom_level,
                          std::span<TaskId> out) {
  // Decreasing bottom level, ties by id: the order a stable sort of the ids
  // gives, without the stable sort's temporary buffer.
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<TaskId>(i);
  std::sort(out.begin(), out.end(), [&](TaskId a, TaskId b) {
    const Time la = bottom_level[static_cast<std::size_t>(a)];
    const Time lb = bottom_level[static_cast<std::size_t>(b)];
    return la != lb ? la > lb : a < b;
  });
}

Topology analyze(const TaskGraph& graph) {
  const int n = graph.task_count();
  const auto un = static_cast<std::size_t>(n);

  // The successor lists and execution times the order functions read.
  std::vector<std::uint32_t> offsets(un + 1, 0);
  std::vector<TaskId> targets;
  targets.reserve(static_cast<std::size_t>(graph.arc_count()));
  std::vector<Time> exec(un);
  for (TaskId t = 0; t < n; ++t) {
    for (const Arc& a : graph.succs(t)) targets.push_back(a.other);
    offsets[static_cast<std::size_t>(t) + 1] =
        static_cast<std::uint32_t>(targets.size());
    exec[static_cast<std::size_t>(t)] = graph.task(t).exec;
  }
  const SuccessorLists succs{offsets, targets};

  Topology topo;
  topo.topo_order.resize(un);
  {
    std::vector<std::uint64_t> ready((un + 63) / 64);
    std::vector<int> indeg(un);
    PARABB_REQUIRE(topological_order(succs, topo.topo_order, ready, indeg),
                   "analyze() requires an acyclic graph");
  }
  topo.depth.assign(un, 0);
  topo.bottom_level.assign(un, 0);
  topo.pref_work.assign(un, 0);
  topo.suff_work.assign(un, 0);

  // Forward passes: depth and exec-weighted prefix.
  for (const TaskId t : topo.topo_order) {
    const auto ut = static_cast<std::size_t>(t);
    for (const Arc& a : graph.preds(t)) {
      const auto up = static_cast<std::size_t>(a.other);
      topo.depth[ut] = std::max(topo.depth[ut], topo.depth[up] + 1);
      topo.pref_work[ut] =
          std::max(topo.pref_work[ut],
                   topo.pref_work[up] + graph.task(a.other).exec);
    }
  }

  // Backward passes: bottom level and exec-weighted suffix.
  bottom_levels(succs, exec, topo.topo_order, topo.bottom_level);
  for (TaskId t = 0; t < n; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    for (const Arc& a : graph.succs(t)) {
      topo.suff_work[ut] =
          std::max(topo.suff_work[ut],
                   topo.bottom_level[static_cast<std::size_t>(a.other)]);
    }
  }

  for (TaskId t = 0; t < n; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    topo.critical_path =
        std::max(topo.critical_path,
                 topo.pref_work[ut] + graph.task(t).exec + topo.suff_work[ut]);
    topo.level_count = std::max(topo.level_count, topo.depth[ut] + 1);
    if (graph.is_input(t)) topo.inputs.push_back(t);
    if (graph.is_output(t)) topo.outputs.push_back(t);
  }
  if (n == 0) topo.level_count = 0;

  topo.levels.assign(static_cast<std::size_t>(topo.level_count), {});
  for (TaskId t = 0; t < n; ++t) {
    topo.levels[static_cast<std::size_t>(topo.depth[static_cast<std::size_t>(
                    t)])]
        .push_back(t);
  }
  for (const auto& lvl : topo.levels)
    topo.width = std::max(topo.width, static_cast<int>(lvl.size()));

  topo.dfs_order.resize(un);
  {
    std::vector<TaskId> stack(un + targets.size());
    std::vector<std::uint8_t> marks(un);
    depth_first_order(succs, topo.dfs_order, stack, marks);
  }

  topo.level_order.resize(un);
  level_priority_order(topo.bottom_level, topo.level_order);
  return topo;
}

}  // namespace parabb
