#include "parabb/sched/context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "parabb/support/assert.hpp"
#include "parabb/support/rng.hpp"
#include "parabb/taskgraph/topology.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(SchedContext, FlattensTaskData) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);
  EXPECT_EQ(ctx.task_count(), 4);
  EXPECT_EQ(ctx.proc_count(), 2);
  EXPECT_EQ(ctx.exec(0), 10);
  EXPECT_EQ(ctx.arrival(0), 0);
  EXPECT_EQ(ctx.deadline(0), 15);
  EXPECT_EQ(ctx.arrival(1), 10);
  EXPECT_EQ(ctx.deadline(1), 50);
}

TEST(SchedContext, PredsCarryCommDelays) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);
  // d (task 3) has preds b, c with 5 items each -> delay 5 on the 1u bus.
  ASSERT_EQ(ctx.pred_ids(3).size(), 2u);
  EXPECT_EQ(ctx.pred_comm(3)[0], 5);
  EXPECT_EQ(ctx.pred_comm(3)[1], 5);
  EXPECT_EQ(ctx.pred_count(0), 0);
  ASSERT_EQ(ctx.succ_ids(0).size(), 2u);
  EXPECT_EQ(ctx.succ_comm(0)[0], 5);
}

TEST(SchedContext, CommDelaysScaleWithModel) {
  const TaskGraph g = test::small_diamond();
  Machine m{2, CommModel::per_item(4), std::nullopt};
  const SchedContext ctx(g, m);
  EXPECT_EQ(ctx.pred_comm(3)[0], 20);
}

TEST(SchedContext, InitialReadyAreInputs) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);
  EXPECT_EQ(ctx.initial_ready().size(), 1);
  EXPECT_TRUE(ctx.initial_ready().contains(0));
  EXPECT_EQ(ctx.all_tasks().size(), 4);
}

TEST(SchedContext, ExposesBranchingOrders) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);
  EXPECT_EQ(ctx.topo_order().size(), 4u);
  EXPECT_EQ(ctx.dfs_order().size(), 4u);
  EXPECT_EQ(ctx.level_order().size(), 4u);
  EXPECT_EQ(ctx.dfs_order()[0], 0);
}

TEST(SchedContext, RejectsTooManyTasks) {
  GraphBuilder b;
  for (int i = 0; i <= kMaxTasks; ++i)
    b.task("t" + std::to_string(i), 1);
  const TaskGraph g = b.build();
  EXPECT_THROW(test::make_ctx(g, 2), precondition_error);
}

TEST(SchedContext, RejectsEmptyGraph) {
  TaskGraph g;
  EXPECT_THROW(test::make_ctx(g, 2), precondition_error);
}

TEST(SchedContext, RejectsCyclicGraph) {
  TaskGraph g;
  Task t;
  t.exec = 1;
  t.name = "a";
  const TaskId a = g.add_task(t);
  t.name = "b";
  const TaskId b = g.add_task(t);
  g.add_arc(a, b);
  g.add_arc(b, a);
  EXPECT_THROW(test::make_ctx(g, 2), precondition_error);
}

TEST(SchedContext, RejectsHugeTimes) {
  TaskGraph g;
  Task t;
  t.name = "big";
  t.exec = kMaxCompactTime + 1;
  g.add_task(t);
  EXPECT_THROW(test::make_ctx(g, 1), precondition_error);
}

TEST(SchedContext, RejectsBadMachineSize) {
  const TaskGraph g = test::small_diamond();
  Machine m{0, CommModel::per_item(1), std::nullopt};
  EXPECT_THROW(SchedContext(g, m), precondition_error);
  m.procs = kMaxProcs + 1;
  EXPECT_THROW(SchedContext(g, m), precondition_error);
}

// The orders as the context derived them before it built them into fixed
// arrays, written out from scratch: Kahn with a min-heap of ids, a DFS
// whose every node sorts its own successor list, a stable sort of the ids
// by decreasing bottom level, and a sort by (absolute deadline, id).
namespace reference {

std::vector<TaskId> topo_order(const TaskGraph& g) {
  const auto n = static_cast<std::size_t>(g.task_count());
  std::vector<int> indeg(n, 0);
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    indeg[static_cast<std::size_t>(t)] = static_cast<int>(g.preds(t).size());
    if (indeg[static_cast<std::size_t>(t)] == 0) ready.push(t);
  }
  std::vector<TaskId> order;
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    order.push_back(t);
    for (const Arc& a : g.succs(t)) {
      if (--indeg[static_cast<std::size_t>(a.other)] == 0) ready.push(a.other);
    }
  }
  return order;
}

std::vector<TaskId> dfs_order(const TaskGraph& g) {
  std::vector<char> seen(static_cast<std::size_t>(g.task_count()), 0);
  std::vector<TaskId> order;
  std::vector<TaskId> stack;
  for (TaskId root = 0; root < g.task_count(); ++root) {
    if (!g.is_input(root)) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const TaskId t = stack.back();
      stack.pop_back();
      if (seen[static_cast<std::size_t>(t)]) continue;
      seen[static_cast<std::size_t>(t)] = 1;
      order.push_back(t);
      std::vector<TaskId> kids;
      for (const Arc& a : g.succs(t)) kids.push_back(a.other);
      std::sort(kids.begin(), kids.end(), std::greater<>());
      for (const TaskId k : kids) {
        if (!seen[static_cast<std::size_t>(k)]) stack.push_back(k);
      }
    }
  }
  return order;
}

std::vector<TaskId> level_order(const TaskGraph& g) {
  const std::vector<TaskId> topo = topo_order(g);
  std::vector<Time> bottom(topo.size(), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Time level = g.task(*it).exec;
    for (const Arc& a : g.succs(*it)) {
      level = std::max(level, g.task(*it).exec +
                                  bottom[static_cast<std::size_t>(a.other)]);
    }
    bottom[static_cast<std::size_t>(*it)] = level;
  }
  std::vector<TaskId> order(topo.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return bottom[static_cast<std::size_t>(a)] >
           bottom[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<TaskId> deadline_order(const TaskGraph& g) {
  std::vector<TaskId> order(static_cast<std::size_t>(g.task_count()));
  std::iota(order.begin(), order.end(), TaskId{0});
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const Time da = g.task(a).abs_deadline();
    const Time db = g.task(b).abs_deadline();
    return da != db ? da < db : a < b;
  });
  return order;
}

}  // namespace reference

std::vector<TaskId> to_vector(std::span<const TaskId> s) {
  return {s.begin(), s.end()};
}

/// Every order the context holds, and both inverse ranks, against the
/// reference; analyze() shares the context's order functions, so its
/// orders must be the same.
void expect_reference_orders(const TaskGraph& g, int procs,
                             const std::string& label) {
  const SchedContext ctx = test::make_ctx(g, procs);
  const std::vector<TaskId> topo = reference::topo_order(g);
  const std::vector<TaskId> by_deadline = reference::deadline_order(g);
  EXPECT_EQ(to_vector(ctx.topo_order()), topo) << label;
  EXPECT_EQ(to_vector(ctx.dfs_order()), reference::dfs_order(g)) << label;
  EXPECT_EQ(to_vector(ctx.level_order()), reference::level_order(g)) << label;
  EXPECT_EQ(to_vector(ctx.deadline_order()), by_deadline) << label;
  for (std::size_t r = 0; r < topo.size(); ++r) {
    EXPECT_EQ(ctx.topo_rank(topo[r]), static_cast<int>(r)) << label;
    EXPECT_EQ(ctx.deadline_rank(by_deadline[r]), static_cast<int>(r)) << label;
  }
  const Topology analyzed = analyze(g);
  EXPECT_EQ(analyzed.topo_order, topo) << label;
  EXPECT_EQ(to_vector(ctx.dfs_order()), analyzed.dfs_order) << label;
  EXPECT_EQ(to_vector(ctx.level_order()), analyzed.level_order) << label;
}

TEST(SchedContextOrders, MatchTheReferenceOnTheLedgerCorpus) {
  for (const test::LedgerInstance& inst : test::ledger_corpus()) {
    expect_reference_orders(inst.graph, inst.procs, inst.name);
  }
}

/// A random DAG on n tasks: arcs only go forward in a shuffled order (so
/// ids are not already topological), a random density down to none (so
/// many graphs have several roots), zero execution times, and deadlines
/// and bottom levels that often tie.
TaskGraph random_dag(Rng& rng, int n) {
  std::vector<int> position(static_cast<std::size_t>(n));
  std::iota(position.begin(), position.end(), 0);
  rng.shuffle(std::span<int>(position));
  TaskGraph g;
  for (int i = 0; i < n; ++i) {
    Task t;
    t.name = "t" + std::to_string(i);
    t.exec = rng.chance(0.25) ? 0 : rng.uniform_int(1, 8);
    t.phase = rng.uniform_int(0, 4);
    t.rel_deadline = rng.uniform_int(t.exec, 24);
    g.add_task(t);
  }
  const double density = rng.uniform_real(0.0, 0.4);
  for (TaskId a = 0; a < n; ++a) {
    for (TaskId b = 0; b < n; ++b) {
      if (position[static_cast<std::size_t>(a)] <
              position[static_cast<std::size_t>(b)] &&
          rng.chance(density)) {
        g.add_arc(a, b, rng.uniform_int(0, 5));
      }
    }
  }
  return g;
}

TEST(SchedContextOrders, MatchTheReferenceOnRandomDags) {
  Rng rng(0x0c0de5);
  int several_roots = 0;
  int zero_exec = 0;
  for (int i = 0; i < 200; ++i) {
    const int n = 1 + i % kMaxTasks;
    const TaskGraph g = random_dag(rng, n);
    int roots = 0;
    for (TaskId t = 0; t < n; ++t) {
      roots += g.is_input(t);
      zero_exec += g.task(t).exec == 0;
    }
    several_roots += roots > 1;
    expect_reference_orders(g, 1 + i % kMaxProcs,
                            "dag " + std::to_string(i) + ", n " +
                                std::to_string(n));
  }
  EXPECT_GT(several_roots, 100);
  EXPECT_GT(zero_exec, 200);
}

/// The precondition message `build` throws, with its location.
template <typename F>
std::string refusal(F&& build) {
  try {
    build();
  } catch (const precondition_error& e) {
    return e.what();
  }
  return "(no precondition_error)";
}

/// `build` is refused with exactly `message` (the location that follows it
/// is not compared).
template <typename F>
void expect_refusal(F&& build, const std::string& message) {
  const std::string what = refusal(build);
  EXPECT_TRUE(what.starts_with("parabb: precondition failed: " + message +
                               " "))
      << what;
}

TaskGraph one_task(Time exec, Time rel_deadline, Time phase = 0,
                   Time period = 0) {
  TaskGraph g;
  Task t;
  t.name = "a";
  t.exec = exec;
  t.rel_deadline = rel_deadline;
  t.phase = phase;
  t.period = period;
  g.add_task(t);
  return g;
}

TEST(SchedContextRefusals, KeepTheirMessages) {
  const Machine two = make_shared_bus_machine(2);
  {
    TaskGraph g = one_task(1, 5);
    g.add_task(g.task(0));
    g.add_arc(0, 1);
    g.add_arc(1, 0);
    expect_refusal([&] { SchedContext(g, two); },
                   "analyze() requires an acyclic graph");
  }
  {
    GraphBuilder b;
    for (int i = 0; i <= kMaxTasks; ++i) b.task("t" + std::to_string(i), 1);
    const TaskGraph wide = b.build();
    expect_refusal([&] { SchedContext(wide, two); },
                   "graph exceeds kMaxTasks (32) tasks");
  }
  expect_refusal([&] { SchedContext(TaskGraph{}, two); },
                 "graph must contain at least one task");
  for (const int procs : {0, kMaxProcs + 1}) {
    expect_refusal(
        [&] {
          SchedContext(one_task(1, 5),
                       Machine{procs, CommModel::per_item(1), std::nullopt});
        },
        "machine processor count out of supported range");
  }
  {
    TaskGraph g = one_task(1, 5);
    g.task(0).exec = -1;
    expect_refusal([&] { SchedContext(g, two); },
                   "invalid graph: negative execution time on task a");
  }
  expect_refusal([&] { SchedContext(one_task(1, -1), two); },
                 "invalid graph: negative relative deadline on a");
  expect_refusal(
      [&] { SchedContext(one_task(1, 10, 0, 5), two); },
      "invalid graph: d_i > T_i violates the non-overlapping-window model (a)");
  expect_refusal([&] { SchedContext(one_task(kMaxCompactTime + 1, 0), two); },
                 "execution time exceeds the compact time range");
  expect_refusal(
      [&] { SchedContext(one_task(1, 5, kMaxCompactTime + 1), two); },
      "arrival time exceeds the compact time range");
  expect_refusal(
      [&] { SchedContext(one_task(1, kMaxCompactTime, kMaxCompactTime), two); },
      "deadline exceeds the compact time range");
  {
    TaskGraph g = one_task(1, 5);
    g.add_task(g.task(0));
    g.add_arc(0, 1, kMaxCompactTime + 1);
    expect_refusal([&] { SchedContext(g, two); },
                   "communication delay exceeds the compact time range");
  }
  {
    Machine ring = make_network_machine(NetworkTopology::ring(4));
    ring.procs = 2;
    expect_refusal([&] { SchedContext(one_task(1, 5), ring); },
                   "topology/processor count mismatch");
  }
}

}  // namespace
}  // namespace parabb
