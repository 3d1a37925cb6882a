// SchedContext: a flattened, cache-friendly view of (task graph × machine)
// shared by the scheduling operation, the EDF baseline, the lower-bound
// functions, and the B&B engine.
//
// All times are pre-narrowed to int32 (checked) and all adjacency is CSR so
// the per-vertex hot path touches contiguous arrays only. Every table sits
// in a fixed-capacity array sized by kMaxTasks / kMaxProcs (the context
// refuses larger instances), so building a context makes no heap
// allocation. The context keeps no copy of the graph or the machine:
// callers that need task names, message sizes or the network topology
// read them from the graph and machine they built the context from.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "parabb/platform/machine.hpp"
#include "parabb/support/bitset64.hpp"
#include "parabb/support/types.hpp"
#include "parabb/taskgraph/graph.hpp"

namespace parabb {

/// Compact time type used inside search vertices.
using CTime = std::int32_t;

class SchedContext {
 public:
  /// Builds the context; validates n <= kMaxTasks, m <= kMaxProcs,
  /// acyclicity, and that every time value fits the compact range.
  /// Everything the context reads is copied into its own arrays: it is
  /// self-contained and safe to keep past the source graph's lifetime.
  SchedContext(const TaskGraph& graph, const Machine& machine);
  /// A context is built in place and passed by reference. Its arrays'
  /// unused tails are never written, so a copy would read indeterminate
  /// values.
  SchedContext(const SchedContext&) = delete;
  SchedContext& operator=(const SchedContext&) = delete;

  int task_count() const noexcept { return n_; }
  int proc_count() const noexcept { return m_; }
  /// The machine's nominal per-item communication cost model.
  CommModel comm() const noexcept { return comm_; }

  CTime exec(TaskId t) const noexcept { return exec_[idx(t)]; }
  CTime arrival(TaskId t) const noexcept { return arrival_[idx(t)]; }
  /// Absolute deadline D_i of the (single-frame) invocation.
  CTime deadline(TaskId t) const noexcept { return deadline_[idx(t)]; }

  /// Predecessors of t as parallel spans: ids and precomputed nominal
  /// cross-processor communication delays (items × per-item delay).
  std::span<const TaskId> pred_ids(TaskId t) const noexcept {
    return {pred_task_.data() + pred_off_[idx(t)], pred_len(t)};
  }
  std::span<const CTime> pred_comm(TaskId t) const noexcept {
    return {pred_comm_.data() + pred_off_[idx(t)], pred_len(t)};
  }
  std::span<const TaskId> succ_ids(TaskId t) const noexcept {
    return {succ_task_.data() + succ_off_[idx(t)], succ_len(t)};
  }
  std::span<const CTime> succ_comm(TaskId t) const noexcept {
    return {succ_comm_.data() + succ_off_[idx(t)], succ_len(t)};
  }

  int pred_count(TaskId t) const noexcept {
    return static_cast<int>(pred_ids(t).size());
  }

  /// Hop multiplier between two processors (0 on the diagonal): the
  /// nominal delay of a message is pred_comm[k] × hop(p, q).
  CTime hop(ProcId p, ProcId q) const noexcept {
    return hop_[static_cast<std::size_t>(p) * kMaxProcs +
                static_cast<std::size_t>(q)];
  }

  /// True when every pair of distinct processors is the same number of
  /// hops apart (a shared bus, a fully connected network), so that any
  /// renaming of the processors keeps every message delay.
  bool uniform_hops() const noexcept { return uniform_hops_; }

  /// Tasks with no predecessors (ready in the empty schedule).
  TaskSet initial_ready() const noexcept { return initial_ready_; }

  /// All n tasks as a set.
  TaskSet all_tasks() const noexcept { return TaskSet::first_n(n_); }

  /// Deterministic forward topological order (Topology::topo_order).
  std::span<const TaskId> topo_order() const noexcept {
    return {topo_order_.data(), idx(n_)};
  }
  /// Position of t within topo_order() (inverse permutation).
  int topo_rank(TaskId t) const noexcept { return topo_rank_[idx(t)]; }
  /// Tasks sorted by (absolute deadline, id): the static order the LB2
  /// packing bound walks. Membership changes between bound evaluations,
  /// the order never does, so it is computed once here instead of per
  /// evaluation (see bnb/lower_bound.hpp, IncrementalLB).
  std::span<const TaskId> deadline_order() const noexcept {
    return {deadline_order_.data(), idx(n_)};
  }
  /// Position of t within deadline_order() (inverse permutation).
  int deadline_rank(TaskId t) const noexcept { return deadline_rank_[idx(t)]; }
  /// exec / deadline of the task at deadline rank r, as contiguous arrays
  /// so the packing loop touches no indirection.
  CTime exec_at_deadline_rank(int r) const noexcept {
    return dl_exec_[static_cast<std::size_t>(r)];
  }
  CTime deadline_at_rank(int r) const noexcept {
    return dl_deadline_[static_cast<std::size_t>(r)];
  }
  /// Prefix sums over deadline_order(): sum of exec of ranks [0, r).
  /// deadline_prefix_work(n) is the total workload of the graph.
  Time deadline_prefix_work(int r) const noexcept {
    return dl_prefix_work_[static_cast<std::size_t>(r)];
  }
  Time total_work() const noexcept {
    return dl_prefix_work_[static_cast<std::size_t>(n_)];
  }
  /// Static slack D_t − (a_t + c_t): how late t's window is relative to an
  /// unobstructed run. Negative slack means t is late in *every* schedule.
  Time slack(TaskId t) const noexcept { return slack_[idx(t)]; }
  /// max_t (a_t + c_t − D_t) = −min slack: an exact static floor on every
  /// bound function (f̂_t >= a_t + c_t always), so evaluators may seed
  /// their running maximum with it and short-circuit earlier.
  Time static_lateness_floor() const noexcept { return static_floor_; }
  /// DF branching priority (see Topology::dfs_order).
  std::span<const TaskId> dfs_order() const noexcept {
    return {dfs_order_.data(), idx(n_)};
  }
  /// BF1 branching priority (see Topology::level_order).
  std::span<const TaskId> level_order() const noexcept {
    return {level_order_.data(), idx(n_)};
  }

 private:
  static std::size_t idx(TaskId t) noexcept {
    return static_cast<std::size_t>(t);
  }
  std::size_t pred_len(TaskId t) const noexcept {
    return pred_off_[idx(t) + 1] - pred_off_[idx(t)];
  }
  std::size_t succ_len(TaskId t) const noexcept {
    return succ_off_[idx(t) + 1] - succ_off_[idx(t)];
  }

  /// Most arcs a DAG within kMaxTasks can have.
  static constexpr int kMaxArcs = kMaxTasks * (kMaxTasks - 1) / 2;
  template <typename T>
  using PerTask = std::array<T, kMaxTasks>;
  template <typename T>
  using PerArc = std::array<T, kMaxArcs>;

  // Only the first n (n + 1 for offsets and prefix sums, the arc count for
  // the CSR arrays) entries of each array are written and read. The rest
  // are left uninitialized: zero-filling the ~10 KB of arrays would make
  // building a context about a third slower.
  int n_ = 0;
  int m_ = 0;
  CommModel comm_;
  PerTask<CTime> exec_, arrival_, deadline_;
  PerTask<TaskId> topo_order_, dfs_order_, level_order_, deadline_order_;
  PerTask<int> topo_rank_, deadline_rank_;
  PerTask<CTime> dl_exec_, dl_deadline_;
  std::array<Time, kMaxTasks + 1> dl_prefix_work_;
  PerTask<Time> slack_;
  Time static_floor_ = kTimeNegInf;
  std::array<std::uint32_t, kMaxTasks + 1> pred_off_, succ_off_;
  PerArc<TaskId> pred_task_, succ_task_;
  PerArc<CTime> pred_comm_, succ_comm_;
  std::array<CTime, static_cast<std::size_t>(kMaxProcs) * kMaxProcs> hop_{};
  bool uniform_hops_ = true;
  TaskSet initial_ready_;
};

}  // namespace parabb
