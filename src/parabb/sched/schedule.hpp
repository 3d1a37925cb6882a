// Schedule: a complete time-driven non-preemptive multiprocessor schedule —
// the mapping of every task to (processor, start, finish) — plus metrics
// and rendering.
#pragma once

#include <string>
#include <vector>

#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

struct ScheduledTask {
  TaskId task = kNoTask;
  ProcId proc = kNoProc;
  Time start = 0;
  Time finish = 0;
};

class Schedule {
 public:
  Schedule() = default;

  /// Converts a *complete* PartialSchedule into its public form.
  static Schedule from_partial(const SchedContext& ctx,
                               const PartialSchedule& ps);

  /// Builds from explicit entries (used by tests and deserialization).
  /// Entries must cover tasks 0..n-1 exactly once.
  static Schedule from_entries(int task_count,
                               std::vector<ScheduledTask> entries);

  int task_count() const noexcept { return static_cast<int>(byid_.size()); }
  bool empty() const noexcept { return byid_.empty(); }

  const ScheduledTask& entry(TaskId t) const;

  /// Tasks on processor p ordered by start time.
  std::vector<ScheduledTask> proc_sequence(ProcId p) const;

  /// Processors that appear in the schedule (max proc id + 1).
  int used_proc_span() const noexcept;

 private:
  std::vector<ScheduledTask> byid_;  // indexed by TaskId
};

/// L_max = max_i (f_i - D_i) against the graph's absolute deadlines.
Time max_lateness(const Schedule& s, const TaskGraph& graph);
/// The same against the deadlines the context holds.
Time max_lateness(const Schedule& s, const SchedContext& ctx);

/// Completion time of the last task.
Time makespan(const Schedule& s);

/// Sum of idle gaps on processors 0..procs-1 between time 0 and makespan.
Time total_idle(const Schedule& s, int procs);

/// ASCII Gantt chart (one row per processor), for examples and debugging.
/// `width` is the target character width of the time axis.
std::string to_gantt(const Schedule& s, const TaskGraph& graph, int procs,
                     int width = 72);

}  // namespace parabb
