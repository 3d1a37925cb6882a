#include "parabb/sched/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "parabb/support/assert.hpp"

namespace parabb {

Schedule Schedule::from_partial(const SchedContext& ctx,
                                const PartialSchedule& ps) {
  PARABB_REQUIRE(ps.complete(ctx),
                 "from_partial requires a complete schedule");
  Schedule s;
  s.byid_.resize(static_cast<std::size_t>(ctx.task_count()));
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    s.byid_[static_cast<std::size_t>(t)] =
        ScheduledTask{t, ps.proc(t), Time{ps.start(t)},
                      Time{ps.finish(ctx, t)}};
  }
  return s;
}

Schedule Schedule::from_entries(int task_count,
                                std::vector<ScheduledTask> entries) {
  PARABB_REQUIRE(static_cast<int>(entries.size()) == task_count,
                 "entry count must equal task count");
  Schedule s;
  s.byid_.resize(static_cast<std::size_t>(task_count));
  std::vector<char> seen(static_cast<std::size_t>(task_count), 0);
  for (const ScheduledTask& e : entries) {
    PARABB_REQUIRE(e.task >= 0 && e.task < task_count,
                   "entry task id out of range");
    const auto ut = static_cast<std::size_t>(e.task);
    PARABB_REQUIRE(!seen[ut], "duplicate entry for a task");
    seen[ut] = 1;
    s.byid_[ut] = e;
  }
  return s;
}

const ScheduledTask& Schedule::entry(TaskId t) const {
  PARABB_REQUIRE(t >= 0 && t < task_count(), "task id out of range");
  return byid_[static_cast<std::size_t>(t)];
}

std::vector<ScheduledTask> Schedule::proc_sequence(ProcId p) const {
  std::vector<ScheduledTask> seq;
  for (const ScheduledTask& e : byid_) {
    if (e.proc == p) seq.push_back(e);
  }
  std::sort(seq.begin(), seq.end(),
            [](const ScheduledTask& a, const ScheduledTask& b) {
              return a.start < b.start;
            });
  return seq;
}

int Schedule::used_proc_span() const noexcept {
  int span = 0;
  for (const ScheduledTask& e : byid_) span = std::max(span, e.proc + 1);
  return span;
}

Time max_lateness(const Schedule& s, const TaskGraph& graph) {
  PARABB_REQUIRE(s.task_count() == graph.task_count(),
                 "schedule/graph task count mismatch");
  Time worst = kTimeNegInf;
  for (TaskId t = 0; t < s.task_count(); ++t) {
    worst = std::max(worst, s.entry(t).finish - graph.task(t).abs_deadline());
  }
  return worst;
}

Time max_lateness(const Schedule& s, const SchedContext& ctx) {
  PARABB_REQUIRE(s.task_count() == ctx.task_count(),
                 "schedule/context task count mismatch");
  Time worst = kTimeNegInf;
  for (TaskId t = 0; t < s.task_count(); ++t) {
    worst = std::max(worst, s.entry(t).finish - Time{ctx.deadline(t)});
  }
  return worst;
}

Time makespan(const Schedule& s) {
  Time end = 0;
  for (TaskId t = 0; t < s.task_count(); ++t)
    end = std::max(end, s.entry(t).finish);
  return end;
}

Time total_idle(const Schedule& s, int procs) {
  const Time end = makespan(s);
  Time busy = 0;
  for (TaskId t = 0; t < s.task_count(); ++t)
    busy += s.entry(t).finish - s.entry(t).start;
  return end * procs - busy;
}

std::string to_gantt(const Schedule& s, const TaskGraph& graph, int procs,
                     int width) {
  PARABB_REQUIRE(width >= 16, "gantt width too small");
  const Time end = std::max<Time>(1, makespan(s));
  const double scale = static_cast<double>(width) / static_cast<double>(end);
  std::ostringstream os;
  for (ProcId p = 0; p < procs; ++p) {
    os << "P" << p << " |";
    std::string row(static_cast<std::size_t>(width), '.');
    for (const ScheduledTask& e : s.proc_sequence(p)) {
      const auto a = static_cast<std::size_t>(
          static_cast<double>(e.start) * scale);
      auto b = static_cast<std::size_t>(static_cast<double>(e.finish) * scale);
      b = std::min<std::size_t>(std::max(b, a + 1),
                                static_cast<std::size_t>(width));
      const std::string& name = graph.task(e.task).name;
      for (std::size_t i = a; i < b; ++i) {
        const std::size_t rel = i - a;
        row[i] = rel < name.size() ? name[rel] : '#';
      }
    }
    os << row << "|\n";
  }
  os << "    0" << std::string(static_cast<std::size_t>(width) - 1, ' ')
     << end << "\n";
  return os.str();
}

}  // namespace parabb
