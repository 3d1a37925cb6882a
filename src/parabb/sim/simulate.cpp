#include "parabb/sim/simulate.hpp"

#include <algorithm>
#include <cmath>

#include "parabb/support/assert.hpp"

namespace parabb {

Schedule replay_with_exec_times(const SchedContext& ctx,
                                const Schedule& planned,
                                std::span<const Time> actual_exec) {
  const int n = ctx.task_count();
  PARABB_REQUIRE(planned.task_count() == n, "schedule/context mismatch");
  PARABB_REQUIRE(static_cast<int>(actual_exec.size()) == n,
                 "one actual execution time per task required");
  for (TaskId t = 0; t < n; ++t) {
    const Time c = actual_exec[static_cast<std::size_t>(t)];
    PARABB_REQUIRE(c >= 1 && c <= Time{ctx.exec(t)},
                   "actual execution time must be in [1, WCET]");
  }

  // Work-conserving dispatch of the planned per-processor sequences.
  std::vector<std::vector<TaskId>> order(
      static_cast<std::size_t>(ctx.proc_count()));
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    for (const ScheduledTask& e : planned.proc_sequence(p)) {
      order[static_cast<std::size_t>(p)].push_back(e.task);
    }
  }

  std::vector<Time> start(static_cast<std::size_t>(n), -1);
  std::vector<Time> finish(static_cast<std::size_t>(n), -1);
  std::vector<std::size_t> next(order.size(), 0);
  std::vector<Time> avail(order.size(), 0);

  int placed = 0;
  while (placed < n) {
    bool progressed = false;
    for (std::size_t p = 0; p < order.size(); ++p) {
      if (next[p] >= order[p].size()) continue;
      const TaskId t = order[p][next[p]];
      const auto preds = ctx.pred_ids(t);
      const auto comm = ctx.pred_comm(t);
      Time s = std::max(Time{ctx.arrival(t)}, avail[p]);
      bool ready = true;
      for (std::size_t k = 0; k < preds.size(); ++k) {
        const auto uj = static_cast<std::size_t>(preds[k]);
        if (finish[uj] < 0) {
          ready = false;
          break;
        }
        const ProcId pj = planned.entry(preds[k]).proc;
        s = std::max(s, finish[uj] +
                            Time{comm[k]} *
                                ctx.hop(pj, static_cast<ProcId>(p)));
      }
      if (!ready) continue;
      const auto ut = static_cast<std::size_t>(t);
      start[ut] = s;
      finish[ut] = s + actual_exec[ut];
      avail[p] = finish[ut];
      ++next[p];
      ++placed;
      progressed = true;
    }
    PARABB_ASSERT(progressed);  // planned orders are precedence-consistent
  }

  std::vector<ScheduledTask> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) {
    const auto ut = static_cast<std::size_t>(t);
    entries.push_back(
        ScheduledTask{t, planned.entry(t).proc, start[ut], finish[ut]});
  }
  return Schedule::from_entries(n, std::move(entries));
}

SimulationReport simulate_schedule(const SchedContext& ctx,
                                   const Schedule& planned,
                                   const SimulationConfig& config) {
  PARABB_REQUIRE(config.lo_fraction > 0.0 &&
                     config.lo_fraction <= config.hi_fraction &&
                     config.hi_fraction <= 1.0,
                 "execution-time fractions must satisfy 0 < lo <= hi <= 1");
  PARABB_REQUIRE(config.runs >= 1, "at least one simulation run required");

  SimulationReport report;
  report.planned_lateness = max_lateness(planned, ctx);

  Rng rng(config.seed);
  const int n = ctx.task_count();
  std::vector<Time> actual(static_cast<std::size_t>(n));
  for (int run = 0; run < config.runs; ++run) {
    for (TaskId t = 0; t < n; ++t) {
      const auto wcet = static_cast<double>(ctx.exec(t));
      const double sampled = rng.uniform_real(config.lo_fraction * wcet,
                                              config.hi_fraction * wcet);
      actual[static_cast<std::size_t>(t)] = std::clamp<Time>(
          static_cast<Time>(std::llround(sampled)), 1, Time{ctx.exec(t)});
    }
    const Schedule realized = replay_with_exec_times(ctx, planned, actual);
    SimulationRun sr;
    sr.max_lateness = max_lateness(realized, ctx);
    sr.makespan = makespan(realized);
    report.lateness.add(static_cast<double>(sr.max_lateness));
    report.makespan.add(static_cast<double>(sr.makespan));
    if (sr.max_lateness > 0) ++report.deadline_miss_runs;
    report.runs.push_back(sr);
  }
  return report;
}

}  // namespace parabb
