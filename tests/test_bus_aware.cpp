#include "parabb/sched/bus_aware.hpp"

#include <gtest/gtest.h>

#include "parabb/sched/edf.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/workload/presets.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(BusAware, NoCrossTrafficMeansNoChange) {
  // Single processor: all messages are local, re-timing is identity.
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 1);
  const EdfResult edf = schedule_edf(ctx);
  const BusAwareResult r = retime_with_bus(ctx, g, edf.schedule);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.bus_busy, 0);
  EXPECT_EQ(r.max_lateness, edf.max_lateness);
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    EXPECT_EQ(r.schedule.entry(t).start, edf.schedule.entry(t).start);
  }
}

TEST(BusAware, ContentionCanOnlyDelay) {
  // Fork-join with heavy messages saturates the bus.
  TaskGraph g = preset_fork_join(4, 10, 30);
  assign_deadlines_slicing(g);
  const SchedContext ctx = test::make_ctx(g, 4);
  const EdfResult edf = schedule_edf(ctx);
  const BusAwareResult r = retime_with_bus(ctx, g, edf.schedule);
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    EXPECT_GE(r.schedule.entry(t).start, edf.schedule.entry(t).start);
  }
  EXPECT_GE(r.max_lateness, edf.max_lateness);
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.bus_busy, 0);
}

TEST(BusAware, PreservesAssignmentAndOrder) {
  const TaskGraph g = test::paper_instance(17);
  const SchedContext ctx = test::make_ctx(g, 3);
  const EdfResult edf = schedule_edf(ctx);
  const BusAwareResult r = retime_with_bus(ctx, g, edf.schedule);
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    EXPECT_EQ(r.schedule.entry(t).proc, edf.schedule.entry(t).proc);
  }
  for (ProcId p = 0; p < 3; ++p) {
    const auto before = edf.schedule.proc_sequence(p);
    const auto after = r.schedule.proc_sequence(p);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].task, after[i].task);
    }
  }
}

class BusAwareSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BusAwareSweep, RetimedScheduleRespectsPrecedenceAndArrivals) {
  const TaskGraph g = test::paper_instance(GetParam());
  const Machine machine = make_shared_bus_machine(3);
  const SchedContext ctx(g, machine);
  const EdfResult edf = schedule_edf(ctx);
  const BusAwareResult r = retime_with_bus(ctx, g, edf.schedule);
  // The retimed schedule still satisfies the *nominal* model's constraints
  // (bus serialization only adds delay beyond nominal).
  const ValidationReport rep = validate_schedule(r.schedule, g, machine);
  EXPECT_TRUE(rep.structurally_sound) << rep.error;
  EXPECT_EQ(r.max_lateness, max_lateness(r.schedule, g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusAwareSweep,
                         ::testing::Range<std::uint64_t>(300, 312));

}  // namespace
}  // namespace parabb
