#include "parabb/sched/etf.hpp"

#include <gtest/gtest.h>

#include "parabb/sched/validator.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(Etf, SchedulesEverything) {
  const TaskGraph g = test::small_diamond();
  const SchedContext ctx = test::make_ctx(g, 2);
  const EtfResult r = schedule_etf(ctx);
  EXPECT_EQ(r.schedule.task_count(), 4);
  EXPECT_EQ(r.max_lateness, max_lateness(r.schedule, g));
  EXPECT_EQ(max_lateness(r.schedule, ctx), max_lateness(r.schedule, g));
}

TEST(Etf, PicksGloballyEarliestStart) {
  // Task "late" arrives at t=5, "now" at t=0: ETF starts "now" first even
  // though "late" has the tighter deadline (ETF is deadline-blind).
  const TaskGraph g = GraphBuilder()
                          .task("late", 10, /*rel_deadline=*/11, /*phase=*/5)
                          .task("now", 10, 100, 0)
                          .build();
  const SchedContext ctx = test::make_ctx(g, 1);
  const EtfResult r = schedule_etf(ctx);
  EXPECT_EQ(r.schedule.entry(1).start, 0);
  EXPECT_EQ(r.schedule.entry(0).start, 10);
}

TEST(Etf, SpreadsAcrossProcessors) {
  const SchedContext ctx = test::make_ctx(test::independent_tasks(4), 2);
  const EtfResult r = schedule_etf(ctx);
  // Earliest-start placement alternates processors: makespan 20, not 40.
  EXPECT_EQ(makespan(r.schedule), 20);
}

TEST(Etf, Deterministic) {
  const TaskGraph g = test::paper_instance(42);
  const SchedContext ctx = test::make_ctx(g, 3);
  const EtfResult a = schedule_etf(ctx);
  const EtfResult b = schedule_etf(ctx);
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    EXPECT_EQ(a.schedule.entry(t).start, b.schedule.entry(t).start);
    EXPECT_EQ(a.schedule.entry(t).proc, b.schedule.entry(t).proc);
  }
}

class EtfSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtfSweep, StructurallySoundOnRandomInstances) {
  const TaskGraph g = test::paper_instance(GetParam());
  for (int m = 2; m <= 4; ++m) {
    const Machine machine = make_shared_bus_machine(m);
    const SchedContext ctx(g, machine);
    const EtfResult r = schedule_etf(ctx);
    const ValidationReport rep = validate_schedule(r.schedule, g, machine);
    EXPECT_TRUE(rep.structurally_sound) << rep.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtfSweep,
                         ::testing::Range<std::uint64_t>(400, 412));

}  // namespace
}  // namespace parabb
