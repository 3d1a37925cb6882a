#include "parabb/sched/partial_schedule.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "parabb/bnb/vertex.hpp"
#include "parabb/support/rng.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(PartialSchedule, EmptyState) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  const PartialSchedule ps = PartialSchedule::empty(ctx);
  EXPECT_EQ(ps.count(), 0);
  EXPECT_FALSE(ps.complete(ctx));
  EXPECT_TRUE(ps.scheduled().empty());
  EXPECT_TRUE(ps.ready().contains(0));
  EXPECT_EQ(ps.ready().size(), 1);
  EXPECT_EQ(ps.proc_avail(0), 0);
  EXPECT_EQ(ps.min_proc_avail(ctx), 0);
  EXPECT_EQ(ps.max_lateness_scheduled(ctx), kTimeNegInf);
}

TEST(PartialSchedule, PlaceRespectsArrival) {
  // Task b arrives at t=10 even though P0 is free at 0.
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  EXPECT_EQ(ps.place(ctx, 0, 0), 0);  // a on P0: [0,10)
  // b arrives at 10, pred a finishes at 10 (same proc, no comm).
  EXPECT_EQ(ps.earliest_start(ctx, 1, 0), 10);
  // On P1 the cross-proc message (5 items) delays data to t=15.
  EXPECT_EQ(ps.earliest_start(ctx, 1, 1), 15);
}

TEST(PartialSchedule, PlaceAppendsAfterProcessorTail) {
  const SchedContext ctx = test::make_ctx(test::independent_tasks(3), 1);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  EXPECT_EQ(ps.place(ctx, 0, 0), 0);
  EXPECT_EQ(ps.place(ctx, 1, 0), 10);  // appended after task 0
  EXPECT_EQ(ps.place(ctx, 2, 0), 20);
  EXPECT_EQ(ps.proc_avail(0), 30);
  EXPECT_TRUE(ps.complete(ctx));
}

TEST(PartialSchedule, ReadySetEvolves) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  ps.place(ctx, 0, 0);
  EXPECT_TRUE(ps.ready().contains(1));
  EXPECT_TRUE(ps.ready().contains(2));
  EXPECT_FALSE(ps.ready().contains(3));
  ps.place(ctx, 1, 0);
  EXPECT_FALSE(ps.ready().contains(3));  // c still missing
  ps.place(ctx, 2, 1);
  EXPECT_TRUE(ps.ready().contains(3));
}

TEST(PartialSchedule, CommChargedOnlyAcrossProcessors) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule same = PartialSchedule::empty(ctx);
  same.place(ctx, 0, 0);
  same.place(ctx, 1, 0);  // a,b co-located: b starts at 10
  EXPECT_EQ(same.start(1), 10);

  PartialSchedule cross = PartialSchedule::empty(ctx);
  cross.place(ctx, 0, 0);
  cross.place(ctx, 1, 1);  // b remote: data arrives 10+5
  EXPECT_EQ(cross.start(1), 15);
}

TEST(PartialSchedule, FinishIsStartPlusExec) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  ps.place(ctx, 0, 1);
  EXPECT_EQ(ps.finish(ctx, 0), ps.start(0) + 10);
  EXPECT_EQ(ps.proc(0), 1);
}

TEST(PartialSchedule, MaxLatenessTracksScheduledPrefix) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  ps.place(ctx, 0, 0);  // finish 10, deadline 15 -> lateness -5
  EXPECT_EQ(ps.max_lateness_scheduled(ctx), -5);
  ps.place(ctx, 1, 0);  // [10,30), deadline 50 -> -20; max stays -5
  EXPECT_EQ(ps.max_lateness_scheduled(ctx), -5);
}

TEST(PartialSchedule, MinProcAvailIsAdaptive) {
  const SchedContext ctx = test::make_ctx(test::independent_tasks(4), 3);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  ps.place(ctx, 0, 0);
  ps.place(ctx, 1, 1);
  EXPECT_EQ(ps.min_proc_avail(ctx), 0);  // P2 untouched
  ps.place(ctx, 2, 2);
  EXPECT_EQ(ps.min_proc_avail(ctx), 10);
}

TEST(PartialSchedule, EqualityComparesPlacementsOnly) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule a = PartialSchedule::empty(ctx);
  PartialSchedule b = PartialSchedule::empty(ctx);
  EXPECT_EQ(a, b);
  a.place(ctx, 0, 0);
  EXPECT_NE(a, b);
  b.place(ctx, 0, 0);
  EXPECT_EQ(a, b);
  // Same task on a different processor differs.
  PartialSchedule c = PartialSchedule::empty(ctx);
  c.place(ctx, 0, 1);
  EXPECT_NE(a, c);
}

TEST(PartialSchedule, CopyIsIndependent) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  PartialSchedule a = PartialSchedule::empty(ctx);
  a.place(ctx, 0, 0);
  PartialSchedule b = a;
  b.place(ctx, 1, 0);
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(b.count(), 2);
}

// ---------------------------------------------------------------------------
// pack()/unpack(): the encoding of stored search vertices.
// ---------------------------------------------------------------------------

/// n independent tasks feeding one sink, which waits on n - 1 predecessors:
/// the widest missing-predecessor count an n-task instance can have.
TaskGraph fan_in(int n) {
  GraphBuilder b;
  for (int i = 0; i < n; ++i) b.task("t" + std::to_string(i), 5, 400, 0);
  for (int i = 0; i + 1 < n; ++i) {
    b.arc("t" + std::to_string(i), "t" + std::to_string(n - 1), 1);
  }
  return b.build();
}

/// Whether `b` is indistinguishable from `a` to the search.
::testing::AssertionResult same_state(const PartialSchedule& a,
                                      const PartialSchedule& b) {
  if (!(a == b)) return ::testing::AssertionFailure() << "operator== differs";
  if (a.fingerprint() != b.fingerprint() ||
      b.fingerprint() != b.fingerprint_from_scratch()) {
    return ::testing::AssertionFailure() << "fingerprint differs";
  }
  if (a.ready() != b.ready()) {
    return ::testing::AssertionFailure()
           << "ready " << a.ready().bits() << " vs " << b.ready().bits();
  }
  if (a.count() != b.count()) {
    return ::testing::AssertionFailure()
           << "count " << a.count() << " vs " << b.count();
  }
  for (ProcId p = 0; p < kMaxProcs; ++p) {
    if (a.proc_avail(p) != b.proc_avail(p)) {
      return ::testing::AssertionFailure() << "proc_avail(" << p << ") differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A random walk of placements and undos over `ctx`, run twice in
/// lockstep: once on `orig`, and once on a copy that goes through
/// pack() and unpack() before every step. The copy is unpacked into
/// `scratch`, which still holds whatever state it held last, possibly of
/// another instance, so a field unpack() fails to restore shows up as a
/// stale value; a wrong readiness count shows up when a later place() or
/// unplace() on the copy diverges.
void walk_through_codec(const SchedContext& ctx, std::uint64_t seed,
                        PartialSchedule& scratch) {
  const int n = ctx.task_count();
  Rng rng(derive_seed(0xc0dec, seed));
  PartialSchedule orig = PartialSchedule::empty(ctx);
  PartialSchedule copy = orig;
  std::vector<std::byte> buf(PartialSchedule::packed_bytes(ctx));
  std::vector<std::pair<TaskId, CTime>> undo;  // placed task, old frontier
  for (int step = 0; step < 4 * n + 4; ++step) {
    std::fill(buf.begin(), buf.end(), std::byte{0xa5});
    copy.pack(ctx, buf.data());
    scratch.unpack(ctx, buf.data());
    ASSERT_TRUE(same_state(orig, scratch))
        << "n=" << n << " m=" << ctx.proc_count() << " step " << step;
    copy = scratch;

    const bool can_place = orig.count() < n;
    if (!undo.empty() && (!can_place || rng.index(3) == 0)) {
      const auto [t, frontier] = undo.back();
      undo.pop_back();
      // Alternate between the two unplace() overloads.
      if (step % 2 == 0) {
        orig.unplace(ctx, t, frontier);
        copy.unplace(ctx, t, frontier);
      } else {
        EXPECT_EQ(orig.unplace(ctx, t), frontier);
        EXPECT_EQ(copy.unplace(ctx, t), frontier);
      }
    } else if (can_place) {
      const TaskSet ready = orig.ready();
      auto pick = rng.index(static_cast<std::size_t>(ready.size()));
      TaskId t = kNoTask;
      for (const TaskId cand : ready) {
        if (pick-- == 0) {
          t = cand;
          break;
        }
      }
      const auto p = static_cast<ProcId>(
          rng.index(static_cast<std::size_t>(ctx.proc_count())));
      undo.emplace_back(t, orig.proc_avail(p));
      const CTime start = orig.place(ctx, t, p);
      EXPECT_EQ(copy.place(ctx, t, p), start);
    }
    ASSERT_TRUE(same_state(orig, copy))
        << "n=" << n << " m=" << ctx.proc_count() << " after step " << step;
  }
}

TEST(PackedState, RandomWalksRoundTripOnBothLayouts) {
  PartialSchedule scratch;
  for (const int n : {1, 12, 16, 17, 32}) {
    for (const int m : {1, 2, 4, 5, 8}) {
      const SchedContext wide = test::make_ctx(fan_in(n), m);
      walk_through_codec(wide, 0, scratch);
      for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const TaskGraph g = test::tiny_random(seed, n, n < 8 ? n : 8);
        walk_through_codec(test::make_ctx(g, m), seed, scratch);
      }
    }
  }
}

TEST(PackedState, PaperSizedInstancesPackIntoTwoCacheLines) {
  for (const int n : {1, 12, 16, 17, 32}) {
    for (const int m : {1, 2, 4, 5, 8}) {
      const SchedContext ctx = test::make_ctx(fan_in(n), m);
      const bool compact = n <= 16 && m <= 4;
      EXPECT_EQ(PartialSchedule::compact(ctx), compact);
      EXPECT_EQ(PartialSchedule::packed_bytes(ctx),
                compact ? 120u : sizeof(PartialSchedule));
      // Memory budgets are priced in this size: a different one moves every
      // budgeted outcome and ladder threshold.
      EXPECT_EQ(vertex_bytes(ctx), compact ? 128u : 272u)
          << "n=" << n << " m=" << m;
    }
  }
}

}  // namespace
}  // namespace parabb
