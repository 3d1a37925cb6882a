#include "parabb/bnb/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/cancel.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/sched/validator.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TEST(ParallelEngine, MatchesBruteForceOnTinyInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 6, 3);
    const SchedContext ctx = test::make_ctx(g, 2);
    ParallelParams pp;
    pp.threads = 4;
    const ParallelResult r = solve_bnb_parallel(ctx, pp);
    ASSERT_TRUE(r.found_solution);
    EXPECT_TRUE(r.proved);
    EXPECT_EQ(r.best_cost, brute_force(ctx).best_cost) << "seed " << seed;
  }
}

TEST(ParallelEngine, MatchesSequentialOnPaperInstances) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const TaskGraph g = test::paper_instance(seed);
    const SchedContext ctx = test::make_ctx(g, 3);
    const SearchResult seq = solve_bnb(ctx, Params{});
    ParallelParams pp;
    pp.threads = 4;
    const ParallelResult par = solve_bnb_parallel(ctx, pp);
    EXPECT_EQ(par.best_cost, seq.best_cost) << "seed " << seed;
    EXPECT_TRUE(par.proved);
  }
}

TEST(ParallelEngine, SingleThreadWorks) {
  const TaskGraph g = test::paper_instance(21);
  const SchedContext ctx = test::make_ctx(g, 2);
  ParallelParams pp;
  pp.threads = 1;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_EQ(r.threads_used, 1);
  EXPECT_EQ(r.best_cost, solve_bnb(ctx, Params{}).best_cost);
}

TEST(ParallelEngine, BestScheduleIsSound) {
  const TaskGraph g = test::paper_instance(23);
  const Machine machine = make_shared_bus_machine(3);
  const SchedContext ctx(g, machine);
  ParallelParams pp;
  pp.threads = 3;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  ASSERT_TRUE(r.found_solution);
  const ValidationReport rep = validate_schedule(r.best, g, machine);
  EXPECT_TRUE(rep.structurally_sound) << rep.error;
  EXPECT_EQ(max_lateness(r.best, g), r.best_cost);
}

TEST(ParallelEngine, TimeLimitTerminates) {
  const TaskGraph g = test::paper_instance(25);
  const SchedContext ctx = test::make_ctx(g, 4);
  ParallelParams pp;
  pp.threads = 4;
  pp.base.rb.time_limit_s = 0.0;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_TRUE(r.found_solution);  // EDF seed
  // Either it finished instantly (tiny search) or the limit tripped.
  if (r.reason == TerminationReason::kTimeLimit) {
    EXPECT_FALSE(r.proved);
  }
}

TEST(ParallelEngine, GeneratedBudgetTerminates) {
  const TaskGraph g = test::paper_instance(25);
  const SchedContext ctx = test::make_ctx(g, 4);
  ParallelParams pp;
  pp.threads = 4;
  pp.base.rb.max_generated = 100;  // summed across workers
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_TRUE(r.found_solution);  // EDF seed
  if (r.reason == TerminationReason::kBudget) {
    EXPECT_FALSE(r.proved);
  } else {
    EXPECT_EQ(r.reason, TerminationReason::kExhausted);
  }
}

// rb.max_memory_bytes stops the search whether or not the degradation
// ladder is on: the workers' summed slab bytes are checked against it at
// every flush, and 16 KiB is below one slab chunk.
TEST(ParallelEngine, MemoryBudgetStopsWithoutTheLadder) {
  const TaskGraph g = test::tight_instance(29);
  const SchedContext ctx = test::make_ctx(g, 2);
  for (const int threads : {1, 4}) {
    ParallelParams pp;
    pp.threads = threads;
    pp.base.lb = LowerBound::kLB0;  // weak bound: plenty of live work
    pp.base.rb.max_memory_bytes = std::size_t{16} << 10;
    pp.base.rb.time_limit_s = 30;  // safety net only
    const ParallelResult r = solve_bnb_parallel(ctx, pp);
    EXPECT_EQ(r.reason, TerminationReason::kBudget) << threads << " threads";
    EXPECT_FALSE(r.proved) << threads << " threads";
    EXPECT_TRUE(r.found_solution) << threads << " threads";
  }
}

TEST(ParallelEngine, CancelTokenStopsAllWorkers) {
  const TaskGraph g = test::paper_instance(27);
  const SchedContext ctx = test::make_ctx(g, 4);
  ParallelParams pp;
  pp.threads = 4;
  CancelToken token;
  token.cancel();
  pp.base.cancel = &token;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_TRUE(r.found_solution);
  if (r.reason == TerminationReason::kCancelled) {
    EXPECT_FALSE(r.proved);
  }
}

TEST(ParallelEngine, InfiniteUpperBoundFindsOptimum) {
  const TaskGraph g = test::tiny_random(30, 6, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  ParallelParams pp;
  pp.threads = 2;
  pp.base.ub = UpperBoundInit::kInfinite;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  ASSERT_TRUE(r.found_solution);
  EXPECT_EQ(r.best_cost, brute_force(ctx).best_cost);
}

TEST(ParallelEngine, BrGuaranteeHolds) {
  const TaskGraph g = test::tiny_random(31, 7, 3);
  const SchedContext ctx = test::make_ctx(g, 2);
  const Time opt = brute_force(ctx).best_cost;
  ParallelParams pp;
  pp.threads = 4;
  pp.base.br = 0.10;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_GE(r.best_cost, opt);
  const double allowed =
      0.10 * std::max(std::abs(static_cast<double>(r.best_cost)),
                      std::abs(static_cast<double>(opt))) +
      1.0;
  EXPECT_LE(static_cast<double>(r.best_cost - opt), allowed);
}

// The shared lock-striped transposition table must not perturb the result:
// whatever the thread count (and thus probe interleaving / eviction order),
// the engine returns the same optimal lateness and a validator-clean
// incumbent. Run under PARABB_SANITIZE=thread in CI to also certify the
// table and work-queue synchronization race-free.
TEST(ParallelEngine, TranspositionDeterministicAcrossThreadCounts) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    const TaskGraph g = test::tight_instance(seed);
    const Machine machine = make_shared_bus_machine(3);
    const SchedContext ctx(g, machine);

    // Reference: sequential solve without the table.
    const Time reference = solve_bnb(ctx, Params{}).best_cost;

    for (const int threads : {1, 2, 8}) {
      ParallelParams pp;
      pp.threads = threads;
      pp.base.transposition.enabled = true;
      pp.base.transposition.shards = 4;  // < threads at 8: real contention
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      ASSERT_TRUE(r.found_solution);
      EXPECT_TRUE(r.proved);
      EXPECT_EQ(r.best_cost, reference)
          << "seed " << seed << " threads " << threads;
      const ValidationReport rep = validate_schedule(r.best, g, machine);
      EXPECT_TRUE(rep.structurally_sound) << rep.error;
      EXPECT_EQ(max_lateness(r.best, g), r.best_cost);
      EXPECT_GT(r.stats.tt_hits + r.stats.tt_misses, 0u);
    }
  }
}

TEST(ParallelEngine, StatsAreMerged) {
  const TaskGraph g = test::tight_instance(27);
  const SchedContext ctx = test::make_ctx(g, 2);
  ParallelParams pp;
  pp.threads = 4;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_GT(r.stats.expanded, 0u);
  EXPECT_GT(r.stats.generated, r.stats.expanded);
  EXPECT_GE(r.stats.seconds, 0.0);
  // Workers report their dive-stack footprint; merged it must be nonzero
  // for any search that expanded at least one vertex.
  EXPECT_GT(r.stats.peak_memory_bytes, 0u);
}

TEST(ParallelEngine, DisposedCountsWorkAbandonedByCancel) {
  const TaskGraph g = test::tight_instance(31);
  const SchedContext ctx = test::make_ctx(g, 2);
  CancelToken token;
  token.cancel();  // trip before the search starts: everything is abandoned
  ParallelParams pp;
  pp.threads = 2;
  pp.base.cancel = &token;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_EQ(r.reason, TerminationReason::kCancelled);
  // The seed frontier was built before the first poll, so the deques hold
  // work that the stop discarded; it must be accounted, not silently zero.
  EXPECT_GT(r.stats.disposed, 0u);
}

// Lost-wakeup regression for SearchGovernor::stop: a stop raised while
// workers park must still end the search. Cancel under load from a racing
// thread, at staggered delays, and require every run to join promptly.
TEST(ParallelEngine, CancelUnderLoadStress) {
  const TaskGraph g = test::tight_instance(29);
  const SchedContext ctx = test::make_ctx(g, 2);
  for (int rep = 0; rep < 12; ++rep) {
    CancelToken token;
    ParallelParams pp;
    pp.threads = 8;
    pp.base.lb = LowerBound::kLB0;  // weak bound: plenty of live work
    pp.base.cancel = &token;
    std::thread canceller([&token, rep] {
      std::this_thread::sleep_for(std::chrono::microseconds(rep * 300));
      token.cancel();
    });
    const ParallelResult r = solve_bnb_parallel(ctx, pp);
    canceller.join();
    EXPECT_TRUE(r.found_solution);  // the EDF seed at minimum
    EXPECT_TRUE(r.reason == TerminationReason::kCancelled ||
                r.reason == TerminationReason::kExhausted);
  }
}

// Idle-accounting regression (ISSUE 8 satellite): a failed steal sweep
// must not double-count a worker in `idle`, or termination declares early
// and the engine returns a wrong (unproved-but-marked-proved) answer.
// Searches with very uneven subtree sizes at high thread counts maximize
// forage/park churn; the engine asserts its idle invariant post-join
// (PARABB_ASSERT), and here every run must also prove the same optimum.
// 25 reps x 8 threads gives the race a real chance to land if the
// accounting regresses.
TEST(ParallelEngine, IdleAccountingStress) {
  const TaskGraph g = test::tight_instance(33);
  const SchedContext ctx = test::make_ctx(g, 2);
  const Time reference = solve_bnb(ctx, Params{}).best_cost;
  for (int rep = 0; rep < 25; ++rep) {
    ParallelParams pp;
    pp.threads = 8;
    const ParallelResult r = solve_bnb_parallel(ctx, pp);
    ASSERT_TRUE(r.proved) << "rep " << rep;
    ASSERT_EQ(r.best_cost, reference) << "rep " << rep;
    // Steal accounting is monotone: successes never exceed attempts.
    EXPECT_LE(r.stats.steals_succeeded, r.stats.steals_attempted)
        << "rep " << rep;
  }
}

// A checkpoint ends a round of the workers, and the next round starts from
// the deques they left. With the controller due at every supervisor poll,
// each round is as short as it can be, so a vertex lost or doubled
// between rounds changes a 1-thread search's counters, and a round that
// pauses after the last expansion must end the search instead of writing
// empty snapshots: at 1 thread every round but the last expands at least
// 256 vertices.
TEST(ParallelEngine, PausedSearchIsTheSameSearch) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("parabb_paused_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  std::uint64_t single_thread_writes = 0;
  for (const test::LedgerInstance& inst : test::ledger_corpus()) {
    if (inst.name != "s7-loose-m2" && inst.name != "s8-tight-m2" &&
        inst.name != "s11-tight-m2") {
      continue;
    }
    const SchedContext ctx = test::make_ctx(inst.graph, inst.procs);
    Params base;
    base.transposition.enabled = true;
    const Time optimum = solve_bnb(ctx, base).best_cost;
    ParallelParams pp;
    pp.base = base;
    pp.threads = 1;
    const ParallelResult unpaused = solve_bnb_parallel(ctx, pp);
    for (const int threads : {1, 4, 8}) {
      CheckpointController ckpt(path, /*every_ms=*/1e-9);
      pp.base.ckpt = &ckpt;
      pp.threads = threads;
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      ASSERT_TRUE(r.proved) << inst.name << ", " << threads << " threads";
      EXPECT_EQ(r.best_cost, optimum) << inst.name;
      if (threads != 1) continue;
      single_thread_writes += ckpt.writes();
      EXPECT_LE(ckpt.writes(), r.stats.expanded / 256) << inst.name;
      for (const SearchStatsField& f : kSearchStatsFields) {
        EXPECT_EQ(r.stats.*(f.member), unpaused.stats.*(f.member))
            << inst.name << ": " << f.name;
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(single_thread_writes, 0u);  // the rounds did pause
}

// A single-threaded work-stealing run never steals; its counters must be
// exactly zero (the sequential differential in test_obs relies on this).
// The workers dive LIFO and never dispose of vertices, so the engine
// refuses another selection rule or a MAXSZAS bound instead of ignoring
// it.
TEST(ParallelEngine, RefusesFieldsItCannotHonour) {
  const SchedContext ctx = test::make_ctx(test::small_diamond(), 2);
  ParallelParams pp;
  pp.threads = 1;
  for (const SelectRule s : {SelectRule::kLLB, SelectRule::kFIFO}) {
    pp.base.select = s;
    EXPECT_THROW(solve_bnb_parallel(ctx, pp), precondition_error);
  }
  pp.base.select = SelectRule::kLIFO;
  pp.base.rb.max_active = 50;
  EXPECT_THROW(solve_bnb_parallel(ctx, pp), precondition_error);
}

TEST(ParallelEngine, SingleThreadNeverSteals) {
  const TaskGraph g = test::tight_instance(41);
  const SchedContext ctx = test::make_ctx(g, 2);
  ParallelParams pp;
  pp.threads = 1;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_EQ(r.stats.steals_attempted, 0u);
  EXPECT_EQ(r.stats.steals_succeeded, 0u);
}

}  // namespace
}  // namespace parabb
