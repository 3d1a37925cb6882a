// Differential/property suite for IncrementalLB (bnb/lower_bound.hpp).
//
// The incremental evaluator must agree with the from-scratch
// lower_bound_cost on every reachable state, for every bound function, or
// the engines silently change their pruning decisions: the kernel
// (bnb/expand.hpp) bounds every child through evaluate_child alone. The
// tests here pin the two implementations to each other over randomized
// graphs and place/unplace walks (the fingerprint_from_scratch oracle
// pattern), over a depth-first walk of every effort-ledger instance,
// check the cutoff contract, hold evaluate_child (bound a child without
// placing it) to place → evaluate → unplace, and check that the parallel
// engine agrees with the sequential one across thread counts.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/sched/validator.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

constexpr LowerBound kAllBounds[] = {LowerBound::kLB0, LowerBound::kLB1,
                                     LowerBound::kLB2};

/// The O(1) undo must leave exactly the state the scanning
/// PartialSchedule::unplace (the reference) leaves.
void expect_same_state(const SchedContext& ctx, const PartialSchedule& got,
                       const PartialSchedule& want) {
  EXPECT_TRUE(got == want) << "depth " << got.count();
  EXPECT_EQ(got.fingerprint(), want.fingerprint());
  EXPECT_EQ(got.ready().bits(), want.ready().bits());
  for (ProcId p = 0; p < ctx.proc_count(); ++p) {
    EXPECT_EQ(got.proc_avail(p), want.proc_avail(p)) << "proc " << p;
  }
}

/// The cutoff contract: a result below `cutoff` is the exact bound;
/// otherwise it lies in [cutoff, exact]. Either way the `bound >= cutoff`
/// prune decision matches the exact evaluation.
void expect_cutoff_contract(Time v, Time exact, Time cutoff) {
  if (v < cutoff) {
    EXPECT_EQ(v, exact) << "below-cutoff result must be exact";
  } else {
    EXPECT_LE(cutoff, v);
    EXPECT_LE(v, exact) << "result must stay a valid lower bound";
  }
  EXPECT_EQ(v >= cutoff, exact >= cutoff)
      << "prune decision diverged at cutoff " << cutoff;
}

/// Every child of `ps` (each ready task on each processor), every bound
/// kind, cutoffs around the exact child bound: evaluate_child must return
/// what place → evaluate → unplace returns on `inc`, obey the cutoff
/// contract, and leave `ps` unchanged.
void check_children(const SchedContext& ctx, PartialSchedule& ps,
                    IncrementalLB& inc) {
  for (const TaskId t : ps.ready()) {
    for (ProcId p = 0; p < ctx.proc_count(); ++p) {
      for (const LowerBound kind : kAllBounds) {
        PartialSchedule child = ps;
        child.place(ctx, t, p);
        const Time exact = lower_bound_cost(ctx, child, kind);
        for (const Time cutoff : {exact - 1, exact, exact + 1, kTimeInf}) {
          inc.place(ps, t, p);
          const Time placed = inc.evaluate(ps, kind, cutoff);
          inc.unplace(ps, t);
          const PartialSchedule before = ps;
          const Time v = inc.evaluate_child(ps, t, p, kind, cutoff);
          ASSERT_EQ(v, placed)
              << "evaluate_child diverged from place/evaluate/unplace, task "
              << t << " proc " << p << " kind " << static_cast<int>(kind)
              << " cutoff " << cutoff << " depth " << ps.count();
          expect_cutoff_contract(v, exact, cutoff);
          expect_same_state(ctx, ps, before);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

/// One random place/unplace walk over `ctx`, asserting at every step that
/// evaluate_child agrees with placing every child, that the maintained
/// incremental evaluator — right after those evaluate_child calls — and a
/// freshly attached one both agree with lower_bound_cost for all three
/// bound functions, and after every unplace that the state matches the
/// scanning unplace's.
void run_walk(const SchedContext& ctx, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  PartialSchedule ps = PartialSchedule::empty(ctx);
  IncrementalLB inc(ctx);
  inc.attach(ps);
  std::vector<TaskId> placed;  // LIFO discipline, as unplace requires

  const auto check_all = [&] {
    check_children(ctx, ps, inc);
    if (::testing::Test::HasFailure()) return;
    for (const LowerBound kind : kAllBounds) {
      const Time expect = lower_bound_cost(ctx, ps, kind);
      ASSERT_EQ(inc.evaluate(ps, kind), expect)
          << "maintained scratch diverged, kind="
          << static_cast<int>(kind) << " depth=" << ps.count();
      IncrementalLB fresh(ctx);
      fresh.attach(ps);
      ASSERT_EQ(fresh.evaluate(ps, kind), expect)
          << "fresh attach diverged, kind=" << static_cast<int>(kind)
          << " depth=" << ps.count();
    }
  };

  check_all();
  if (::testing::Test::HasFailure()) return;
  for (int step = 0; step < 4 * ctx.task_count(); ++step) {
    const TaskSet ready = ps.ready();
    const bool can_place = !ready.empty();
    const bool can_unplace = !placed.empty();
    if (!can_place && !can_unplace) break;
    const bool do_place =
        can_place && (!can_unplace || (rng() & 3u) != 0);  // bias forward
    if (do_place) {
      std::vector<TaskId> candidates;
      for (const TaskId t : ready) candidates.push_back(t);
      const TaskId t = candidates[rng() % candidates.size()];
      const ProcId p =
          static_cast<ProcId>(rng() % static_cast<unsigned>(ctx.proc_count()));
      inc.place(ps, t, p);
      placed.push_back(t);
    } else {
      PartialSchedule scanned = ps;
      scanned.unplace(ctx, placed.back());
      inc.unplace(ps, placed.back());
      placed.pop_back();
      expect_same_state(ctx, ps, scanned);
      if (::testing::Test::HasFailure()) return;
    }
    check_all();
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(IncrementalLB, MatchesScratchOnRandomWalks) {
  // 70 seeds x 3 sizes = 210 distinct random graphs (>= the 200 the issue
  // asks for), each exercised by a full place/unplace walk.
  for (std::uint64_t seed = 0; seed < 70; ++seed) {
    for (const int n : {6, 9, 12}) {
      const TaskGraph g = test::tiny_random(seed, n, 3 + n / 4);
      const int procs = 2 + static_cast<int>(seed % 3);
      const SchedContext ctx = test::make_ctx(g, procs);
      run_walk(ctx, seed * 1000 + static_cast<std::uint64_t>(n));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalLB, MatchesScratchOnHandBuiltGraphs) {
  for (const TaskGraph& g :
       {test::small_diamond(), test::independent_tasks(7)}) {
    for (const int procs : {1, 2, 4}) {
      const SchedContext ctx = test::make_ctx(g, procs);
      run_walk(ctx, 99);
      if (HasFatalFailure()) return;
    }
  }
}

/// Depth-first over the whole tree of `ctx` (nothing pruned), in the
/// kernel's generation order — ready task, then processor — counting
/// generated children as the engines do and expanding no vertex once
/// `budget` of them were generated. check_children runs at every expanded
/// vertex.
void walk_depth_first(const SchedContext& ctx, PartialSchedule& ps,
                      IncrementalLB& inc, std::uint64_t budget,
                      std::uint64_t& generated) {
  if (generated >= budget) return;
  check_children(ctx, ps, inc);
  if (::testing::Test::HasFailure()) return;
  generated += static_cast<std::uint64_t>(ps.ready().size()) *
               static_cast<std::uint64_t>(ctx.proc_count());
  if (ps.count() + 1 == ctx.task_count()) return;  // children are goals
  for (const TaskId t : ps.ready()) {
    for (ProcId p = 0; p < ctx.proc_count(); ++p) {
      inc.place(ps, t, p);
      walk_depth_first(ctx, ps, inc, budget, generated);
      inc.unplace(ps, t);
      if (generated >= budget || ::testing::Test::HasFailure()) return;
    }
  }
}

// The kernel bounds children only through evaluate_child; this holds it to
// the from-scratch bound on the states the effort ledger's corpus reaches,
// within the ledger's 60 000-generated budget per instance.
TEST(IncrementalLB, MatchesScratchOnLedgerCorpus) {
  for (const test::LedgerInstance& inst : test::ledger_corpus()) {
    const SchedContext ctx = test::make_ctx(inst.graph, inst.procs);
    PartialSchedule ps = PartialSchedule::empty(ctx);
    IncrementalLB inc(ctx);
    inc.attach(ps);
    std::uint64_t generated = 0;
    walk_depth_first(ctx, ps, inc, 60000, generated);
    ASSERT_FALSE(HasFailure()) << inst.name;
  }
}

// The cutoff contract (expect_cutoff_contract), for evaluate() on the
// placed state and for evaluate_child() on each child of it.
TEST(IncrementalLB, CutoffIsSound) {
  std::mt19937_64 rng(7);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const TaskGraph g = test::tiny_random(seed, 10, 4);
    const SchedContext ctx = test::make_ctx(g, 3);
    PartialSchedule ps = PartialSchedule::empty(ctx);
    IncrementalLB inc(ctx);
    inc.attach(ps);
    // Walk to a random interior depth.
    const int depth = static_cast<int>(rng() % 8);
    for (int i = 0; i < depth && !ps.ready().empty(); ++i) {
      std::vector<TaskId> candidates;
      for (const TaskId t : ps.ready()) candidates.push_back(t);
      inc.place(ps, candidates[rng() % candidates.size()],
                static_cast<ProcId>(rng() % 3u));
    }
    for (const LowerBound kind : kAllBounds) {
      const Time exact = lower_bound_cost(ctx, ps, kind);
      for (const Time cutoff : {exact - 3, exact - 1, exact, exact + 1,
                                exact + 5, kTimeInf}) {
        expect_cutoff_contract(inc.evaluate(ps, kind, cutoff), exact,
                               cutoff);
      }
    }
    for (const TaskId t : ps.ready()) {
      for (ProcId p = 0; p < ctx.proc_count(); ++p) {
        PartialSchedule child = ps;
        child.place(ctx, t, p);
        for (const LowerBound kind : kAllBounds) {
          const Time exact = lower_bound_cost(ctx, child, kind);
          for (const Time cutoff : {exact - 3, exact - 1, exact, exact + 1,
                                    exact + 5, kTimeInf}) {
            expect_cutoff_contract(inc.evaluate_child(ps, t, p, kind, cutoff),
                                   exact, cutoff);
          }
        }
      }
    }
  }
}

// Refactored-engine determinism on the §4.1 workload: 1/4/8 threads all
// land on the sequential engine's incumbent with a sound schedule.
TEST(IncrementalLB, ParallelEnginesAgreeAcrossThreadCounts) {
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const TaskGraph g = test::paper_instance(seed);
    const Machine machine = make_shared_bus_machine(3);
    const SchedContext ctx(g, machine);
    const SearchResult seq = solve_bnb(ctx, Params{});
    for (const int threads : {1, 4, 8}) {
      ParallelParams pp;
      pp.threads = threads;
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      ASSERT_TRUE(r.found_solution);
      EXPECT_TRUE(r.proved);
      EXPECT_EQ(r.best_cost, seq.best_cost)
          << "seed " << seed << " threads " << threads;
      const ValidationReport rep = validate_schedule(r.best, g, machine);
      EXPECT_TRUE(rep.structurally_sound) << rep.error;
      EXPECT_EQ(max_lateness(r.best, g), r.best_cost);
    }
  }
}

}  // namespace
}  // namespace parabb
