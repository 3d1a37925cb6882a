// Robustness suite (docs/robustness.md): deterministic fault injection,
// the graceful-degradation ladder, the stagnation watchdog, and the
// service's admission control.
//
// The load-bearing contract: every injected fault resolves to a *defined*
// JobOutcome — never a crash, deadlock, or silent wrong answer. The
// seeded fault matrix sweeps 200 reproducible plans across the sequential
// engine and both parallel schedulers; tools/fault_sweep.sh re-runs this
// binary under ASan and TSan so "no silent corruption" is certified, not
// assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/bnb/vertex.hpp"
#include "parabb/robust/degrade.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/robust/watchdog.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/service/backoff.hpp"
#include "parabb/service/protocol.hpp"
#include "parabb/service/service.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/recycler.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "parabb/verify/verifier.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

FaultPlan one_fault(FaultKind kind, std::uint64_t at, std::int64_t param = 0) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{kind, at, param});
  return plan;
}

/// A defined terminal state: a known reason, and any claimed schedule is
/// validator-clean. This is what "no silent wrong answer" means here.
void expect_defined(const TaskGraph& g, const Machine& m, bool found,
                    const Schedule& best, TerminationReason reason,
                    const std::string& what) {
  switch (reason) {
    case TerminationReason::kExhausted:
    case TerminationReason::kBoundStop:
    case TerminationReason::kTimeLimit:
    case TerminationReason::kBudget:
    case TerminationReason::kCancelled:
      break;
    default:
      FAIL() << what << ": undefined termination reason";
  }
  if (found) {
    const ValidationReport rep = validate_schedule(best, g, m);
    EXPECT_TRUE(rep.structurally_sound) << what;
  }
}

// ---------------------------------------------------------------------------
// Fault plans and injector hooks
// ---------------------------------------------------------------------------

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 987654321ull}) {
    const FaultPlan a = FaultPlan::random(seed);
    const FaultPlan b = FaultPlan::random(seed);
    ASSERT_EQ(a.faults.size(), b.faults.size()) << "seed " << seed;
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
    ASSERT_GE(a.faults.size(), 1u);
    ASSERT_LE(a.faults.size(), 3u);
  }
  EXPECT_NE(FaultPlan::random(1).describe(), FaultPlan::random(2).describe());
}

TEST(FaultInjector, AllocFailFiresExactlyOnce) {
  FaultInjector inj(one_fault(FaultKind::kAllocFail, 10));
  inj.on_alloc(5);  // below threshold: nothing
  EXPECT_EQ(inj.fired(), 0u);
  EXPECT_THROW(inj.on_alloc(10), std::bad_alloc);
  EXPECT_EQ(inj.fired(), 1u);
  inj.on_alloc(11);  // budget consumed: no second throw
  EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultInjector, CancelStormIsSticky) {
  const FaultInjector inj(one_fault(FaultKind::kCancelStorm, 100));
  EXPECT_FALSE(inj.cancel_requested(99));
  EXPECT_TRUE(inj.cancel_requested(100));
  EXPECT_TRUE(inj.cancel_requested(50));  // sticky once observed
}

TEST(FaultInjector, ClockSkewSumsTriggeredSpecs) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{FaultKind::kClockSkew, 10, 2000});
  plan.faults.push_back(FaultSpec{FaultKind::kClockSkew, 100, -500});
  const FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.clock_skew_s(5), 0.0);
  EXPECT_DOUBLE_EQ(inj.clock_skew_s(10), 2.0);
  EXPECT_DOUBLE_EQ(inj.clock_skew_s(100), 1.5);
}

TEST(FaultInjector, QueueFullConsumesRejectionBudget) {
  FaultInjector inj(one_fault(FaultKind::kQueueFull, 0, /*param=*/2));
  EXPECT_TRUE(inj.submit_rejected());
  EXPECT_TRUE(inj.submit_rejected());
  EXPECT_FALSE(inj.submit_rejected());
  EXPECT_EQ(inj.fired(), 2u);
}

// ---------------------------------------------------------------------------
// Degrade ladder
// ---------------------------------------------------------------------------

TEST(DegradeLadder, TargetLevelMonotone) {
  EXPECT_EQ(degrade_target_level(0, 1000), 0);
  EXPECT_EQ(degrade_target_level(550, 1000), 1);
  EXPECT_EQ(degrade_target_level(700, 1000), 2);
  EXPECT_EQ(degrade_target_level(850, 1000), 3);
  EXPECT_EQ(degrade_target_level(2000, 1000), 4);
  EXPECT_EQ(degrade_target_level(2000, 0), 0);  // zero budget: never
}

TEST(DegradeAction, StringRoundTrip) {
  for (const DegradeAction a :
       {DegradeAction::kShedTT, DegradeAction::kTightenDB, DegradeAction::kBF1,
        DegradeAction::kDF}) {
    DegradeAction parsed{};
    ASSERT_TRUE(parse_degrade_action(to_string(a), parsed));
    EXPECT_EQ(parsed, a);
  }
  DegradeAction parsed{};
  EXPECT_FALSE(parse_degrade_action("bogus", parsed));
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, FiresOnStagnationOnce) {
  Watchdog::Config cfg;
  cfg.interval_ms = 5;
  cfg.stall_ms = 30;
  Watchdog dog(cfg);
  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> fired{0};
  const std::uint64_t id =
      dog.watch(&progress, [&fired] { fired.fetch_add(1); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(dog.stalls_fired(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(fired.load(), 1);  // at most once per registration
  dog.unwatch(id);
}

TEST(WatchdogTest, AdvancingProgressNeverFires) {
  Watchdog::Config cfg;
  cfg.interval_ms = 5;
  cfg.stall_ms = 60;
  Watchdog dog(cfg);
  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> fired{0};
  const std::uint64_t id =
      dog.watch(&progress, [&fired] { fired.fetch_add(1); });
  for (int i = 0; i < 20; ++i) {
    progress.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  dog.unwatch(id);
  EXPECT_EQ(fired.load(), 0);
}

TEST(WatchdogTest, ZeroThresholdsAreRejectedWithLineNumberedError) {
  // A zero cadence or stall threshold would make the scan thread spin (or
  // fire instantly on every job); both are configuration bugs and must be
  // rejected at construction, with the error naming the source line.
  for (const double bad : {0.0, -5.0}) {
    Watchdog::Config cfg;
    cfg.stall_ms = bad;
    try {
      Watchdog dog(cfg);
      FAIL() << "stall_ms=" << bad << " accepted";
    } catch (const precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("watchdog.cpp:"),
                std::string::npos)
          << e.what();
    }
    Watchdog::Config cfg2;
    cfg2.interval_ms = bad;
    EXPECT_THROW(Watchdog dog2(cfg2), precondition_error);
  }
  EXPECT_THROW(Watchdog(Watchdog::Config{}).watch(nullptr, {}),
               precondition_error);
}

TEST(WatchdogTest, StallFireOnAlreadyCancelledJobIsANoOp) {
  // The race the service lives with: a job is cancelled (client request,
  // shutdown) while the watchdog's scan already considers it stalled. The
  // stall action then lands on an already-tripped token — cancel() is
  // idempotent, so the fire must be a harmless no-op, not a double-cancel
  // crash or a second escalation.
  Watchdog::Config cfg;
  cfg.interval_ms = 5;
  cfg.stall_ms = 20;
  Watchdog dog(cfg);
  CancelToken token;
  token.cancel();  // the job is already cancelled...
  std::atomic<std::uint64_t> progress{0};
  const std::uint64_t id =
      dog.watch(&progress, [&token] { token.cancel(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dog.stalls_fired() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(dog.stalls_fired(), 1u);  // ...and the fire changed nothing
  EXPECT_TRUE(token.cancelled());
  dog.unwatch(id);
}

// ---------------------------------------------------------------------------
// Resubmit backoff (tools/parabb_serve --backoff-seed)
// ---------------------------------------------------------------------------

TEST(Backoff, DelayStaysWithinTheFullJitterEnvelope) {
  BackoffPolicy policy(42);
  for (int attempt = 0; attempt < 40; ++attempt) {
    const int exp = std::min(attempt, BackoffPolicy::kMaxExponent);
    const double cap = 50.0 * static_cast<double>(std::uint64_t{1} << exp);
    for (int i = 0; i < 20; ++i) {
      const double d = policy.delay_ms(50.0, attempt);
      EXPECT_GE(d, 0.0);
      EXPECT_LT(d, cap) << "attempt=" << attempt;
    }
  }
}

TEST(Backoff, SeededStreamsAreReproducible) {
  BackoffPolicy a(7);
  BackoffPolicy b(7);
  BackoffPolicy c(8);
  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const double da = a.delay_ms(100.0, i % 8);
    EXPECT_EQ(da, b.delay_ms(100.0, i % 8));  // same seed: same delays
    if (da != c.delay_ms(100.0, i % 8)) diverged = true;
  }
  EXPECT_TRUE(diverged);  // different seed: a different schedule
}

TEST(Backoff, ExponentAndBaseAreClamped) {
  // Past kMaxExponent the cap freezes (no overflow into inf/negative)...
  BackoffPolicy policy(1);
  const double huge_cap =
      1.0 * static_cast<double>(std::uint64_t{1} << BackoffPolicy::kMaxExponent);
  for (const int attempt : {31, 100, 1000000}) {
    const double d = policy.delay_ms(1.0, attempt);
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, huge_cap);
  }
  // ...a negative attempt behaves like the first (exponent 0)...
  EXPECT_LT(policy.delay_ms(10.0, -3), 10.0);
  // ...and a degenerate base is lifted to 1 ms so retries still spread.
  EXPECT_LT(policy.delay_ms(0.0, 0), 1.0);
  EXPECT_LT(policy.delay_ms(-100.0, 0), 1.0);
}

// ---------------------------------------------------------------------------
// Engine-level fault handling
// ---------------------------------------------------------------------------

TEST(EngineFaults, SequentialAllocFailResolvesToBudget) {
  const TaskGraph g = test::tight_instance(3);
  const Machine m = make_shared_bus_machine(3);
  const SchedContext ctx(g, m);
  FaultInjector inj(one_fault(FaultKind::kAllocFail, 50));
  Params params;
  params.faults = &inj;
  const SearchResult r = solve_bnb(ctx, params);
  EXPECT_EQ(r.reason, TerminationReason::kBudget);
  EXPECT_EQ(inj.fired(), 1u);
  EXPECT_TRUE(r.found_solution);  // the EDF seed survives the fault
  EXPECT_FALSE(r.proved);
  expect_defined(g, m, r.found_solution, r.best, r.reason, "seq alloc");
}

TEST(EngineFaults, SequentialCancelStormResolvesToCancelled) {
  // Seed 3 expands ~5600 vertices: the 256-iteration poll cadence fires
  // many times after the storm's threshold.
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  FaultInjector inj(one_fault(FaultKind::kCancelStorm, 300));
  Params params;
  params.faults = &inj;
  const SearchResult r = solve_bnb(ctx, params);
  EXPECT_EQ(r.reason, TerminationReason::kCancelled);
  EXPECT_EQ(outcome_of(r.reason, r.found_solution), JobOutcome::kCancelled);
}

TEST(EngineFaults, SequentialClockSkewTripsTimeLimit) {
  const SchedContext ctx = test::make_ctx(test::tight_instance(7), 3);
  // +1 hour of skew at vertex 300 against a 30 s limit: the time-limit
  // path must fire long before any real 30 s elapse.
  FaultInjector inj(one_fault(FaultKind::kClockSkew, 300, 3600 * 1000));
  Params params;
  params.faults = &inj;
  params.rb.time_limit_s = 30.0;
  const SearchResult r = solve_bnb(ctx, params);
  EXPECT_EQ(r.reason, TerminationReason::kTimeLimit);
  EXPECT_EQ(outcome_of(r.reason, r.found_solution),
            JobOutcome::kFeasibleTimeout);
}

TEST(EngineFaults, SequentialStallOnlyDelays) {
  const SchedContext ctx = test::make_ctx(test::tight_instance(11), 3);
  const SearchResult clean = solve_bnb(ctx, Params{});
  FaultInjector inj(one_fault(FaultKind::kStall, 300, /*ms=*/5));
  Params params;
  params.faults = &inj;
  const SearchResult r = solve_bnb(ctx, params);
  EXPECT_EQ(r.best_cost, clean.best_cost);
  EXPECT_EQ(r.proved, clean.proved);
}

TEST(EngineFaults, ParallelAllocFailResolvesToBudget) {
  const TaskGraph g = test::tight_instance(11);
  const Machine m = make_shared_bus_machine(3);
  const SchedContext ctx(g, m);
  FaultInjector inj(one_fault(FaultKind::kAllocFail, 200));
  ParallelParams pp;
  pp.threads = 4;
  pp.base.faults = &inj;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_EQ(r.reason, TerminationReason::kBudget);
  EXPECT_FALSE(r.proved);
  expect_defined(g, m, r.found_solution, r.best, r.reason, "parallel alloc");
}

TEST(EngineFaults, ParallelCancelStormResolvesToCancelled) {
  const SchedContext ctx = test::make_ctx(test::tight_instance(7), 3);
  FaultInjector inj(one_fault(FaultKind::kCancelStorm, 500));
  ParallelParams pp;
  pp.threads = 4;
  pp.base.faults = &inj;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  EXPECT_EQ(r.reason, TerminationReason::kCancelled);
}

// The acceptance gate: >= 200 seeded plans, every one terminating with a
// defined outcome, across the sequential engine and the parallel engine
// at 4 and 8 threads. fault_sweep.sh re-runs this under ASan/TSan.
TEST(FaultMatrix, TwoHundredSeededPlansAllResolve) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed);
    FaultInjector inj(plan);
    const TaskGraph g = test::tight_instance(seed % 17);
    const Machine m = make_shared_bus_machine(3);
    const SchedContext ctx(g, m);

    Params base;
    base.faults = &inj;
    base.rb.max_generated = 20000;  // bound the matrix's runtime
    base.rb.time_limit_s = 30.0;    // give clock-skew plans a limit to hit

    bool found = false;
    Schedule best;
    TerminationReason reason{};
    if (seed % 3 == 0) {
      const SearchResult r = solve_bnb(ctx, base);
      found = r.found_solution;
      best = r.best;
      reason = r.reason;
    } else {
      ParallelParams pp;
      pp.base = base;
      pp.threads = seed % 3 == 1 ? 4 : 8;
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      found = r.found_solution;
      best = r.best;
      reason = r.reason;
    }
    expect_defined(g, m, found, best, reason,
                   "matrix seed " + std::to_string(seed) + " plan " +
                       plan.describe());
  }
}

// ---------------------------------------------------------------------------
// Graceful-degradation ladder
// ---------------------------------------------------------------------------

struct CappedRun {
  bool found = false;
  Time cost = kTimeInf;
  TerminationReason reason{};
  SearchStats stats;
};

// LLB selection with no initial incumbent is the memory-hungry regime
// the ladder exists for: the best-first frontier balloons (LIFO keeps
// the active set at a few dozen vertices, so a memory cap never bites
// there), and until the search itself finds a goal there is nothing to
// fall back on when the budget cliff hits.
CappedRun run_capped(const SchedContext& ctx, std::size_t cap, bool ladder) {
  Params p;
  p.select = SelectRule::kLLB;
  p.ub = UpperBoundInit::kInfinite;  // incumbents must come from the search
  p.rb.max_generated = 60000;        // safety net
  if (cap != 0) p.rb.max_memory_bytes = cap;
  p.degrade = ladder;
  const SearchResult r = solve_bnb(ctx, p);
  return {r.found_solution, r.best_cost, r.reason, r.stats};
}

TEST(DegradeLadder, OffPathIsByteIdenticalToBaseline) {
  const SchedContext ctx = test::make_ctx(test::tight_instance(2), 3);
  // enabled without a memory budget, and a memory budget without enabled:
  // both must match the plain run vertex for vertex.
  const CappedRun plain = run_capped(ctx, 0, false);
  const CappedRun enabled_nocap = run_capped(ctx, 0, true);
  EXPECT_EQ(plain.cost, enabled_nocap.cost);
  EXPECT_EQ(plain.stats.generated, enabled_nocap.stats.generated);
  EXPECT_EQ(plain.stats.expanded, enabled_nocap.stats.expanded);
  EXPECT_EQ(plain.stats.degrade_steps, 0u);
  EXPECT_EQ(enabled_nocap.stats.degrade_steps, 0u);

  const std::size_t cap = plain.stats.peak_memory_bytes / 2;
  if (cap > 0) {
    const CappedRun off_a = run_capped(ctx, cap, false);
    const CappedRun off_b = run_capped(ctx, cap, false);
    EXPECT_EQ(off_a.cost, off_b.cost);
    EXPECT_EQ(off_a.stats.generated, off_b.stats.generated);
    EXPECT_EQ(off_a.stats.degrade_steps, 0u);
  }
}

TEST(DegradeLadder, RungsFireAndAreObservable) {
  // Find a seed whose memory-capped run actually climbs the ladder, then
  // check the full observability chain: stats counter, certificate
  // records, and the text round trip.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const TaskGraph g = test::tight_instance(seed);
    const Machine m = make_shared_bus_machine(3);
    const SchedContext ctx(g, m);
    const CappedRun probe = run_capped(ctx, 0, false);
    const std::size_t cap = probe.stats.peak_memory_bytes / 2;
    if (cap == 0) continue;

    Params p;
    p.select = SelectRule::kLLB;
    p.ub = UpperBoundInit::kInfinite;
    p.rb.max_generated = 60000;
    p.rb.max_memory_bytes = cap;
    p.degrade = true;
    CertificateBuilder builder;
    p.certify = &builder;
    const SearchResult r = solve_bnb(ctx, p);
    if (r.stats.degrade_steps == 0) continue;

    EXPECT_FALSE(r.proved);
    const Certificate cert = builder.take();
    ASSERT_EQ(cert.degrades.size(), r.stats.degrade_steps);
    for (std::size_t i = 0; i < cert.degrades.size(); ++i) {
      DegradeAction a{};
      EXPECT_TRUE(parse_degrade_action(cert.degrades[i].action, a));
      EXPECT_EQ(cert.degrades[i].level, static_cast<int>(i) + 1);
    }
    // Text round trip preserves the degrade audit trail.
    const std::string text = certificate_to_text(cert, g);
    const Certificate parsed = certificate_from_text(text, g);
    ASSERT_EQ(parsed.degrades.size(), cert.degrades.size());
    for (std::size_t i = 0; i < cert.degrades.size(); ++i) {
      EXPECT_EQ(parsed.degrades[i].action, cert.degrades[i].action);
      EXPECT_EQ(parsed.degrades[i].at_generated,
                cert.degrades[i].at_generated);
      EXPECT_EQ(parsed.degrades[i].level, cert.degrades[i].level);
    }
    return;  // one degrading seed is enough
  }
  FAIL() << "no seed in [0,30) climbed the ladder under a half-peak cap";
}

TEST(DegradeLadder, ParallelRungsFireUnderMemoryCap) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const SchedContext ctx = test::make_ctx(test::tight_instance(seed), 3);
    ParallelParams probe;
    probe.threads = 4;
    probe.base.ub = UpperBoundInit::kInfinite;
    probe.base.rb.max_generated = 400000;
    const ParallelResult pr = solve_bnb_parallel(ctx, probe);
    if (pr.stats.peak_memory_bytes < 4096) continue;

    ParallelParams pp = probe;
    pp.base.rb.max_memory_bytes = pr.stats.peak_memory_bytes / 2;
    pp.base.degrade = true;
    const ParallelResult r = solve_bnb_parallel(ctx, pp);
    if (r.stats.degrade_steps == 0) continue;
    EXPECT_GE(r.stats.degrade_steps, 1u);
    // A branch-rule or child-cap rung voids the proof.
    if (r.stats.degrade_steps > 1) {
      EXPECT_FALSE(r.proved);
    }
    return;
  }
  FAIL() << "no seed in [0,30) climbed the parallel ladder";
}

// Quality gate: on memory-capped instances the ladder must never lose to
// the dispose-only cliff in aggregate, and must strictly win on a decent
// fraction of the grid (the whole point of degrading before disposing).
TEST(DegradeLadder, QualityGridLadderBeatsDisposeOnly) {
  const Time kBig = 1'000'000;  // stands in for "found nothing"
  long long ladder_total = 0;
  long long dispose_total = 0;
  int wins = 0;
  int losses = 0;
  int contested = 0;  // seeds where the cap actually bit
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const SchedContext ctx = test::make_ctx(test::tight_instance(seed), 3);
    const CappedRun probe = run_capped(ctx, 0, false);
    const std::size_t cap = probe.stats.peak_memory_bytes / 2;
    if (cap == 0) continue;
    const CappedRun off = run_capped(ctx, cap, false);
    const CappedRun on = run_capped(ctx, cap, true);
    const Time off_cost = off.found ? off.cost : kBig;
    const Time on_cost = on.found ? on.cost : kBig;
    ladder_total += on_cost;
    dispose_total += off_cost;
    if (off.reason == TerminationReason::kBudget ||
        on.stats.degrade_steps > 0) {
      ++contested;
    }
    if (on_cost < off_cost) ++wins;
    if (on_cost > off_cost) ++losses;
  }
  EXPECT_LE(ladder_total, dispose_total);
  EXPECT_GE(contested, 20) << "grid too easy: caps rarely bit";
  EXPECT_GE(wins, losses);
  EXPECT_GE(wins, contested / 5)
      << "ladder strictly better on < 20% of contested seeds";
}

// ---------------------------------------------------------------------------
// Recycled search storage (support/recycler.hpp)
// ---------------------------------------------------------------------------

/// Every field of a result except its wall time, as text.
std::string describe_run(const SearchResult& r, int task_count) {
  std::ostringstream os;
  const SearchStats& s = r.stats;
  os << r.found_solution << ' ' << r.best_cost << ' ' << r.proved << ' '
     << r.certified_lower_bound << ' ' << static_cast<int>(r.reason) << " |";
  for (const std::uint64_t v :
       {s.expanded, s.generated, s.activated, s.goals, s.goal_updates,
        s.pruned_children, s.pruned_active, s.disposed, s.tt_hits,
        s.tt_misses, s.tt_evictions, s.tt_collisions, s.steals_attempted,
        s.steals_succeeded, s.degrade_steps}) {
    os << ' ' << v;
  }
  os << ' ' << s.peak_active << ' ' << s.peak_memory_bytes << " |";
  if (r.found_solution) {
    for (TaskId t = 0; t < task_count; ++t) {
      const ScheduledTask& e = r.best.entry(t);
      os << ' ' << e.proc << ':' << e.start << ':' << e.finish;
    }
  }
  return os.str();
}

/// `f()` run on a new thread, whose recycler starts empty.
template <typename F>
auto on_fresh_thread(F f) {
  decltype(f()) out{};
  std::thread([&] { out = f(); }).join();
  return out;
}

// A solve on a thread that just ran a large LLB search starts with that
// search's pool chunks and frontier buffer, full of stale vertices and
// entries. Nothing may depend on it: a memory-budgeted run whose ladder
// climbs, and certified runs, must be byte-identical to the same runs on
// a fresh thread — result, stats, and certificate text.
TEST(Recycling, WarmThreadRunsMatchColdOnes) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const TaskGraph g = test::tight_instance(seed);
    const SchedContext ctx = test::make_ctx(g, 3);
    const std::size_t cap =
        run_capped(ctx, 0, false).stats.peak_memory_bytes / 2;
    if (cap == 0) continue;
    // Empty unless the ladder climbed. Certifying adds the certificate,
    // which carries every cut and the ladder's audit trail.
    const auto budgeted = [&](bool certify) {
      Params p;
      p.select = SelectRule::kLLB;
      p.ub = UpperBoundInit::kInfinite;
      p.rb.max_generated = 60000;
      p.rb.max_memory_bytes = cap;
      p.degrade = true;
      CertificateBuilder builder;
      if (certify) p.certify = &builder;
      const SearchResult r = solve_bnb(ctx, p);
      if (r.stats.degrade_steps == 0) return std::string();
      std::string text = describe_run(r, ctx.task_count());
      if (certify) text += '\n' + certificate_to_text(builder.take(), g);
      return text;
    };
    const auto certified = [&] {
      Params p;
      p.select = SelectRule::kLLB;
      p.transposition.enabled = true;
      CertificateBuilder builder;
      p.certify = &builder;
      const SearchResult r = solve_bnb(ctx, p);
      return describe_run(r, ctx.task_count()) + '\n' +
             certificate_to_text(builder.take(), g);
    };
    const std::string cold_plain =
        on_fresh_thread([&] { return budgeted(false); });
    const std::string cold_budget_cert =
        on_fresh_thread([&] { return budgeted(true); });
    if (cold_plain.empty() || cold_budget_cert.empty()) continue;
    const std::string cold_certified = on_fresh_thread(certified);

    // A best-first search on a larger instance leaves tens of MiB of
    // default-size chunks and a frontier buffer on its thread.
    const SchedContext big_ctx = test::make_ctx(test::paper_instance(seed), 4);
    const auto large_llb = [&] {
      Params p;
      p.select = SelectRule::kLLB;
      p.ub = UpperBoundInit::kInfinite;
      p.rb.max_generated = 200000;
      return solve_bnb(big_ctx, p).stats.peak_memory_bytes;
    };
    std::thread([&] {
      EXPECT_GT(large_llb(), std::size_t{16} << 20);
      EXPECT_GT(recycler::retained_bytes(), std::size_t{16} << 20);
      EXPECT_EQ(certified(), cold_certified);
      large_llb();
      EXPECT_EQ(budgeted(true), cold_budget_cert);
      large_llb();
      EXPECT_EQ(budgeted(false), cold_plain);
      // Again, now on the budget-sized chunks the previous run left.
      EXPECT_EQ(budgeted(false), cold_plain);
    }).join();
    return;
  }
  FAIL() << "no seed in [0,30) climbed the ladder under a half-peak cap";
}

// The two vertex layouts (bnb/vertex.hpp) size their pool chunks
// differently, and the recycler hands a chunk only to a pool of its own
// size. A full-layout solve (m = 5) straight after a large compact-layout
// one (m = 4) on the same thread, and the reverse, must match the same
// solves on a fresh thread byte for byte: result, stats, certificate text.
TEST(Recycling, LayoutsShareAThreadWithoutMixing) {
  const TaskGraph g = test::tight_instance(1);
  const SchedContext compact = test::make_ctx(g, 4);
  const SchedContext full = test::make_ctx(g, 5);
  ASSERT_EQ(vertex_bytes(compact), 128u);
  ASSERT_EQ(vertex_bytes(full), 272u);
  // Best-first searches that leave tens of MiB of default-size chunks.
  const TaskGraph big = test::paper_instance(1);
  const auto large_llb = [&big](int procs) {
    Params p;
    p.select = SelectRule::kLLB;
    p.ub = UpperBoundInit::kInfinite;
    p.rb.max_generated = 200000;
    return solve_bnb(test::make_ctx(big, procs), p).stats.peak_memory_bytes;
  };
  // A certified best-first run, then the same under a memory budget that
  // climbs the ladder, whose pool uses budget-sized chunks.
  const auto certified_runs = [&g](const SchedContext& ctx) {
    std::string text;
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1} << 20}) {
      Params p;
      p.select = SelectRule::kLLB;
      p.ub = UpperBoundInit::kInfinite;
      p.rb.max_generated = 30000;
      if (cap != 0) {
        p.rb.max_memory_bytes = cap;
        p.degrade = true;
      }
      CertificateBuilder builder;
      p.certify = &builder;
      const SearchResult r = solve_bnb(ctx, p);
      text += describe_run(r, ctx.task_count()) + '\n' +
              certificate_to_text(builder.take(), g);
    }
    return text;
  };
  const std::string cold_full =
      on_fresh_thread([&] { return certified_runs(full); });
  const std::string cold_compact =
      on_fresh_thread([&] { return certified_runs(compact); });

  std::thread([&] {
    EXPECT_GT(large_llb(4), std::size_t{16} << 20);
    EXPECT_EQ(certified_runs(full), cold_full);
  }).join();
  std::thread([&] {
    EXPECT_GT(large_llb(5), std::size_t{16} << 20);
    EXPECT_EQ(certified_runs(compact), cold_compact);
  }).join();
}

// ---------------------------------------------------------------------------
// Service outer ring
// ---------------------------------------------------------------------------

JobRequest make_request(const std::string& id, std::uint64_t seed = 3) {
  JobRequest req;
  req.id = id;
  req.graph = test::tight_instance(seed);
  req.machine = make_shared_bus_machine(3);
  return req;
}

TEST(ServiceRobust, QueueDepthOverloadSheds) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 1;
  SolverService service(cfg);
  int overloaded = 0;
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    try {
      tickets.push_back(service.submit(make_request("q" + std::to_string(i))));
    } catch (const OverloadedError& e) {
      ++overloaded;
      EXPECT_GT(e.retry_after_ms, 0.0);
    }
  }
  service.wait_all();
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(service.counters().shed, static_cast<std::uint64_t>(overloaded));
  for (const JobTicket t : tickets) {
    const JobResult r = service.wait(t);
    EXPECT_TRUE(r.error.empty()) << r.error;
  }
}

TEST(ServiceRobust, InjectedQueueFullSheds) {
  FaultInjector inj(one_fault(FaultKind::kQueueFull, 0, /*param=*/2));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.faults = &inj;
  SolverService service(cfg);
  EXPECT_THROW(service.submit(make_request("f1")), OverloadedError);
  EXPECT_THROW(service.submit(make_request("f2")), OverloadedError);
  const JobTicket t = service.submit(make_request("f3"));
  const JobResult r = service.wait(t);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(service.counters().shed, 2u);
  EXPECT_FALSE(r.cached);  // fault-afflicted services never cache
}

TEST(ServiceRobust, WatchdogCancelsStagnantJob) {
  // A 600 ms injected stall against a 100 ms stall threshold: the job's
  // progress feed freezes mid-search, the watchdog trips its token, and
  // the job unwinds into a defined kCancelled outcome.
  FaultInjector inj(one_fault(FaultKind::kStall, 400, /*ms=*/600));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.watchdog_stall_ms = 100;
  cfg.faults = &inj;
  SolverService service(cfg);
  JobRequest req = make_request("stall", 7);
  req.params.ub = UpperBoundInit::kInfinite;  // keep the search long
  req.budget.max_generated = 4000000;
  const JobTicket t = service.submit(std::move(req));
  const JobResult r = service.wait(t);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, JobOutcome::kCancelled);
  EXPECT_GE(service.counters().watchdog_cancels, 1u);
}

TEST(ServiceRobust, WatchdogFireOnCancelledJobStaysCancelled) {
  // Client cancel and watchdog escalation race on the same stalled job:
  // whoever wins, the outcome is one defined kCancelled — the later fire
  // lands on an already-tripped token and changes nothing.
  FaultInjector inj(one_fault(FaultKind::kStall, 400, /*ms=*/600));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.watchdog_stall_ms = 150;
  cfg.faults = &inj;
  SolverService service(cfg);
  JobRequest req = make_request("stall-cancel", 7);
  req.params.ub = UpperBoundInit::kInfinite;  // keep the search long
  req.budget.max_generated = 4000000;
  const JobTicket t = service.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.cancel(t);  // beat the watchdog to the token (usually)
  const JobResult r = service.wait(t);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, JobOutcome::kCancelled);
  // Race-tolerant: the watchdog may or may not have fired too — what must
  // hold is a single defined cancelled outcome either way.
  EXPECT_EQ(service.counters().cancelled, 1u);
}

TEST(ServiceRobust, DegradeRequestFieldThreadsThrough) {
  const JobRequest req = request_from_json(
      R"({"id":"d1","graph":"task a exec=3","degrade":true,)"
      R"("budget":{"max_active_bytes":1000000}})");
  EXPECT_TRUE(req.params.degrade);
  EXPECT_THROW(request_from_json(R"({"id":"d2","graph":"task a exec=3",)"
                                 R"("degrade":1})"),
               std::runtime_error);
}

TEST(ServiceRobust, OverloadedResponseShape) {
  const JsonValue doc =
      JsonValue::parse(overloaded_response_json("r9", 37.5));
  EXPECT_EQ(doc.find("id")->as_string(), "r9");
  EXPECT_EQ(doc.find("outcome")->as_string(), "overloaded");
  EXPECT_DOUBLE_EQ(doc.find("retry_after_ms")->as_double(), 37.5);
}

TEST(ServiceRobust, ExitCodeTaxonomyIsStable) {
  EXPECT_EQ(exit_code_for(JobOutcome::kOptimal), 0);
  EXPECT_EQ(exit_code_for(JobOutcome::kFeasibleTimeout), 3);
  EXPECT_EQ(exit_code_for(JobOutcome::kCancelled), 4);
  EXPECT_EQ(exit_code_for(JobOutcome::kInfeasible), 5);
}

}  // namespace
}  // namespace parabb
