// Tests for the observability subsystem (src/parabb/obs): metrics
// registry correctness under concurrency, histogram bucket-edge
// semantics, flight-recorder ring behaviour, span logging, the shared
// merge kernel, and the contract that matters most — observation on vs
// off leaves every solver output byte-identical.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "parabb/obs/span.hpp"
#include "parabb/sched/schedule_io.hpp"
#include "parabb/support/json.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

// ---------------------------------------------------------------------
// accumulate(): the one merge kernel.

TEST(Accumulate, SumsElementwise) {
  std::vector<std::uint64_t> dst{1, 2, 3};
  const std::vector<std::uint64_t> src{10, 20, 30};
  accumulate(dst, src);
  EXPECT_EQ(dst, (std::vector<std::uint64_t>{11, 22, 33}));
}

// ---------------------------------------------------------------------
// Counter under 1 / 4 / 8 threads: the snapshot must equal the exact
// number of add() calls regardless of how writers sharded.

class CounterThreads : public ::testing::TestWithParam<int> {};

TEST_P(CounterThreads, ExactTotalAcrossThreads) {
  const int threads = GetParam();
  constexpr std::uint64_t kPerThread = 50'000;
  MetricsRegistry reg;
  Counter* c = reg.counter("parabb_test_ops_total");
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c->add(1);
    });
  }
  for (auto& th : pool) th.join();
  const MetricsSnapshot snap = reg.snapshot();
  const auto* sample = snap.find_counter("parabb_test_ops_total");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->value,
            kPerThread * static_cast<std::uint64_t>(threads));
}

INSTANTIATE_TEST_SUITE_P(Obs, CounterThreads, ::testing::Values(1, 4, 8));

TEST(Registry, SameNameSameHandle) {
  MetricsRegistry reg;
  Counter* a = reg.counter("dup");
  Counter* b = reg.counter("dup");
  EXPECT_EQ(a, b);
  a->add(2);
  b->add(3);
  EXPECT_EQ(a->value(), 5u);
}

TEST(Registry, KindConflictThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_ANY_THROW(reg.gauge("x"));
  EXPECT_ANY_THROW(reg.histogram("x", {1.0}));
}

TEST(Registry, CollectorRunsAtSnapshotAndStopsAfterRemoval) {
  MetricsRegistry reg;
  int runs = 0;
  const auto id = reg.add_collector([&runs](MetricsRegistry& r) {
    ++runs;
    r.gauge("live_depth")->set(runs);
  });
  const MetricsSnapshot s1 = reg.snapshot();
  ASSERT_NE(s1.find_gauge("live_depth"), nullptr);
  EXPECT_EQ(s1.find_gauge("live_depth")->value, 1);
  reg.snapshot();
  EXPECT_EQ(runs, 2);
  reg.remove_collector(id);
  reg.snapshot();
  EXPECT_EQ(runs, 2);
}

TEST(Gauge, SetAddAndMonotoneMax) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
  g.set_max(10);
  EXPECT_EQ(g.value(), 10);
  g.set_max(2);  // lower values never win
  EXPECT_EQ(g.value(), 10);
}

// ---------------------------------------------------------------------
// Histogram bucket edges: Prometheus `le` semantics — a sample equal to
// a bound lands in that bound's bucket, not the next one.

TEST(Histogram, BucketEdgesAreLessOrEqual) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1.0          -> bucket 0
  h.observe(1.0);   // == 1.0 boundary -> bucket 0
  h.observe(1.01);  // <= 2.0          -> bucket 1
  h.observe(2.0);   // == 2.0 boundary -> bucket 1
  h.observe(5.0);   // == 5.0 boundary -> bucket 2
  h.observe(5.5);   // above all       -> overflow
  const std::vector<std::uint64_t> want{2, 2, 1, 1};
  EXPECT_EQ(h.buckets(), want);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 2.0 + 5.0 + 5.5);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_ANY_THROW(Histogram({2.0, 1.0}));
  EXPECT_ANY_THROW(Histogram({1.0, 1.0}));
  EXPECT_ANY_THROW(Histogram(std::vector<double>{}));
}

TEST(Histogram, RegistryRejectsBoundMismatch) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  EXPECT_EQ(reg.histogram("h", {1.0, 2.0}),
            reg.histogram("h", {1.0, 2.0}));
  EXPECT_ANY_THROW(reg.histogram("h", {1.0, 3.0}));
}

// ---------------------------------------------------------------------
// Snapshot: JSON escaping, merge, Prometheus exposition.

TEST(Snapshot, MetricNamesEscapeThroughJson) {
  MetricsRegistry reg;
  const std::string weird = "with \"quotes\"\\back\nnewline";
  reg.counter(weird)->add(42);
  const std::string json = reg.snapshot().to_json().dump();
  // Round-trip: the exact name must come back as a key.
  const JsonValue doc = JsonValue::parse(json);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* v = counters->find(weird);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_int(), 42);
}

TEST(Snapshot, MergeSumsAndUnions) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("shared")->add(5);
  b.counter("shared")->add(7);
  a.counter("only_a")->add(1);
  b.counter("only_b")->add(2);
  a.gauge("g")->set(3);
  b.gauge("g")->set(4);
  a.histogram("h", {1.0})->observe(0.5);
  b.histogram("h", {1.0})->observe(2.0);
  MetricsSnapshot snap = a.snapshot();
  snap.merge(b.snapshot());
  EXPECT_EQ(snap.find_counter("shared")->value, 12u);
  EXPECT_EQ(snap.find_counter("only_a")->value, 1u);
  EXPECT_EQ(snap.find_counter("only_b")->value, 2u);
  EXPECT_EQ(snap.find_gauge("g")->value, 7);
  const auto* h = snap.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->buckets, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_DOUBLE_EQ(h->sum, 2.5);
  EXPECT_EQ(h->count(), 2u);
}

TEST(Snapshot, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("jobs_total")->add(3);
  reg.histogram("secs", {0.5, 1.0})->observe(0.25);
  const std::string prom = reg.snapshot().to_prometheus();
  EXPECT_NE(prom.find("# TYPE jobs_total counter\njobs_total 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("secs_bucket{le=\"0.5\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("secs_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("secs_count 1"), std::string::npos);
}

TEST(Snapshot, PrometheusSanitizesExoticNames) {
  MetricsRegistry reg;
  reg.counter("weird name-1")->add(1);
  const std::string prom = reg.snapshot().to_prometheus();
  EXPECT_NE(prom.find("weird_name_1 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------
// Flight recorder: ring wraparound and dump ordering.

TEST(FlightChannel, WraparoundKeepsLastCapacityEvents) {
  FlightChannel ch(8);
  for (int i = 0; i < 20; ++i) {
    ch.record(FlightEventKind::kExpand, FlightPruneRule::kNone, i, 100 + i);
  }
  EXPECT_EQ(ch.capacity(), 8u);
  EXPECT_EQ(ch.total(), 20u);
  EXPECT_EQ(ch.dropped(), 12u);
  const std::vector<FlightEvent> events = ch.chronological();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // oldest retained is seq 12
    EXPECT_EQ(events[i].value, 112 + static_cast<std::int64_t>(i));
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
}

TEST(FlightChannel, PartialFillIsChronologicalFromZero) {
  FlightChannel ch(8);
  ch.record(FlightEventKind::kIncumbent, FlightPruneRule::kNone, 3, 42);
  ch.record(FlightEventKind::kPrune, FlightPruneRule::kBound, 4, 50);
  EXPECT_EQ(ch.dropped(), 0u);
  const auto events = ch.chronological();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kIncumbent);
  EXPECT_EQ(events[1].rule, FlightPruneRule::kBound);
}

TEST(FlightRecorder, DumpJsonShapeAndOrdering) {
  FlightRecorder rec(8);
  FlightChannel& w0 = rec.channel(0);
  FlightChannel& w1 = rec.channel(1);
  for (int i = 0; i < 12; ++i) {
    w0.record(FlightEventKind::kExpand, FlightPruneRule::kNone, i, i);
  }
  w1.record(FlightEventKind::kPrune, FlightPruneRule::kTransposition, 2, 9);
  const JsonValue dump = rec.dump_json();
  EXPECT_EQ(dump.find("capacity")->as_int(), 8);
  const JsonValue* workers = dump.find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->items().size(), 2u);
  const JsonValue& first = workers->items()[0];
  EXPECT_EQ(first.find("worker")->as_int(), 0);
  EXPECT_EQ(first.find("total")->as_int(), 12);
  EXPECT_EQ(first.find("dropped")->as_int(), 4);
  const JsonValue* events = first.find("events");
  ASSERT_EQ(events->items().size(), 8u);
  std::int64_t prev = -1;
  for (const JsonValue& e : events->items()) {
    const std::int64_t seq = e.find("seq")->as_int();
    EXPECT_LT(prev, seq);
    prev = seq;
  }
  const JsonValue& second = workers->items()[1];
  const JsonValue& ev = second.find("events")->items()[0];
  EXPECT_EQ(ev.find("event")->as_string(), "prune");
  EXPECT_EQ(ev.find("rule")->as_string(), "transposition");
}

// A sequential run's flight stream accounts for the whole search: one
// kExpand per expansion, one kIncumbent per improvement (strictly
// decreasing, ending at the returned cost), and one child-level kPrune
// (level >= 0; active-set prunes carry level -1) per pruned child. U = inf,
// so the search itself must find every incumbent.
TEST(FlightRecorder, EngineEmitsCoherentEventStream) {
  const TaskGraph g = test::tight_instance(2);
  const SchedContext ctx = test::make_ctx(g, 2);
  FlightRecorder rec(std::size_t{1} << 20);
  Observation ob;
  ob.recorder = &rec;
  Params p;
  p.ub = UpperBoundInit::kInfinite;
  p.observe = &ob;
  const SearchResult r = solve_bnb(ctx, p);
  ASSERT_EQ(rec.channel_count(), 1u);
  const FlightChannel& ch = rec.channel(0);
  ASSERT_GT(ch.total(), 0u);
  ASSERT_EQ(ch.dropped(), 0u);

  std::uint64_t expands = 0, incumbents = 0, child_prunes = 0;
  std::int64_t last_incumbent = kTimeInf;
  for (const FlightEvent& e : ch.chronological()) {
    switch (e.kind) {
      case FlightEventKind::kExpand: ++expands; break;
      case FlightEventKind::kIncumbent:
        ++incumbents;
        EXPECT_EQ(e.level, ctx.task_count());
        EXPECT_LT(e.value, last_incumbent);
        last_incumbent = e.value;
        break;
      case FlightEventKind::kPrune:
        if (e.level >= 0) ++child_prunes;
        break;
      default: break;
    }
  }
  EXPECT_EQ(expands, r.stats.expanded);
  EXPECT_EQ(incumbents, r.stats.goal_updates);
  ASSERT_GT(incumbents, 0u);
  EXPECT_EQ(last_incumbent, r.best_cost);
  EXPECT_EQ(child_prunes, r.stats.pruned_children);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(5);
  EXPECT_EQ(rec.channel(0).capacity(), 8u);  // min 8
  FlightRecorder rec2(100);
  EXPECT_EQ(rec2.channel(0).capacity(), 128u);
}

// ---------------------------------------------------------------------
// Span log.

TEST(SpanLog, RecordsAndSerializes) {
  SpanLog log;
  {
    ScopedSpan span(&log, "search", "job-1");
  }
  log.record("certify", "", 1.0, 0.5);
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "search");
  EXPECT_EQ(spans[0].tag, "job-1");
  EXPECT_GE(spans[0].dur_s, 0.0);
  const std::string jsonl = log.to_jsonl();
  // One parseable object per line; tag omitted when empty.
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', pos);
    const JsonValue doc = JsonValue::parse(jsonl.substr(pos, nl - pos));
    EXPECT_NE(doc.find("span"), nullptr);
    pos = nl + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"tag\":\"job-1\""), std::string::npos);
}

TEST(SpanLog, NullLogAndEarlyFinishAreSafe) {
  ScopedSpan none(nullptr, "noop");
  none.finish();  // no-op twice
  SpanLog log;
  ScopedSpan s(&log, "phase");
  s.finish();
  s.finish();  // idempotent: still exactly one record
  EXPECT_EQ(log.spans().size(), 1u);
}

TEST(SpanLog, BoundedWithDropCount) {
  SpanLog log(2);
  log.record("a", "", 0, 1);
  log.record("b", "", 0, 1);
  log.record("c", "", 0, 1);
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
}

// ---------------------------------------------------------------------
// merge_search_stats: the single reduction used by the parallel engine.

TEST(MergeSearchStats, SumsCountersAndPeaksLeavesSeconds) {
  SearchStats a;
  a.expanded = 10;
  a.tt_hits = 3;
  a.peak_active = 7;
  a.seconds = 1.5;
  SearchStats b;
  b.expanded = 5;
  b.generated = 8;
  b.tt_hits = 2;
  b.peak_active = 4;
  b.peak_memory_bytes = 100;
  b.seconds = 9.0;
  merge_search_stats(a, b);
  EXPECT_EQ(a.expanded, 15u);
  EXPECT_EQ(a.generated, 8u);
  EXPECT_EQ(a.tt_hits, 5u);
  EXPECT_EQ(a.peak_active, 11u);
  EXPECT_EQ(a.peak_memory_bytes, 100u);
  EXPECT_DOUBLE_EQ(a.seconds, 1.5);  // untouched by design
}

TEST(SearchObs, FlushPublishesDeltas) {
  MetricsRegistry reg;
  Observation ob;
  ob.metrics = &reg;
  SearchObs so;
  so.bind(&ob, /*channel=*/0, /*with_flight=*/false);
  ASSERT_TRUE(so.metrics_bound());
  SearchStats s;
  s.expanded = 10;
  s.peak_active = 5;
  so.flush(s);
  s.expanded = 25;
  s.peak_active = 3;  // peaks publish via set_max: high-water stays 5
  so.flush(s);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("parabb_search_expanded_total")->value, 25u);
  EXPECT_EQ(snap.find_gauge("parabb_search_peak_active")->value, 5);
}

TEST(SearchObs, UnboundCallsAreNoOps) {
  SearchObs so;
  so.bind(nullptr, 0);
  EXPECT_FALSE(so.metrics_bound());
  SearchStats s;
  s.expanded = 99;
  so.flush(s);  // must not crash or publish anywhere
  so.expand(1, 2);
  so.prune(FlightPruneRule::kBound, 1, 2);
  so.incumbent(1, 2);
  so.budget_checkpoint(3);
  so.dispose(4);
}

// ---------------------------------------------------------------------
// The central contract: observation must never perturb the search.
// Solver outputs with observe on and off must be byte-identical.

void expect_stats_equal(const SearchStats& a, const SearchStats& b) {
  for (const SearchStatsField& f : kSearchStatsFields) {
    EXPECT_EQ(a.*(f.member), b.*(f.member)) << "field " << f.name;
  }
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
}

TEST(ObserveDifferential, SequentialEngineByteIdentical) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const TaskGraph g = test::tight_instance(seed);
    const SchedContext ctx = test::make_ctx(g, 3);
    Params p;
    p.transposition.enabled = true;

    const SearchResult off = solve_bnb(ctx, p);

    MetricsRegistry reg;
    FlightRecorder rec(64);
    Observation ob;
    ob.metrics = &reg;
    ob.recorder = &rec;
    Params p_on = p;
    p_on.observe = &ob;
    const SearchResult on = solve_bnb(ctx, p_on);

    EXPECT_EQ(on.found_solution, off.found_solution);
    EXPECT_EQ(on.best_cost, off.best_cost);
    EXPECT_EQ(on.proved, off.proved);
    EXPECT_EQ(on.certified_lower_bound, off.certified_lower_bound);
    EXPECT_EQ(on.reason, off.reason);
    expect_stats_equal(on.stats, off.stats);
    ASSERT_TRUE(on.found_solution);
    EXPECT_EQ(schedule_to_text(on.best, g), schedule_to_text(off.best, g));

    // And the observed run actually observed something.
    const MetricsSnapshot snap = reg.snapshot();
    const auto* expanded = snap.find_counter("parabb_search_expanded_total");
    ASSERT_NE(expanded, nullptr);
    EXPECT_EQ(expanded->value, off.stats.expanded);
    EXPECT_GT(rec.channel(0).total(), 0u);
  }
}

TEST(ObserveDifferential, ParallelEngineSingleThreadByteIdentical) {
  const TaskGraph g = test::tight_instance(11);
  const SchedContext ctx = test::make_ctx(g, 3);
  ParallelParams pp;
  pp.threads = 1;
  pp.base.transposition.enabled = true;

  const ParallelResult off = solve_bnb_parallel(ctx, pp);

  MetricsRegistry reg;
  FlightRecorder rec(128);
  Observation ob;
  ob.metrics = &reg;
  ob.recorder = &rec;
  ParallelParams pp_on = pp;
  pp_on.base.observe = &ob;
  const ParallelResult on = solve_bnb_parallel(ctx, pp_on);

  EXPECT_EQ(on.found_solution, off.found_solution);
  EXPECT_EQ(on.best_cost, off.best_cost);
  EXPECT_EQ(on.proved, off.proved);
  expect_stats_equal(on.stats, off.stats);
  ASSERT_TRUE(on.found_solution);
  EXPECT_EQ(schedule_to_text(on.best, g), schedule_to_text(off.best, g));

  // Registry totals match the engine's merged stats.
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("parabb_search_expanded_total")->value,
            off.stats.expanded);
  EXPECT_EQ(snap.find_counter("parabb_search_generated_total")->value,
            off.stats.generated);
}

TEST(ObserveDifferential, ParallelEngineMultiThreadSameOptimum) {
  const TaskGraph g = test::tight_instance(3);
  const SchedContext ctx = test::make_ctx(g, 3);
  ParallelParams pp;
  pp.threads = 4;

  const ParallelResult off = solve_bnb_parallel(ctx, pp);

  MetricsRegistry reg;
  Observation ob;
  ob.metrics = &reg;
  ParallelParams pp_on = pp;
  pp_on.base.observe = &ob;
  const ParallelResult on = solve_bnb_parallel(ctx, pp_on);

  // Thread interleaving is nondeterministic, but the proved optimum is
  // not — and observation must not change it.
  ASSERT_TRUE(off.proved);
  ASSERT_TRUE(on.proved);
  EXPECT_EQ(on.best_cost, off.best_cost);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find_counter("parabb_search_expanded_total")->value,
            on.stats.expanded);
}

// The registry hears each run's own share: a resumed run publishes its
// result minus the snapshot's base, which the interrupted run published,
// whether it ends exhausted or budget-stopped with vertices left over, in
// either engine. Both engines fold the table counters in at the finish,
// from the table, so the base's table counters are the snapshot's
// tt_counters.
TEST(ObserveResume, RegistryTotalsAreTheRunsShare) {
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  Params base;
  base.transposition.enabled = true;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("parabb_obs_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  CheckpointController ckpt(path, /*every_ms=*/0);
  ckpt.request_now();  // written at the first poll
  Params first = base;
  first.ckpt = &ckpt;
  first.rb.max_generated = 20000;
  solve_bnb(ctx, first);
  ASSERT_GE(ckpt.writes(), 1u);
  const SearchSnapshot snap = load_snapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(snap.tt_present);
  SearchStats prior = snap.stats;
  prior.tt_hits = snap.tt_counters.hits;
  prior.tt_misses = snap.tt_counters.misses;
  prior.tt_evictions = snap.tt_counters.evictions + snap.tt_counters.rejected;
  prior.tt_collisions = snap.tt_counters.collisions;

  for (const bool budget : {true, false}) {
    for (const int threads : {0, 1, 4}) {  // 0 = sequential
      const std::string name = std::string(budget ? "budget" : "exhausted") +
                               ", threads " + std::to_string(threads);
      MetricsRegistry reg;
      Observation ob;
      ob.metrics = &reg;
      Params p = base;
      p.resume = &snap;
      p.observe = &ob;
      if (budget) p.rb.max_generated = snap.stats.generated + 2000;
      SearchResult r;
      if (threads == 0) {
        r = solve_bnb(ctx, p);
      } else {
        ParallelParams pp;
        pp.base = p;
        pp.threads = threads;
        r = solve_bnb_parallel(ctx, pp);
      }
      EXPECT_EQ(r.reason, budget ? TerminationReason::kBudget
                                 : TerminationReason::kExhausted)
          << name;
      const MetricsSnapshot ms = reg.snapshot();
      for (const SearchStatsField& f : kSearchStatsFields) {
        const std::string metric =
            f.metric ? std::string(f.metric)
                     : std::string("parabb_search_") + f.name + "_total";
        const auto* c = ms.find_counter(metric);
        ASSERT_NE(c, nullptr) << metric;
        EXPECT_EQ(c->value, r.stats.*(f.member) - prior.*(f.member))
            << name << ": " << f.name;
      }
    }
  }
}

// Work-stealing observability surface (ISSUE 8): an observed multi-thread
// run publishes the steal counters and one deque-depth gauge per worker,
// and the counter totals equal the engine's merged stats.
TEST(ObserveParallel, WorkStealingPublishesStealMetricsAndDequeGauges) {
  const TaskGraph g = test::tight_instance(7);
  const SchedContext ctx = test::make_ctx(g, 3);
  MetricsRegistry reg;
  FlightRecorder rec(256);
  Observation ob;
  ob.metrics = &reg;
  ob.recorder = &rec;
  ParallelParams pp;
  pp.threads = 4;
  pp.base.observe = &ob;
  const ParallelResult r = solve_bnb_parallel(ctx, pp);
  ASSERT_TRUE(r.proved);

  const MetricsSnapshot snap = reg.snapshot();
  const auto* attempted = snap.find_counter("parabb_steals_attempted_total");
  const auto* succeeded = snap.find_counter("parabb_steals_succeeded_total");
  ASSERT_NE(attempted, nullptr);
  ASSERT_NE(succeeded, nullptr);
  EXPECT_EQ(attempted->value, r.stats.steals_attempted);
  EXPECT_EQ(succeeded->value, r.stats.steals_succeeded);
  EXPECT_LE(succeeded->value, attempted->value);
  // One depth gauge per worker, flushed to 0 on worker exit.
  for (int w = 0; w < 4; ++w) {
    const auto* gauge =
        snap.find_gauge("parabb_deque_depth_w" + std::to_string(w));
    ASSERT_NE(gauge, nullptr) << "worker " << w;
    EXPECT_EQ(gauge->value, 0);
  }
}

}  // namespace
}  // namespace parabb
