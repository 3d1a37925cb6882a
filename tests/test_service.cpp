#include "parabb/service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/sched/schedule_io.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/service/fingerprint.hpp"
#include "parabb/service/protocol.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/taskgraph/io.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "parabb/verify/verifier.hpp"
#include "parabb/workload/generator.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

TaskGraph demo_graph() {
  return from_tgf(
      "task urgent1 exec=10 deadline=12\n"
      "task urgent2 exec=10 deadline=14\n"
      "task root exec=5 deadline=30\n"
      "task chainA exec=15 deadline=25\n"
      "task chainB exec=15 deadline=40\n"
      "arc root chainA\n"
      "arc chainA chainB\n");
}

JobRequest demo_request(const std::string& id) {
  JobRequest req;
  req.id = id;
  req.graph = demo_graph();
  req.machine.procs = 2;
  req.machine.comm = CommModel::per_item(1);
  return req;
}

/// A search far too large to finish within any test: 26 tasks, weak
/// bound, no transposition table — only a budget or a cancel ends it.
JobRequest hard_request(const std::string& id) {
  GeneratorConfig cfg = paper_config();
  cfg.n_min = 26;
  cfg.n_max = 26;
  cfg.depth_min = 8;
  cfg.depth_max = 10;
  JobRequest req;
  req.id = id;
  req.graph = generate_graph(cfg, 7).graph;
  req.machine.procs = 4;
  req.machine.comm = CommModel::per_item(1);
  req.params.lb = LowerBound::kLB0;
  req.params.select = SelectRule::kFIFO;
  return req;
}

/// 50 distinct requests, each submitted four times over 200 jobs.
JobRequest stress_request(int i) {
  JobRequest req;
  req.id = "job-" + std::to_string(i);
  req.graph =
      generate_graph(paper_config(), static_cast<std::uint64_t>(i % 25))
          .graph;
  req.machine.procs = 2 + i % 2;
  req.machine.comm = CommModel::per_item(1);
  req.priority = i % 3;
  req.budget.max_generated = 10000;  // deterministic effort cap
  return req;
}

void run_stress(int workers) {
  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.cache_entries = 64;
  cfg.metrics = &registry;
  SolverService service(cfg);

  // Each job delivers its result to its callback, which keeps it here.
  constexpr int kJobs = 200;
  std::atomic<int> callbacks{0};
  std::vector<JobResult> results(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    service.submit(stress_request(i),
                   [&callbacks, &results, i](const JobResult& r) {
                     results[static_cast<std::size_t>(i)] = r;
                     ++callbacks;
                   });
  }
  service.wait_all();
  EXPECT_EQ(callbacks.load(), kJobs);  // zero lost responses

  // Every job is terminal, error-free, and validator-clean; identical
  // requests (i ≡ j mod 50) agree byte-for-byte whether or not they were
  // served from the cache — the sequential engine under a deterministic
  // effort cap always lands on the same incumbent.
  std::map<int, JobResult> canonical;
  for (int i = 0; i < kJobs; ++i) {
    const JobResult& r = results[static_cast<std::size_t>(i)];
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(r.id, "job-" + std::to_string(i));
    EXPECT_TRUE(r.outcome == JobOutcome::kOptimal ||
                r.outcome == JobOutcome::kFeasibleTimeout)
        << to_string(r.outcome);
    ASSERT_TRUE(r.found);
    const JobRequest req = stress_request(i);
    const ValidationReport rep =
        validate_schedule(r.schedule, req.graph, req.machine);
    EXPECT_TRUE(rep.structurally_sound) << rep.error;

    const auto [it, fresh] = canonical.emplace(i % 50, r);
    if (!fresh) {
      const JobResult& first = it->second;
      EXPECT_EQ(r.outcome, first.outcome);
      EXPECT_EQ(r.cost, first.cost);
      EXPECT_EQ(r.generated, first.generated);
      EXPECT_EQ(schedule_to_text(r.schedule, req.graph),
                schedule_to_text(first.schedule, req.graph));
    }
  }

  const auto count = [&registry](const char* name) {
    return registry.counter(name)->value();
  };
  const auto jobs = static_cast<std::uint64_t>(kJobs);
  EXPECT_EQ(count("parabb_service_jobs_admitted_total"), jobs);
  EXPECT_EQ(count("parabb_service_jobs_completed_total"), jobs);
  EXPECT_EQ(count("parabb_service_jobs_cancelled_total"), 0u);
  EXPECT_EQ(count("parabb_service_jobs_error_total"), 0u);
  EXPECT_EQ(count("parabb_service_cache_hits_total") +
                count("parabb_service_cache_misses_total"),
            jobs);
}

TEST(ServiceStress, SingleWorker) { run_stress(1); }
TEST(ServiceStress, FourWorkers) { run_stress(4); }
TEST(ServiceStress, EightWorkers) { run_stress(8); }

TEST(Service, SolvesOptimally) {
  SolverService service({.workers = 2});
  const JobResult r = service.wait(service.submit(demo_request("r1")));
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.proved);
  EXPECT_EQ(r.cost, 1);
  EXPECT_FALSE(r.cached);
}

TEST(Service, ParallelEngineJobs) {
  JobRequest req = demo_request("par");
  req.threads = 2;
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);
  EXPECT_EQ(r.cost, 1);
}

// A threaded job runs on the parallel engine, which dives LIFO only: a
// request for LLB gets an error response, not a silently different search.
TEST(Service, ParallelJobWithAnotherSelectionRuleIsAnError) {
  const JobRequest req = request_from_json(
      "{\"id\":\"par-llb\",\"graph\":\"task a exec=1\\n\","
      "\"threads\":2,\"select\":\"llb\"}");
  MetricsRegistry registry;
  SolverService service({.workers = 1, .metrics = &registry});
  const JobResult r = service.wait(service.submit(JobRequest(req)));
  EXPECT_NE(r.error.find("LIFO"), std::string::npos) << r.error;
  EXPECT_NE(response_to_json(r, req.graph).find("\"error\":"),
            std::string::npos);
  EXPECT_EQ(registry.counter("parabb_service_jobs_error_total")->value(), 1u);
}

// A refused instance's precondition message reaches the client as it is:
// it names the limit and the file and line that raised it, but neither the
// C++ expression (no '[') nor the build's directories (no '/').
TEST(Service, OversizedGraphErrorNamesTheLimitWithoutPathsOrExpressions) {
  std::string tgf;
  for (int i = 0; i <= kMaxTasks; ++i) {
    tgf += "task t" + std::to_string(i) + " exec=1\n";
  }
  JobRequest req = demo_request("wide");
  req.graph = from_tgf(tgf);
  ASSERT_EQ(req.graph.task_count(), 33);
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(JobRequest(req)));
  EXPECT_NE(r.error.find("kMaxTasks"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("context.cpp:"), std::string::npos) << r.error;
  EXPECT_EQ(r.error.find('/'), std::string::npos) << r.error;
  EXPECT_EQ(r.error.find('['), std::string::npos) << r.error;
  const std::string response = response_to_json(r, req.graph);
  EXPECT_NE(response.find("kMaxTasks"), std::string::npos) << response;
  EXPECT_EQ(response.find('/'), std::string::npos) << response;
  EXPECT_EQ(response.find('['), std::string::npos) << response;
}

TEST(Service, IdenticalResubmissionHitsCacheByteIdentically) {
  MetricsRegistry registry;
  SolverService service({.workers = 1, .metrics = &registry});
  const JobResult first = service.wait(service.submit(demo_request("a")));
  const JobResult second = service.wait(service.submit(demo_request("b")));
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.id, "b");  // re-tagged, not the cached job's id
  EXPECT_EQ(second.seconds, 0.0);
  EXPECT_EQ(second.cost, first.cost);
  EXPECT_EQ(second.generated, first.generated);
  const TaskGraph g = demo_graph();
  EXPECT_EQ(schedule_to_text(second.schedule, g),
            schedule_to_text(first.schedule, g));
  EXPECT_EQ(registry.counter("parabb_service_cache_hits_total")->value(), 1u);
  EXPECT_EQ(registry.counter("parabb_service_cache_misses_total")->value(),
            1u);
}

// D has its own cache key, so a D request is cached like any other, and
// never answers a request without D.
TEST(Service, DominanceRequestIsCachedUnderItsOwnKey) {
  SolverService service({.workers = 1});
  JobRequest d = demo_request("d1");
  d.params.dominance = true;
  const JobResult first = service.wait(service.submit(JobRequest(d)));
  d.id = "d2";
  const JobResult second = service.wait(service.submit(JobRequest(d)));
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.cost, first.cost);
  EXPECT_FALSE(service.wait(service.submit(demo_request("plain"))).cached);
}

// The service owns every run-time attachment: hook pointers a caller
// leaves in a request's Params never reach the engine.
TEST(Service, CallerOwnedAttachmentsAreIgnored) {
  SolverService service({.workers = 1, .cache_entries = 0});
  CertificateBuilder builder;
  JobRequest certify = demo_request("certify");
  certify.params.certify = &builder;  // while certify.certify stays false
  const JobResult c = service.wait(service.submit(std::move(certify)));
  EXPECT_EQ(c.outcome, JobOutcome::kOptimal);
  EXPECT_TRUE(c.certificate.empty());
  EXPECT_EQ(builder.cut_count(), 0u);

  CheckpointController ckpt("no-such-dir/caller.snap", 0);
  ckpt.request_now();
  const SearchSnapshot stale;  // matches no instance
  JobRequest resume = demo_request("resume");
  resume.params.ckpt = &ckpt;
  resume.params.resume = &stale;
  const JobResult r = service.wait(service.submit(std::move(resume)));
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);
  EXPECT_EQ(ckpt.writes() + ckpt.failures(), 0u);
}

TEST(Service, DifferentBudgetIsADifferentCacheKey) {
  SolverService service({.workers = 1});
  (void)service.wait(service.submit(demo_request("a")));
  JobRequest budgeted = demo_request("b");
  budgeted.budget.max_generated = 5;
  const JobResult r = service.wait(service.submit(std::move(budgeted)));
  EXPECT_FALSE(r.cached);
  EXPECT_EQ(r.outcome, JobOutcome::kFeasibleTimeout);
}

TEST(Service, GeneratedBudgetReturnsValidatorCleanIncumbent) {
  JobRequest req = demo_request("b");
  req.budget.max_generated = 5;
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kFeasibleTimeout);
  EXPECT_EQ(r.reason, TerminationReason::kBudget);
  ASSERT_TRUE(r.found);  // the EDF seed incumbent at minimum
  EXPECT_FALSE(r.proved);
  const ValidationReport rep =
      validate_schedule(r.schedule, demo_graph(), demo_request("b").machine);
  EXPECT_TRUE(rep.structurally_sound) << rep.error;
}

TEST(Service, MemoryBudgetTrips) {
  JobRequest req = hard_request("m");
  req.budget.max_active_bytes = 1;  // sequential engine: pool cap
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kFeasibleTimeout);
  ASSERT_TRUE(r.found);
}

TEST(Service, MemoryBudgetTripsOnTheParallelEngine) {
  JobRequest req = hard_request("m2");
  req.params.select = SelectRule::kLIFO;  // the parallel engine's only rule
  req.threads = 2;
  req.budget.max_active_bytes = 1;  // parallel engine: summed slab bytes
  req.budget.wall_ms = 20000;       // safety net only
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kFeasibleTimeout);
  EXPECT_EQ(r.reason, TerminationReason::kBudget);
  ASSERT_TRUE(r.found);
}

// The ladder fires all four rungs under a 64 KiB budget and its
// depth-first dive runs out of vertices at a schedule above the optimum:
// the search is exhausted but compromised, so it is not optimal.
TEST(Service, LadderCompromisedSearchIsNotOptimal) {
  JobRequest req;
  req.id = "ladder";
  req.graph = test::crash_graph();
  req.machine.procs = 2;
  req.params.select = SelectRule::kLLB;
  req.params.degrade = true;
  req.budget.max_generated = 20000;
  req.budget.max_active_bytes = 65536;
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.reason, TerminationReason::kExhausted);
  EXPECT_EQ(r.outcome, JobOutcome::kFeasibleTimeout);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.proved);
}

TEST(Service, WallClockBudgetTrips) {
  JobRequest req = hard_request("w");
  req.budget.wall_ms = 50;
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kFeasibleTimeout);
  EXPECT_EQ(r.reason, TerminationReason::kTimeLimit);
  ASSERT_TRUE(r.found);
  const JobRequest ref = hard_request("w");
  EXPECT_TRUE(validate_schedule(r.schedule, ref.graph, ref.machine)
                  .structurally_sound);
}

TEST(Service, CancelRunningJobReturnsIncumbent) {
  SolverService service({.workers = 1});
  const JobTicket ticket = service.submit(hard_request("c"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(service.cancel(ticket));
  const JobResult r = service.wait(ticket);
  EXPECT_EQ(r.outcome, JobOutcome::kCancelled);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.proved);
  const JobRequest ref = hard_request("c");
  EXPECT_TRUE(validate_schedule(r.schedule, ref.graph, ref.machine)
                  .structurally_sound);
  // Cancelled results are timing-dependent; they must not be cached.
  EXPECT_EQ(service.cache_counters().insertions, 0u);
}

TEST(Service, CancelPendingJobNeverRuns) {
  SolverService service({.workers = 1});
  const JobTicket blocker = service.submit(hard_request("blocker"));
  const JobTicket victim = service.submit(demo_request("victim"));
  EXPECT_TRUE(service.cancel(victim));
  const JobResult r = service.wait(victim);
  EXPECT_EQ(r.outcome, JobOutcome::kCancelled);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.generated, 0u);
  EXPECT_TRUE(service.cancel(blocker));
  service.wait_all();
}

TEST(Service, PriorityOrdersDispatchFifoWithinLevel) {
  SolverService service({.workers = 1});
  std::mutex mu;
  std::vector<std::string> order;
  const auto record = [&mu, &order](const JobResult& r) {
    const std::lock_guard lock(mu);
    order.push_back(r.id);
  };
  // The blocker occupies the only worker while a/b/c queue up behind it.
  const JobTicket blocker = service.submit(hard_request("blocker"));
  JobRequest a = demo_request("a");  // priority 0, submitted first
  JobRequest b = demo_request("b");
  b.priority = 5;
  JobRequest c = demo_request("c");
  c.priority = 5;
  service.submit(std::move(a), record);
  service.submit(std::move(b), record);
  service.submit(std::move(c), record);
  service.cancel(blocker);
  service.wait_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "b");  // highest priority first
  EXPECT_EQ(order[1], "c");  // FIFO within priority 5
  EXPECT_EQ(order[2], "a");
}

// Each result is delivered once, then the service forgets the job: a
// long-running service does not grow with the jobs it has served.
TEST(Service, DeliveredTicketsAreForgotten) {
  SolverService service({.workers = 2});
  constexpr int kJobs = 2000;
  std::atomic<int> callbacks{0};
  std::vector<JobTicket> tickets;
  for (int i = 0; i < kJobs; ++i) {
    tickets.push_back(
        service.submit(demo_request("j" + std::to_string(i)),
                       [&callbacks](const JobResult&) { ++callbacks; }));
  }
  service.wait_all();
  EXPECT_EQ(callbacks.load(), kJobs);
  int known = 0;
  for (const JobTicket t : tickets) {
    try {
      (void)service.wait(t);
      ++known;
    } catch (const precondition_error&) {
    }
    known += service.cancel(t) ? 1 : 0;
  }
  EXPECT_EQ(known, 0);

  // Without a callback, wait() delivers the result, once.
  const JobTicket t = service.submit(demo_request("w"));
  EXPECT_EQ(service.wait(t).outcome, JobOutcome::kOptimal);
  EXPECT_THROW((void)service.wait(t), precondition_error);
  EXPECT_FALSE(service.cancel(t));
}

// A job with a callback delivers there only; wait() refuses it.
TEST(Service, WaitRefusesAJobWithACallback) {
  SolverService service({.workers = 1});
  const JobTicket blocker = service.submit(hard_request("blocker"));
  const JobTicket queued =
      service.submit(demo_request("queued"), [](const JobResult&) {});
  EXPECT_THROW((void)service.wait(queued), precondition_error);
  EXPECT_TRUE(service.cancel(blocker));
  service.wait_all();
}

TEST(Service, CancelSemantics) {
  SolverService service({.workers = 1});
  EXPECT_FALSE(service.cancel(JobTicket{999}));  // unknown
  const JobTicket done = service.submit(demo_request("d"));
  (void)service.wait(done);
  EXPECT_FALSE(service.cancel(done));  // already terminal
  EXPECT_THROW((void)service.wait(JobTicket{999}), precondition_error);
}

TEST(Service, InfeasibleRequestReportsInfeasible) {
  JobRequest req = demo_request("inf");
  req.params.ub = UpperBoundInit::kExplicit;
  req.params.explicit_ub = -1000;  // no schedule beats this bound
  MetricsRegistry registry;
  SolverService service({.workers = 1, .metrics = &registry});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kInfeasible);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(registry.counter("parabb_service_jobs_infeasible_total")->value(),
            1u);
}

TEST(Service, DestructorDrainsOutstandingJobs) {
  std::atomic<int> callbacks{0};
  {
    SolverService service({.workers = 2});
    for (int i = 0; i < 20; ++i) {
      service.submit(demo_request("d" + std::to_string(i)),
                     [&callbacks](const JobResult&) { ++callbacks; });
    }
    // No wait_all: the destructor must finish every admitted job.
  }
  EXPECT_EQ(callbacks.load(), 20);
}

TEST(Fingerprint, CoversEverySolverRelevantField) {
  const JobRequest base = demo_request("x");
  // The id must NOT affect the fingerprint (responses are re-tagged).
  EXPECT_EQ(request_fingerprint(base), request_fingerprint(demo_request("y")));

  const auto differs = [&base](JobRequest changed) {
    return request_fingerprint(changed) != request_fingerprint(base) &&
           request_key(changed) != request_key(base);
  };
  JobRequest procs = base;
  procs.machine.procs = 3;
  EXPECT_TRUE(differs(procs));
  JobRequest select = base;
  select.params.select = SelectRule::kLLB;
  EXPECT_TRUE(differs(select));
  JobRequest br = base;
  br.params.br = 0.1;
  EXPECT_TRUE(differs(br));
  JobRequest threads = base;
  threads.threads = 4;
  EXPECT_TRUE(differs(threads));
  JobRequest budget = base;
  budget.budget.max_generated = 100;
  EXPECT_TRUE(differs(budget));
  JobRequest dominance = base;
  dominance.params.dominance = true;
  EXPECT_TRUE(differs(dominance));
  JobRequest graph = base;
  graph.graph = generate_graph(paper_config(), 3).graph;
  EXPECT_TRUE(differs(graph));
  JobRequest topo = base;
  topo.machine.procs = 4;
  topo.machine.topology = NetworkTopology::ring(4);
  JobRequest topo2 = topo;
  topo2.machine.topology = NetworkTopology::line(4);
  EXPECT_NE(request_key(topo), request_key(topo2));
}

TEST(ResultCache, LruEvictionAndRefresh) {
  ResultCache cache(2);
  JobResult r;
  r.found = true;
  r.cost = 1;
  cache.insert(1, "k1", r);
  cache.insert(2, "k2", r);
  EXPECT_TRUE(cache.lookup(1, "k1").has_value());  // refreshes k1
  cache.insert(3, "k3", r);                        // evicts k2 (LRU)
  EXPECT_FALSE(cache.lookup(2, "k2").has_value());
  EXPECT_TRUE(cache.lookup(1, "k1").has_value());
  EXPECT_TRUE(cache.lookup(3, "k3").has_value());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, FingerprintCollisionIsAMissNeverAWrongAnswer) {
  ResultCache cache(4);
  JobResult r;
  r.cost = 7;
  cache.insert(42, "the real key", r);
  const auto hit = cache.lookup(42, "an impostor key");
  EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(cache.counters().collisions, 1u);
  EXPECT_EQ(cache.lookup(42, "the real key")->cost, 7);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  JobResult r;
  cache.insert(1, "k", r);
  EXPECT_FALSE(cache.lookup(1, "k").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Protocol, ParsesRequestWithDefaults) {
  const JobRequest req = request_from_json(
      "{\"id\":\"r1\",\"graph\":\"task a exec=3\\ntask b exec=2\\n"
      "arc a b\\n\"}");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.graph.task_count(), 2);
  EXPECT_EQ(req.machine.procs, 2);
  EXPECT_EQ(req.params.select, SelectRule::kLIFO);
  EXPECT_EQ(req.threads, 1);
  EXPECT_TRUE(req.budget.unlimited());
}

TEST(Protocol, ParsesFullRequest) {
  const JobRequest req = request_from_json(
      "{\"id\":\"r2\",\"graph\":\"task a exec=3\\n\",\"procs\":4,"
      "\"comm\":2,\"topology\":\"ring\",\"select\":\"llb\","
      "\"branch\":\"df\",\"lb\":\"lb2\",\"br\":0.25,\"ub\":\"inf\","
      "\"tt\":true,\"threads\":3,\"priority\":9,"
      "\"budget\":{\"wall_ms\":250,\"max_generated\":1000,"
      "\"max_active_bytes\":65536}}");
  EXPECT_EQ(req.machine.procs, 4);
  EXPECT_EQ(req.params.select, SelectRule::kLLB);
  EXPECT_EQ(req.params.branch, BranchRule::kDF);
  EXPECT_EQ(req.params.lb, LowerBound::kLB2);
  EXPECT_DOUBLE_EQ(req.params.br, 0.25);
  EXPECT_EQ(req.params.ub, UpperBoundInit::kInfinite);
  EXPECT_TRUE(req.params.transposition.enabled);
  EXPECT_EQ(req.threads, 3);
  EXPECT_EQ(req.priority, 9);
  EXPECT_DOUBLE_EQ(req.budget.wall_ms, 250);
  EXPECT_EQ(req.budget.max_generated, 1000u);
  EXPECT_EQ(req.budget.max_active_bytes, 65536u);
}

TEST(Protocol, RejectsBadRequests) {
  EXPECT_THROW(request_from_json("not json"), std::runtime_error);
  EXPECT_THROW(request_from_json("{\"graph\":\"task a exec=1\\n\"}"),
               std::runtime_error);  // missing id
  EXPECT_THROW(request_from_json("{\"id\":\"x\"}"),
               std::runtime_error);  // missing graph
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\",\"procs\":99}"),
               std::runtime_error);  // procs out of range
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\",\"select\":\"best\"}"),
               std::runtime_error);  // unknown spelling
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"bogus\\n\"}"),
               std::runtime_error);  // TGF error surfaces
}

TEST(Protocol, RejectsRetiredSchedulerFields) {
  // The parallel engine has one scheduler and no steal cap; requests that
  // still name them fail like any other unknown field.
  for (const char* field :
       {"\"scheduler\":\"ws\"", "\"scheduler\":\"central\"",
        "\"steal_batch\":0", "\"steal_batch\":2"}) {
    EXPECT_THROW(request_from_json(
                     std::string("{\"id\":\"s\",\"graph\":\"task a "
                                 "exec=1\\n\",\"threads\":4,") +
                     field + "}"),
                 std::runtime_error)
        << field;
  }
}

TEST(Fingerprint, EngineWidthIsACacheKeyDimension) {
  const std::string base =
      "{\"id\":\"f\",\"graph\":\"task a exec=1\\ntask b exec=2\\n\"";
  const JobRequest seq = request_from_json(base + "}");
  const JobRequest seq1 = request_from_json(base + ",\"threads\":1}");
  const JobRequest par4 = request_from_json(base + ",\"threads\":4}");
  const JobRequest par8 = request_from_json(base + ",\"threads\":8}");
  EXPECT_EQ(request_fingerprint(seq), request_fingerprint(seq1));
  // A parallel result must never satisfy a sequential request (or one of
  // another width): the engines may return different optimal schedules.
  EXPECT_NE(request_fingerprint(seq), request_fingerprint(par4));
  EXPECT_NE(request_fingerprint(par4), request_fingerprint(par8));
}

TEST(Protocol, RejectsTruncatedJson) {
  // A line cut mid-flight (dropped connection, partial write) must fail
  // as a parse error, not be half-interpreted.
  const std::string full =
      "{\"id\":\"r1\",\"graph\":\"task a exec=3\\n\",\"procs\":2}";
  for (const std::size_t keep :
       {std::size_t{5}, std::size_t{12}, std::size_t{25}, full.size() - 1}) {
    EXPECT_THROW(request_from_json(full.substr(0, keep)),
                 std::runtime_error)
        << "prefix of " << keep << " bytes parsed";
  }
}

TEST(Protocol, RejectsUnknownFields) {
  // Typos must not be silently ignored: {"thread":4} is an error, not a
  // surprising sequential solve.
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\",\"thread\":4}"),
               std::runtime_error);
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\",\"bogus\":true}"),
               std::runtime_error);
  // ... including inside the budget object.
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\",\"budget\":{\"wallms\":9}}"),
               std::runtime_error);
  try {
    request_from_json(
        "{\"id\":\"x\",\"graph\":\"task a exec=1\\n\",\"thread\":4}");
    FAIL() << "unknown field accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("thread"), std::string::npos)
        << e.what();  // the message names the offending field
  }
}

TEST(Protocol, RejectsOversizedLines) {
  // Build a syntactically plausible line past the cap; the rejection must
  // happen before JSON parsing even starts.
  std::string line = "{\"id\":\"big\",\"graph\":\"";
  line.append(kMaxRequestLineBytes, 'x');
  line += "\"}";
  try {
    request_from_json(line);
    FAIL() << "oversized line accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
}

TEST(Protocol, CertifyFieldParsesAndDefaultsOff) {
  EXPECT_FALSE(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\"}")
                   .certify);
  EXPECT_TRUE(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                "exec=1\\n\",\"certify\":true}")
                  .certify);
  EXPECT_THROW(request_from_json("{\"id\":\"x\",\"graph\":\"task a "
                                 "exec=1\\n\",\"certify\":1}"),
               std::runtime_error);  // must be a bool
}

TEST(Service, CertifiedJobCarriesAVerifiableCertificate) {
  JobRequest req = demo_request("cert");
  req.certify = true;
  SolverService service({.workers = 1});
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);
  ASSERT_FALSE(r.certificate.empty());

  // The response-embedded certificate checks out against the instance.
  const TaskGraph g = demo_graph();
  const Certificate cert = certificate_from_text(r.certificate, g);
  const VerifyReport report =
      verify_certificate(g, demo_request("cert").machine, cert);
  EXPECT_TRUE(report.certified) << report.summary();

  // And it rides the JSONL response as a "certificate" member.
  const std::string line = response_to_json(r, g);
  EXPECT_NE(line.find("\"certificate\":"), std::string::npos);

  // Plain jobs carry none.
  const JobResult plain = service.wait(service.submit(demo_request("p")));
  EXPECT_TRUE(plain.certificate.empty());
  EXPECT_EQ(response_to_json(plain, g).find("\"certificate\""),
            std::string::npos);
}

TEST(Service, CertifyFlagIsACacheKeyDimension) {
  // A plain cached result must never satisfy a certify request: the
  // certificate cannot be conjured after the fact.
  SolverService service({.workers = 1});
  (void)service.wait(service.submit(demo_request("plain")));
  JobRequest req = demo_request("certified");
  req.certify = true;
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_FALSE(r.cached);
  EXPECT_FALSE(r.certificate.empty());

  // Repeat certify requests *do* hit the cache, certificate included.
  JobRequest again = demo_request("again");
  again.certify = true;
  const JobResult hit = service.wait(service.submit(std::move(again)));
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.certificate, r.certificate);
}

TEST(Protocol, ResponseFieldOrderIsFixed) {
  JobResult r;
  r.id = "r1";
  r.outcome = JobOutcome::kInfeasible;
  r.found = false;
  r.generated = 12;
  r.seconds = 0.0;
  const std::string line = response_to_json(r, demo_graph());
  EXPECT_EQ(line,
            "{\"id\":\"r1\",\"outcome\":\"infeasible\",\"cached\":false,"
            "\"generated\":12,\"seconds\":0}");
}

TEST(Protocol, ErrorResponses) {
  EXPECT_EQ(error_response_json("r9", "boom"),
            "{\"id\":\"r9\",\"error\":\"boom\"}");
  EXPECT_EQ(error_response_json("", "bad line"),
            "{\"id\":\"?\",\"error\":\"bad line\"}");
  JobResult r;
  r.id = "r3";
  r.error = "engine exploded";
  EXPECT_EQ(response_to_json(r, demo_graph()),
            "{\"id\":\"r3\",\"error\":\"engine exploded\"}");
}

TEST(Protocol, MachineFromSpecTopologies) {
  EXPECT_EQ(machine_from_spec(3, 1, "bus").procs, 3);
  EXPECT_TRUE(machine_from_spec(4, 1, "ring").topology.has_value());
  EXPECT_EQ(machine_from_spec(2, 1, "mesh2x2").procs, 4);
  EXPECT_THROW(machine_from_spec(2, 1, "torus"), std::runtime_error);
  EXPECT_THROW(machine_from_spec(2, 1, "meshAxB"), std::runtime_error);
}

TEST(Outcome, TaxonomyFolding) {
  EXPECT_EQ(outcome_of(TerminationReason::kExhausted, true, false),
            JobOutcome::kOptimal);
  EXPECT_EQ(outcome_of(TerminationReason::kExhausted, false, false),
            JobOutcome::kInfeasible);
  EXPECT_EQ(outcome_of(TerminationReason::kTimeLimit, true, false),
            JobOutcome::kFeasibleTimeout);
  EXPECT_EQ(outcome_of(TerminationReason::kBudget, true, false),
            JobOutcome::kFeasibleTimeout);
  EXPECT_EQ(outcome_of(TerminationReason::kCancelled, true, false),
            JobOutcome::kCancelled);
  EXPECT_EQ(outcome_of(TerminationReason::kCancelled, false, false),
            JobOutcome::kCancelled);
  // An exhausted search that gave part of its tree up to a resource bound
  // has no claim to optimality.
  EXPECT_EQ(outcome_of(TerminationReason::kExhausted, true, true),
            JobOutcome::kFeasibleTimeout);
  EXPECT_EQ(outcome_of(TerminationReason::kCancelled, true, true),
            JobOutcome::kCancelled);
}

}  // namespace
}  // namespace parabb
