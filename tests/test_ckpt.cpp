// Crash-safe checkpoint/resume suite (docs/robustness.md, "Recovery").
//
// The load-bearing contracts:
//  * a resumed run reaches the same optimal cost — and a CERTIFIED
//    certificate — as the uninterrupted run, for the sequential and the
//    parallel engine;
//  * a truncated or bit-flipped snapshot is rejected with SnapshotError
//    (CRC / framing), never a crash and never a silently wrong state;
//  * checkpointing off (Params::ckpt == nullptr) and armed-but-never-due
//    are byte-identical to the baseline search;
//  * the service's job journal replays to the correct pending/completed
//    split, and a journal-armed service resumes a job from its per-job
//    snapshot and removes it once the job is terminal.
//
// tools/crash_sweep.sh exercises the same properties through real
// SIGKILLs of the CLI; this suite covers the in-process layer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/journal.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/obs/metrics.hpp"
#include "parabb/service/service.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/verifier.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

/// Unique scratch path under the system temp dir, removed on destruction.
struct ScratchDir {
  std::filesystem::path dir;
  explicit ScratchDir(const std::string& tag) {
    dir = std::filesystem::temp_directory_path() /
          ("parabb_ckpt_test_" + tag + "_" +
           std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  std::string file(const std::string& name) const {
    return (dir / name).string();
  }
};

/// Runs a budget-stopped partial search with `params` that writes one
/// snapshot at the first poll point, then returns the loaded snapshot.
SearchSnapshot partial_snapshot(const SchedContext& ctx,
                                const std::string& path,
                                Params params = {}) {
  CheckpointController ckpt(path, /*every_ms=*/0);
  ckpt.request_now();
  params.ckpt = &ckpt;
  params.rb.max_generated = 20000;
  const SearchResult r = solve_bnb(ctx, params);
  (void)r;
  EXPECT_GE(ckpt.writes(), 1u);
  return load_snapshot(path);
}

// ---------------------------------------------------------------------------
// Snapshot format: round trip, corruption rejection
// ---------------------------------------------------------------------------

TEST(Snapshot, RoundTripPreservesEveryField) {
  const ScratchDir tmp("roundtrip");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  const SearchSnapshot snap =
      partial_snapshot(ctx, tmp.file("seq.ckpt"));

  EXPECT_EQ(snap.engine, SnapshotEngine::kSequential);
  EXPECT_FALSE(snap.frontier.empty());
  EXPECT_GT(snap.stats.generated, 0u);

  // Every stored frontier state must replay through the scheduling
  // operation (states are paths, not memory dumps).
  for (const SnapshotVertex& v : snap.frontier) {
    EXPECT_NO_THROW(replay_path(ctx, v.path));
  }

  // decode(encode(s)) == s, byte-for-byte on re-encode.
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const SearchSnapshot back = decode_snapshot(bytes);
  EXPECT_EQ(encode_snapshot(back), bytes);
  EXPECT_EQ(back.instance, snap.instance);
  EXPECT_EQ(back.found, snap.found);
  EXPECT_EQ(back.incumbent_cost, snap.incumbent_cost);
  EXPECT_EQ(back.frontier.size(), snap.frontier.size());
  EXPECT_EQ(back.stats.generated, snap.stats.generated);

  // Every counter of the field table travels, each to its own field.
  SearchSnapshot numbered = snap;
  std::uint64_t next = 1;
  for (const SearchStatsField& f : kSearchStatsFields) {
    numbered.stats.*f.member = next++;
  }
  const SearchSnapshot numbered_back =
      decode_snapshot(encode_snapshot(numbered));
  for (const SearchStatsField& f : kSearchStatsFields) {
    EXPECT_EQ(numbered_back.stats.*f.member, numbered.stats.*f.member)
        << f.name;
  }
}

TEST(Snapshot, CorruptionIsRejectedNeverACrash) {
  const ScratchDir tmp("corrupt");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  const std::string path = tmp.file("seq.ckpt");
  partial_snapshot(ctx, path);

  std::ifstream in(path, std::ios::binary);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);

  // Truncation at every framing boundary and mid-payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{7}, std::size_t{15},
        bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(decode_snapshot(cut), SnapshotError) << "keep=" << keep;
  }
  // A single flipped payload bit must trip the CRC.
  for (const std::size_t at : {std::size_t{21}, bytes.size() / 2,
                               bytes.size() - 2}) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[at] ^= 0x40u;
    EXPECT_THROW(decode_snapshot(flipped), SnapshotError) << "at=" << at;
  }
  // Bad magic.
  std::vector<std::uint8_t> bad = bytes;
  bad[0] = 'X';
  EXPECT_THROW(decode_snapshot(bad), SnapshotError);
  // Missing file.
  EXPECT_THROW(load_snapshot(tmp.file("nonexistent.ckpt")), SnapshotError);
}

TEST(Snapshot, ResumeRefusesForeignInstance) {
  const ScratchDir tmp("foreign");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  const SearchSnapshot snap =
      partial_snapshot(ctx, tmp.file("seq.ckpt"));

  // Same instance, different 9-tuple member: not a match.
  Params other;
  other.lb = LowerBound::kLB0;
  EXPECT_FALSE(snapshot_matches(snap, ctx, other));
  EXPECT_TRUE(snapshot_matches(snap, ctx, Params{}));

  // The engine enforces the same check as a precondition.
  Params resume_params;
  resume_params.lb = LowerBound::kLB0;
  resume_params.resume = &snap;
  EXPECT_THROW(solve_bnb(ctx, resume_params), precondition_error);
}

// ---------------------------------------------------------------------------
// Resume reaches the uninterrupted result (all engines)
// ---------------------------------------------------------------------------

TEST(Resume, InterruptedRunsReachUninterruptedOptimum) {
  const ScratchDir tmp("grid");
  const TaskGraph g = test::crash_graph();
  const Machine m = make_shared_bus_machine(3);
  const SchedContext ctx(g, m);

  Params base;
  const SearchResult clean = solve_bnb(ctx, base);
  ASSERT_TRUE(clean.proved);

  struct EngineCase {
    const char* name;
    int threads;  // 0 = sequential
  };
  const EngineCase cases[] = {
      {"sequential", 0},
      {"ws4", 4},
  };
  for (const EngineCase& c : cases) {
    const std::string path = tmp.file(std::string(c.name) + ".ckpt");
    // Partial run: periodic snapshots, stopped by a short time limit.
    // Certification is armed here too, so the resumed builder inherits
    // the pre-crash cut log (certificate continuity).
    CheckpointController ckpt(path, /*every_ms=*/75);
    CertificateBuilder partial_builder;
    Params partial = base;
    partial.ckpt = &ckpt;
    partial.certify = &partial_builder;
    partial.rb.time_limit_s = 0.4;
    if (c.threads == 0) {
      solve_bnb(ctx, partial);
    } else {
      ParallelParams pp;
      pp.base = partial;
      pp.threads = c.threads;
      solve_bnb_parallel(ctx, pp);
    }
    ASSERT_GE(ckpt.writes(), 1u) << c.name;

    // Resume to completion, with a certificate.
    const SearchSnapshot snap = load_snapshot(path);
    ASSERT_TRUE(snapshot_matches(snap, ctx, base)) << c.name;
    CertificateBuilder builder;
    Params resume = base;
    resume.resume = &snap;
    resume.certify = &builder;
    bool proved = false;
    Time cost = kTimeInf;
    if (c.threads == 0) {
      const SearchResult r = solve_bnb(ctx, resume);
      proved = r.proved;
      cost = r.best_cost;
    } else {
      ParallelParams pp;
      pp.base = resume;
      pp.threads = c.threads;
      const ParallelResult r = solve_bnb_parallel(ctx, pp);
      proved = r.proved;
      cost = r.best_cost;
    }
    EXPECT_TRUE(proved) << c.name;
    EXPECT_EQ(cost, clean.best_cost) << c.name;
    const Certificate cert = builder.take();
    EXPECT_TRUE(verify_certificate(g, m, cert).certified) << c.name;
  }
}

TEST(Resume, AccumulatesStatsAcrossRestart) {
  const ScratchDir tmp("stats");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  const SearchSnapshot snap =
      partial_snapshot(ctx, tmp.file("seq.ckpt"));

  Params resume;
  resume.resume = &snap;
  const SearchResult r = solve_bnb(ctx, resume);
  EXPECT_TRUE(r.proved);
  // Totals fold the pre-crash run in: the resumed run alone could not
  // have generated fewer vertices than the snapshot already recorded.
  EXPECT_GE(r.stats.generated, snap.stats.generated);
}

// A resumed run replays the rungs its snapshot had fired, in both engines,
// without counting them again: here all four (shed the table, tighten
// MAXSZDB, BF1, DF), so neither engine may claim a proof, and the shed
// table's counters are the snapshot's.
TEST(Resume, ReplaysFiredRungsInBothEngines) {
  const ScratchDir tmp("rungs");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  Params base;
  base.transposition.enabled = true;
  base.transposition.memory_cap_bytes = std::size_t{1} << 20;
  base.degrade = true;
  base.rb.max_memory_bytes = std::size_t{1} << 30;  // armed, never reached
  SearchSnapshot snap = partial_snapshot(ctx, tmp.file("seq.ckpt"), base);
  ASSERT_TRUE(snap.tt_present);
  ASSERT_GT(snap.tt_counters.hits, 0u);
  ASSERT_EQ(snap.degrade_level, 0);
  snap.degrade_level = 4;
  snap.compromised = true;
  snap.compromise_floor = kTimeNegInf;

  Params resume = base;
  resume.resume = &snap;
  const SearchResult seq = solve_bnb(ctx, resume);
  ParallelParams pp;
  pp.base = resume;
  pp.threads = 1;
  const ParallelResult par = solve_bnb_parallel(ctx, pp);
  for (const SearchStats& s : {seq.stats, par.stats}) {
    EXPECT_EQ(s.degrade_steps, snap.stats.degrade_steps);
    EXPECT_EQ(s.tt_hits, snap.tt_counters.hits);
    EXPECT_EQ(s.tt_misses, snap.tt_counters.misses);
  }
  EXPECT_FALSE(seq.proved);
  EXPECT_TRUE(seq.found_solution);
  EXPECT_FALSE(par.proved);
  EXPECT_TRUE(par.found_solution);
}

// A shed table is probed no more, so its counters stop at the shed. A
// snapshot written after the shed still carries them (and no entries), and
// the resumed run ends with the uninterrupted run's table counters.
TEST(Resume, TableShedBeforeTheSnapshotKeepsItsCounters) {
  const ScratchDir tmp("shed");
  const SchedContext ctx = test::make_ctx(test::tight_instance(6), 3);
  Params base;
  base.select = SelectRule::kLLB;
  base.ub = UpperBoundInit::kInfinite;
  base.transposition.enabled = true;
  base.transposition.memory_cap_bytes = std::size_t{1} << 20;
  base.degrade = true;
  base.rb.max_memory_bytes = std::size_t{128} << 10;
  const SearchResult clean = solve_bnb(ctx, base);
  ASSERT_GT(clean.stats.tt_misses, 0u);
  ASSERT_GE(clean.stats.degrade_steps, 1u);

  const SearchSnapshot snap =
      partial_snapshot(ctx, tmp.file("seq.ckpt"), base);
  ASSERT_GE(snap.degrade_level, 1);  // the shed came before the write
  EXPECT_TRUE(snap.tt_present);
  EXPECT_TRUE(snap.tt_entries.empty());

  Params resume = base;
  resume.resume = &snap;
  const SearchResult r = solve_bnb(ctx, resume);
  EXPECT_EQ(r.best_cost, clean.best_cost);
  EXPECT_EQ(r.stats.tt_hits, clean.stats.tt_hits);
  EXPECT_EQ(r.stats.tt_misses, clean.stats.tt_misses);
  EXPECT_EQ(r.stats.tt_evictions, clean.stats.tt_evictions);
  EXPECT_EQ(r.stats.tt_collisions, clean.stats.tt_collisions);
}

// ---------------------------------------------------------------------------
// Off path and armed-but-idle path change nothing
// ---------------------------------------------------------------------------

TEST(Checkpoint, ArmedButNeverDueIsByteIdenticalToOff) {
  const ScratchDir tmp("armed");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);

  const SearchResult off = solve_bnb(ctx, Params{});

  CheckpointController idle(tmp.file("idle.ckpt"), /*every_ms=*/1e12);
  Params armed;
  armed.ckpt = &idle;
  const SearchResult on = solve_bnb(ctx, armed);

  EXPECT_EQ(idle.writes(), 0u);
  EXPECT_EQ(on.best_cost, off.best_cost);
  EXPECT_EQ(on.proved, off.proved);
  EXPECT_EQ(on.stats.generated, off.stats.generated);
  EXPECT_EQ(on.stats.expanded, off.stats.expanded);
  EXPECT_EQ(on.stats.pruned_children, off.stats.pruned_children);
}

TEST(Checkpoint, MidSearchWriteDoesNotAlterTheSearch) {
  const ScratchDir tmp("write");
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);

  const SearchResult off = solve_bnb(ctx, Params{});

  CheckpointController ckpt(tmp.file("mid.ckpt"), /*every_ms=*/0);
  ckpt.request_now();
  Params armed;
  armed.ckpt = &ckpt;
  const SearchResult on = solve_bnb(ctx, armed);

  EXPECT_GE(ckpt.writes(), 1u);
  EXPECT_GT(ckpt.bytes_written(), 0u);
  EXPECT_EQ(on.best_cost, off.best_cost);
  EXPECT_EQ(on.stats.generated, off.stats.generated);
  EXPECT_EQ(on.stats.expanded, off.stats.expanded);
}

TEST(Checkpoint, FailedWriteIsSurvivedAndCounted) {
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  // A directory that does not exist: every save attempt fails; the
  // search must still complete (and prove) as if checkpointing were off.
  CheckpointController ckpt("/nonexistent_dir_parabb/x.ckpt",
                            /*every_ms=*/0);
  ckpt.request_now();
  Params params;
  params.ckpt = &ckpt;
  const SearchResult r = solve_bnb(ctx, params);
  EXPECT_TRUE(r.proved);
  EXPECT_EQ(ckpt.writes(), 0u);
  EXPECT_GE(ckpt.failures(), 1u);
}

// ---------------------------------------------------------------------------
// Job journal
// ---------------------------------------------------------------------------

TEST(Journal, ReplaySplitsPendingAndCompleted) {
  const ScratchDir tmp("replay");
  const std::string dir = tmp.file("wal");
  {
    JobJournal j(dir);
    j.record_accept("a", R"({"id":"a"})");
    j.record_accept("b", R"({"id":"b"})");
    j.record_accept("c", R"({"id":"c"})");
    j.record_complete("a", R"({"id":"a","outcome":"optimal"})");
    j.record_cancel("c");
  }
  const JobJournal::Replay r = JobJournal::replay(dir);
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].id, "b");
  ASSERT_EQ(r.completed.size(), 1u);
  EXPECT_EQ(r.completed.count("a"), 1u);
  EXPECT_EQ(r.malformed, 0u);
}

TEST(Journal, TornTailAndGarbageAreCountedNotFatal) {
  const ScratchDir tmp("torn");
  const std::string dir = tmp.file("wal");
  {
    JobJournal j(dir);
    j.record_accept("a", R"({"id":"a"})");
  }
  {
    // Simulate a torn final write plus stray garbage.
    std::ofstream out(dir + "/journal.log", std::ios::app);
    out << "{\"t\":\"complete\",\"id\":\"a\",\"resp\":{\"trunc\n";
    out << "not json at all\n";
    out << "{\"t\":\"frobnicate\",\"id\":\"a\"}\n";
  }
  const JobJournal::Replay r = JobJournal::replay(dir);
  // The torn complete never took effect: "a" is still pending.
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].id, "a");
  EXPECT_EQ(r.completed.size(), 0u);
  EXPECT_EQ(r.malformed, 3u);
}

TEST(Journal, DuplicateAcceptFirstOneWins) {
  const ScratchDir tmp("dup");
  const std::string dir = tmp.file("wal");
  {
    JobJournal j(dir);
    j.record_accept("a", R"({"id":"a","v":1})");
    j.record_accept("a", R"({"id":"a","v":2})");
    j.record_complete("a", R"({"id":"a"})");
    j.record_accept("a", R"({"id":"a","v":3})");  // after complete: stale
  }
  const JobJournal::Replay r = JobJournal::replay(dir);
  EXPECT_TRUE(r.pending.empty());
  EXPECT_EQ(r.completed.size(), 1u);
}

TEST(Journal, CheckpointPathIsStableAndSafe) {
  const ScratchDir tmp("paths");
  JobJournal j(tmp.file("wal"));
  const std::string p1 = j.job_checkpoint_path("job-1");
  EXPECT_EQ(p1, j.job_checkpoint_path("job-1"));
  EXPECT_NE(p1, j.job_checkpoint_path("job-2"));
  // Client-chosen ids must not become path traversal.
  const std::string evil = j.job_checkpoint_path("../../etc/passwd");
  EXPECT_EQ(evil.find(".."), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service integration: per-job checkpoints
// ---------------------------------------------------------------------------

TEST(ServiceCkpt, TerminalJobRemovesItsCheckpoint) {
  const ScratchDir tmp("svc_done");
  JobJournal journal(tmp.file("wal"));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.journal = &journal;
  cfg.checkpoint_interval_ms = 10;
  SolverService service(cfg);

  JobRequest req;
  req.id = "done-1";
  req.graph = test::tight_instance(3);
  req.machine = make_shared_bus_machine(3);
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);
  EXPECT_FALSE(std::filesystem::exists(
      journal.job_checkpoint_path("done-1")));
}

TEST(ServiceCkpt, ResumesFromMatchingJobSnapshot) {
  const ScratchDir tmp("svc_resume");
  JobJournal journal(tmp.file("wal"));

  // A "crashed predecessor": a budget-stopped run left a snapshot at the
  // job's checkpoint path.
  const TaskGraph g = test::tight_instance(3);
  const Machine m = make_shared_bus_machine(3);
  const SchedContext ctx(g, m);
  const std::string path = journal.job_checkpoint_path("resume-1");
  partial_snapshot(ctx, path);
  ASSERT_TRUE(std::filesystem::exists(path));

  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.journal = &journal;
  cfg.metrics = &registry;
  SolverService service(cfg);

  JobRequest req;
  req.id = "resume-1";
  req.graph = g;
  req.machine = m;
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);

  // The engine restored the snapshot (visible through the registry) and
  // the terminal job removed the spent file.
  const MetricsSnapshot metrics = registry.snapshot();
  const auto* restores = metrics.find_counter("parabb_ckpt_restores_total");
  ASSERT_NE(restores, nullptr);
  EXPECT_GE(restores->value, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServiceCkpt, MismatchedSnapshotIsIgnoredNotFatal) {
  const ScratchDir tmp("svc_mismatch");
  JobJournal journal(tmp.file("wal"));

  // A well-formed snapshot whose fingerprint is not this job's (as if the
  // journal directory were reused across a config change), parked at the
  // job's checkpoint path.
  const SchedContext ctx = test::make_ctx(test::tight_instance(3), 3);
  const std::string path = journal.job_checkpoint_path("mm-1");
  SearchSnapshot donor = partial_snapshot(ctx, tmp.file("donor.ckpt"));
  donor.instance ^= 0x1;  // foreign instance/param fingerprint
  save_snapshot(path, donor);

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.journal = &journal;
  SolverService service(cfg);

  JobRequest req;
  req.id = "mm-1";
  req.graph = test::tight_instance(3);
  req.machine = make_shared_bus_machine(3);
  const JobResult r = service.wait(service.submit(std::move(req)));
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.outcome, JobOutcome::kOptimal);  // fresh search, correct
}

}  // namespace
}  // namespace parabb
