// Differential suite for the optimality-certificate verifier: genuine
// certificates from both engines across the rule grid must certify (and
// match the brute-force optimum), deliberately corrupted certificates
// must be rejected, and the verifier's verdict on approximate /
// interrupted runs must track ground truth — the replay layer upgrades an
// unproved-but-optimal incumbent and refutes a sub-optimal one.
#include "parabb/verify/verifier.hpp"

#include <gtest/gtest.h>

#include <string>

#include "parabb/bnb/brute_force.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

/// Runs a certified solve and returns the certificate.
Certificate certified_solve(const TaskGraph& g, const Machine& m,
                            Params params, int threads = 0) {
  const SchedContext ctx(g, m);
  CertificateBuilder builder;
  params.certify = &builder;
  if (threads == 0) {
    solve_bnb(ctx, params);
  } else {
    ParallelParams pp;
    pp.base = params;
    pp.threads = threads;
    solve_bnb_parallel(ctx, pp);
  }
  return builder.take();
}

/// A small instance whose full goal space the replay can sweep.
TaskGraph small_instance(std::uint64_t seed) {
  return test::tiny_random(seed, 5, 3);
}

TEST(Verify, SequentialGridCertifiedAndMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const TaskGraph g = small_instance(seed);
    const Machine machine = make_shared_bus_machine(2);
    const Time opt = brute_force(SchedContext(g, machine)).best_cost;
    for (const SelectRule select :
         {SelectRule::kLIFO, SelectRule::kLLB, SelectRule::kFIFO}) {
      for (const LowerBound lb :
           {LowerBound::kLB0, LowerBound::kLB1, LowerBound::kLB2}) {
        Params params;
        params.select = select;
        params.lb = lb;
        params.transposition.enabled = seed % 2 == 0;
        const Certificate cert = certified_solve(g, machine, params);
        EXPECT_EQ(cert.cost, opt) << "seed " << seed;
        const VerifyReport report = verify_certificate(g, machine, cert);
        EXPECT_TRUE(report.certified)
            << "seed " << seed << " S=" << to_string(select)
            << " L=" << to_string(lb) << "\n"
            << report.summary();
      }
    }
  }
}

TEST(Verify, ParallelCertifiedAcrossThreadCounts) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const TaskGraph g = small_instance(seed);
    const Machine machine = make_shared_bus_machine(2);
    const Time opt = brute_force(SchedContext(g, machine)).best_cost;
    for (const int threads : {1, 4, 8}) {
      Params params;
      params.lb = LowerBound::kLB1;
      const Certificate cert =
          certified_solve(g, machine, params, threads);
      EXPECT_EQ(cert.cost, opt) << "seed " << seed;
      const VerifyReport report = verify_certificate(g, machine, cert);
      EXPECT_TRUE(report.certified)
          << "seed " << seed << " threads " << threads << "\n"
          << report.summary();
    }
  }
}

TEST(Verify, TextRoundTripPreservesTheVerdict) {
  const TaskGraph g = small_instance(1);
  const Machine machine = make_shared_bus_machine(2);
  const Certificate cert = certified_solve(g, machine, Params{});

  const std::string text = certificate_to_text(cert, g);
  const Certificate parsed = certificate_from_text(text, g);
  EXPECT_EQ(parsed.task_count, cert.task_count);
  EXPECT_EQ(parsed.procs, cert.procs);
  EXPECT_EQ(parsed.lb_kind, cert.lb_kind);
  EXPECT_EQ(parsed.cost, cert.cost);
  EXPECT_EQ(parsed.cuts.size(), cert.cuts.size());
  // Re-serializing the parse must be byte-identical: the format has one
  // spelling per certificate.
  EXPECT_EQ(certificate_to_text(parsed, g), text);
  EXPECT_TRUE(verify_certificate(g, machine, parsed).certified);
}

// D leaves no cut behind, so the codec no longer knows a `dominance` rule:
// a certificate that names one is a parse error.
TEST(Verify, DominanceCutIsAParseError) {
  const TaskGraph g = small_instance(1);
  const Certificate cert =
      certified_solve(g, make_shared_bus_machine(2), Params{});
  std::string text = certificate_to_text(cert, g);
  const std::size_t pos = text.find("\ncut ");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t rule = pos + 5;
  text.replace(rule, text.find(' ', rule) - rule, "dominance");
  try {
    certificate_from_text(text, g);
    FAIL() << "a dominance cut parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown cut rule: dominance"),
              std::string::npos)
        << e.what();
  }
}

/// Index of the first cut carrying a bound-rule claim, or npos.
std::size_t first_bound_cut(const Certificate& cert) {
  for (std::size_t i = 0; i < cert.cuts.size(); ++i) {
    switch (cert.cuts[i].rule) {
      case CutRule::kLB0:
      case CutRule::kLB1:
      case CutRule::kLB2:
      case CutRule::kPackingSuffix: return i;
      default: break;
    }
  }
  return std::string::npos;
}

TEST(Verify, TamperedBoundRejected) {
  const TaskGraph g = small_instance(2);
  const Machine machine = make_shared_bus_machine(2);
  Params params;
  Certificate cert = certified_solve(g, machine, params);
  ASSERT_TRUE(verify_certificate(g, machine, cert).certified);
  const std::size_t i = first_bound_cut(cert);
  ASSERT_NE(i, std::string::npos) << "run produced no bound cuts";

  // Inflated claim: above what the reference bound can justify.
  const Time genuine = cert.cuts[i].claimed_bound;
  cert.cuts[i].claimed_bound = genuine + 1000;
  VerifyReport report = verify_certificate(g, machine, cert);
  EXPECT_FALSE(report.cuts_sound) << report.summary();
  EXPECT_FALSE(report.certified);
  EXPECT_EQ(report.cuts_rejected, 1u);

  // Deflated claim: honest but no longer dominating the incumbent.
  cert.cuts[i].claimed_bound = cert.cost - 1000;
  report = verify_certificate(g, machine, cert);
  EXPECT_FALSE(report.cuts_sound) << report.summary();
  EXPECT_FALSE(report.certified);

  cert.cuts[i].claimed_bound = genuine;
  EXPECT_TRUE(verify_certificate(g, machine, cert).certified);
}

TEST(Verify, TamperedFingerprintRejected) {
  const TaskGraph g = small_instance(3);
  const Machine machine = make_shared_bus_machine(2);
  Certificate cert = certified_solve(g, machine, Params{});
  ASSERT_FALSE(cert.cuts.empty());
  cert.cuts[0].fingerprint ^= 1;
  const VerifyReport report = verify_certificate(g, machine, cert);
  EXPECT_FALSE(report.cuts_sound) << report.summary();
  EXPECT_FALSE(report.certified);
}

TEST(Verify, TamperedPathRejected) {
  // Scan seeds for a run whose log has a cut below the root (nonempty
  // placement path) — not every tiny instance prunes past depth 0.
  const Machine machine = make_shared_bus_machine(2);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const TaskGraph g = small_instance(seed);
    Certificate cert = certified_solve(g, machine, Params{});
    std::size_t i = 0;
    while (i < cert.cuts.size() && cert.cuts[i].path.empty()) ++i;
    if (i == cert.cuts.size()) continue;
    // Rehome the first placement: the rebuilt state no longer matches the
    // recorded fingerprint (or its start time no longer replays).
    CutPlacement& pl = cert.cuts[i].path.front();
    pl.proc = pl.proc == 0 ? 1 : 0;
    const VerifyReport report = verify_certificate(g, machine, cert);
    EXPECT_FALSE(report.cuts_sound) << report.summary();
    EXPECT_FALSE(report.certified);
    return;
  }
  FAIL() << "no seed produced a cut with a nonempty path";
}

TEST(Verify, TamperedCostRejected) {
  const TaskGraph g = small_instance(5);
  const Machine machine = make_shared_bus_machine(2);
  Certificate cert = certified_solve(g, machine, Params{});

  // A cost *above* the incumbent's true lateness is a plain mismatch.
  cert.cost += 1;
  EXPECT_FALSE(verify_certificate(g, machine, cert).cost_matches);
  EXPECT_FALSE(verify_certificate(g, machine, cert).certified);

  // A cost *below* it — the classic "sub-optimal optimum" lie — fails the
  // same check before the replay even has to refute it.
  cert.cost -= 2;
  const VerifyReport report = verify_certificate(g, machine, cert);
  EXPECT_FALSE(report.cost_matches);
  EXPECT_FALSE(report.certified);
}

TEST(Verify, TamperedScheduleTextRejected) {
  const TaskGraph g = small_instance(6);
  const Machine machine = make_shared_bus_machine(2);
  const Certificate cert = certified_solve(g, machine, Params{});
  std::string text = certificate_to_text(cert, g);
  // Corrupt the first schedule line's start time the same way
  // certify_smoke.sh does: finish no longer equals start + exec.
  const std::size_t pos = text.find("start=");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + 6, "9");
  const Certificate tampered = certificate_from_text(text, g);
  const VerifyReport report = verify_certificate(g, machine, tampered);
  EXPECT_FALSE(report.incumbent_valid) << report.summary();
  EXPECT_FALSE(report.certified);
}

TEST(Verify, ApproximateRunUpgradedOrRefutedByReplay) {
  // BF1 runs cannot prove optimality, but the replay can settle the
  // question either way: certified exactly when the incumbent really is
  // optimal.
  int upgraded = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const TaskGraph g = small_instance(seed);
    const Machine machine = make_shared_bus_machine(2);
    const Time opt = brute_force(SchedContext(g, machine)).best_cost;
    Params params;
    params.branch = BranchRule::kBF1;
    const Certificate cert = certified_solve(g, machine, params);
    EXPECT_FALSE(cert.complete) << "seed " << seed;
    const VerifyReport report = verify_certificate(g, machine, cert);
    EXPECT_EQ(report.certified, cert.cost == opt)
        << "seed " << seed << "\n" << report.summary();
    if (report.certified) ++upgraded;
  }
  // BF1 is a good heuristic on tiny instances: the upgrade path must
  // actually exercise, not vacuously pass on all-refuted runs.
  EXPECT_GT(upgraded, 0);
}

TEST(Verify, InterruptedRunStillAuditsSound) {
  const TaskGraph g = test::tight_instance(7);
  const Machine machine = make_shared_bus_machine(2);
  Params params;
  params.rb.max_generated = 50;  // stop long before exhaustion
  const Certificate cert = certified_solve(g, machine, params);
  ASSERT_TRUE(cert.found);
  EXPECT_FALSE(cert.complete);
  // Whatever the replay concludes about optimality, every cut the
  // interrupted run *did* make must audit sound.
  VerifyOptions options;
  options.audit_only = true;
  const VerifyReport report = verify_certificate(g, machine, cert, options);
  EXPECT_TRUE(report.cuts_sound) << report.summary();
  EXPECT_FALSE(report.certified);  // audit-only never certifies
}

TEST(Verify, WrongInstanceRejected) {
  const TaskGraph g = small_instance(8);
  const Machine machine = make_shared_bus_machine(2);
  const Certificate cert = certified_solve(g, machine, Params{});
  const VerifyReport report =
      verify_certificate(g, make_shared_bus_machine(3), cert);
  EXPECT_FALSE(report.certified);
  EXPECT_FALSE(report.error.empty());
}

TEST(Verify, NoIncumbentRejected) {
  const TaskGraph g = small_instance(9);
  const Machine machine = make_shared_bus_machine(2);
  Params params;
  params.ub = UpperBoundInit::kInfinite;
  params.rb.max_generated = 1;  // stop before any goal is reached
  const Certificate cert = certified_solve(g, machine, params);
  ASSERT_FALSE(cert.found);
  const VerifyReport report = verify_certificate(g, machine, cert);
  EXPECT_FALSE(report.certified);
  EXPECT_FALSE(report.error.empty());
}

TEST(Verify, ReplayBudgetReportsExhaustion) {
  // Scan seeds for an instance whose replay genuinely needs more than one
  // expansion (when the reference LB closes the root immediately, a
  // 1-state budget is never felt).
  const Machine machine = make_shared_bus_machine(2);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const TaskGraph g = small_instance(seed);
    const Certificate cert = certified_solve(g, machine, Params{});
    if (verify_certificate(g, machine, cert).replayed <= 1) continue;
    VerifyOptions options;
    options.max_replayed = 1;
    const VerifyReport report =
        verify_certificate(g, machine, cert, options);
    EXPECT_TRUE(report.exhausted);
    EXPECT_FALSE(report.certified);
    EXPECT_TRUE(report.error.empty()) << "exhaustion is not a refutation";
    return;
  }
  FAIL() << "no seed produced a replay deeper than one expansion";
}

TEST(Verify, BrTolerantCertificateChecksAgainstRelaxedThreshold) {
  // A BR > 0 run may cut against the relaxed threshold; its certificate
  // still certifies (the verifier reimplements the same relaxation), and
  // the cost is within BR of the true optimum.
  const TaskGraph g = test::tight_instance(12);
  const Machine machine = make_shared_bus_machine(2);
  Params params;
  params.br = 0.2;
  const Certificate cert = certified_solve(g, machine, params);
  ASSERT_TRUE(cert.found);
  VerifyOptions options;
  options.audit_only = true;  // paper-sized: the cut audit is the point
  const VerifyReport report = verify_certificate(g, machine, cert, options);
  EXPECT_TRUE(report.cuts_sound) << report.summary();
}

}  // namespace
}  // namespace parabb
