// Independent certificate checking: confirms a B&B run's "optimal" claim
// without trusting the engine that produced it.
//
// Three layers, all mandatory for `certified`:
//
//  1. Incumbent check — the claimed schedule is re-validated with the
//     existing validator (structure, overlap, precedence + communication)
//     and its maximum lateness is recomputed and compared to the claimed
//     cost.
//
//  2. Cut audit — every record of the pruning log is replayed from the
//     empty schedule via the scheduling operation (recorded starts must
//     match what the operation assigns), its fingerprint is recomputed,
//     and its claimed bound is checked two ways against the from-scratch
//     reference LB (reference_lb.hpp): the claim must not exceed the
//     reference bound (no inflated claims) and — for bound-rule cuts —
//     must dominate the incumbent, i.e. be >= the BR-relaxed prune
//     threshold. Because the threshold only tightens as the incumbent
//     improves, every cut an honest engine made against an intermediate
//     incumbent still dominates the final one. Transposition cuts are
//     audited for honesty only (their subtree is covered elsewhere, and
//     the replay below carries its own duplicate detection);
//     characteristic cuts come from an opaque client hook and are merely
//     counted — the replay is what keeps them honest.
//
//  3. Optimality replay — an exhaustive DFS over the scheduling
//     operation's state space using only the reference LB and the
//     verifier's own duplicate detection (fingerprint + full state
//     comparison), pruning exactly at `lb >= threshold` with a locally
//     reimplemented threshold. Any complete schedule found with cost
//     below the threshold refutes the certificate. This layer trusts
//     *nothing* the engine recorded except the claimed cost; it is a
//     second solver, not a log replay, so it also covers cuts the log
//     cannot justify (characteristic, truncation) and the children D
//     never generates.
//
// The replay is budgeted (VerifyOptions::max_replayed); hitting the budget
// yields `exhausted = true` and an uncertified-but-unrefuted report.
#pragma once

#include <cstdint>
#include <string>

#include "parabb/platform/machine.hpp"
#include "parabb/taskgraph/graph.hpp"
#include "parabb/verify/certificate.hpp"

namespace parabb {

struct VerifyOptions {
  /// Replay budget: states the optimality DFS may expand before giving
  /// up. Each retained state costs ~300 bytes of duplicate-detection
  /// memory, so the default stays modest.
  std::uint64_t max_replayed = 1'000'000;
  /// Skip layer 3 (cut audit only). For huge instances where the replay
  /// cannot finish anyway; the report can then never be `certified`.
  bool audit_only = false;
};

struct VerifyReport {
  /// The verdict: incumbent valid, cost exact, every auditable cut sound,
  /// and the independent replay confirmed no cheaper schedule exists.
  bool certified = false;

  bool incumbent_valid = false;   ///< layer 1: validator accepted it
  bool cost_matches = false;      ///< layer 1: recomputed L_max == claim
  bool cuts_sound = false;        ///< layer 2: no audited cut rejected
  bool optimal_confirmed = false; ///< layer 3: replay found nothing better
  bool exhausted = false;         ///< layer 3 hit the replay budget

  std::uint64_t cuts_checked = 0;   ///< records audited (all of them)
  std::uint64_t cuts_rejected = 0;  ///< records that failed the audit
  std::uint64_t hook_cuts = 0;      ///< characteristic records
  std::uint64_t replayed = 0;       ///< states the optimality DFS expanded
  std::uint64_t replay_pruned = 0;  ///< replay children cut by reference LB
  std::uint64_t replay_deduped = 0; ///< replay children cut as duplicates
  std::uint64_t goals_seen = 0;     ///< complete schedules the replay met

  /// First failure, empty when certified (or merely exhausted).
  std::string error;

  std::string summary() const;
};

/// Checks `cert` against the instance it claims to solve.
VerifyReport verify_certificate(const TaskGraph& graph,
                                const Machine& machine,
                                const Certificate& cert,
                                const VerifyOptions& options = {});

}  // namespace parabb
