// Optimality certificates: the audit trail a B&B run leaves behind so an
// *independent* checker can confirm its "optimal" claim without re-running
// the search (verify/verifier.hpp).
//
// A certificate is the incumbent schedule plus a pruning audit log: one
// record per cut the engines made, carrying the cut state's canonical
// fingerprint, the rule that justified the cut (which lower bound,
// transposition, characteristic), the claimed bound, and the
// placement path that reconstructs the state. Orr & Sinnen ("Optimal Task
// Scheduling Benefits From a Duplicate-Free State-Space") document how
// subtle pruning bugs silently return sub-optimal "optima"; the
// certificate turns every pruning layer into a mechanically checkable
// claim instead of trusted code.
//
// Emission is gated behind Params::certify (bnb/params.hpp): both engines
// append to a CertificateBuilder while searching and disable the
// bound-aware short-circuit so every claimed bound is exact. The builder
// is thread-safe (the parallel engine's workers record concurrently) and
// bounded: past `max_cuts` records the log is truncated (the certificate
// says so), which weakens the audit but not the verifier's independent
// optimality replay.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/sched/schedule.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

/// Which pruning layer justified a cut.
enum class CutRule : std::uint8_t {
  kLB0,            ///< path-recursion bound >= incumbent threshold
  kLB1,            ///< LB0 + processor-contention term
  kLB2,            ///< max(LB1, workload packing), path term decisive
  kPackingSuffix,  ///< LB2 where the packing term alone was decisive
  kTransposition,  ///< duplicate of a state already in the search
  /// Discarded by the client's F function (unverifiable). Snapshots store
  /// the value, which stays 6: 5 named a retired rule.
  kCharacteristic = 6,
};

std::string to_string(CutRule r);
/// Inverse of to_string; throws std::runtime_error on unknown spellings.
CutRule cut_rule_from_string(const std::string& s);

/// One placement of the path that rebuilds a cut state from the empty
/// schedule. `start` is the start time the scheduling operation assigned;
/// the verifier replays the path and rejects the record when the
/// operation disagrees.
struct CutPlacement {
  TaskId task = kNoTask;
  ProcId proc = kNoProc;
  Time start = 0;
};

/// One pruned search vertex.
struct CutRecord {
  std::uint64_t fingerprint = 0;  ///< PartialSchedule::fingerprint()
  CutRule rule = CutRule::kLB1;
  Time claimed_bound = 0;  ///< the engine's (exact) bound for the state
  /// Placements ordered by (start, topo rank): a valid replay order for
  /// any state the scheduling operation can produce.
  std::vector<CutPlacement> path;
};

/// One graceful-degradation ladder rung applied during the run
/// (robust/degrade.hpp). Recorded so a verifier auditing a degraded run
/// knows from which point the search was no longer complete: a
/// `tighten_db` / `bf1` / `df` rung voids `complete` (the engines mark
/// the result compromised), while `shed_tt` keeps completeness.
struct DegradeRecord {
  std::string action;             ///< to_string(DegradeAction)
  std::uint64_t at_generated = 0; ///< generated-count when the rung fired
  int level = 0;                  ///< 1-based ladder level after the step
};

struct Certificate {
  int task_count = 0;
  int procs = 0;
  /// Lower-bound function the run used: 0/1/2 (mirrors LowerBound).
  int lb_kind = 1;
  /// True iff the branching rule was complete (BFn). Approximate rules
  /// (BF1/DF) cannot certify optimality regardless of the log.
  bool branch_complete = true;
  double br = 0.0;  ///< BR inaccuracy limit the cut threshold used
  std::string params_summary;  ///< describe(params), informational

  bool found = false;      ///< `incumbent`/`cost` are meaningful
  Time cost = kTimeInf;    ///< claimed optimal maximum lateness
  Schedule incumbent;      ///< the claimed-optimal schedule
  /// True when the search terminated by proof (the engine's `proved`):
  /// no disposal compromise, no interruption, complete branching.
  bool complete = false;
  bool truncated = false;  ///< the audit log hit the builder's cap
  std::uint64_t expanded = 0;
  std::uint64_t generated = 0;
  /// Ladder rungs applied, in firing order (empty unless the run degraded).
  std::vector<DegradeRecord> degrades;
  std::vector<CutRecord> cuts;
};

/// Thread-safe, bounded certificate assembly. Lifecycle:
/// begin() once, record_cut() per cut (any thread), finish() once.
class CertificateBuilder {
 public:
  explicit CertificateBuilder(std::size_t max_cuts = std::size_t{1} << 20);

  void begin(const SchedContext& ctx, int lb_kind, bool branch_complete,
             double br, std::string params_summary);

  /// Appends one cut record (drops it and marks the certificate truncated
  /// once `max_cuts` is reached).
  void record_cut(const SchedContext& ctx, const PartialSchedule& state,
                  CutRule rule, Time claimed_bound);

  /// Appends one degradation-ladder record (never truncated: a run fires
  /// at most four rungs).
  void record_degrade(std::string action, std::uint64_t at_generated,
                      int level);

  void finish(bool found, const Schedule& incumbent, Time cost,
              bool complete, std::uint64_t expanded,
              std::uint64_t generated);

  /// Checkpoint continuity (ckpt/snapshot.hpp). export_state copies the
  /// accumulated audit log out under the lock; restore_state seeds a
  /// fresh builder with a snapshot's log (call between begin() and the
  /// first record_cut), so a resumed run's certificate carries the cuts
  /// of every incarnation.
  void export_state(std::vector<CutRecord>& cuts,
                    std::vector<DegradeRecord>& degrades,
                    bool& truncated) const;
  void restore_state(std::vector<CutRecord> cuts,
                     std::vector<DegradeRecord> degrades, bool truncated);

  /// Moves the assembled certificate out (call after the solve returned).
  Certificate take();

  std::size_t cut_count() const;

 private:
  mutable std::mutex mutex_;
  Certificate cert_;
  std::size_t max_cuts_;
};

/// The replayable placement list of `state`: every scheduled task's
/// (task, proc, start), ordered by (start, topo rank). Exposed for the
/// verifier's reconstruction tests.
std::vector<CutPlacement> placement_path(const SchedContext& ctx,
                                         const PartialSchedule& state);

}  // namespace parabb
