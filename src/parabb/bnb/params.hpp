// The parametrized B&B 9-tuple <B, S, E, F, D, L, U, BR, RB> of Kohler &
// Steiglitz, as instantiated by the paper (§3).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include <atomic>

#include "parabb/bnb/transposition.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

class CancelToken;           // bnb/cancel.hpp
class CertificateBuilder;    // verify/certificate.hpp
class FaultInjector;         // robust/fault.hpp
struct Observation;          // obs/observe.hpp
class CheckpointController;  // ckpt/checkpoint.hpp
struct SearchSnapshot;       // ckpt/snapshot.hpp

/// S — vertex selection rule (§3.2).
enum class SelectRule : std::uint8_t {
  kLLB,   ///< least lower bound; stop when popped lb >= incumbent
  kFIFO,  ///< oldest first (breadth-first sweep; §3.2 notes it is hopeless)
  kLIFO,  ///< newest first (depth-first dive; the paper's winner)
};

/// B — vertex branching rule (§3.3).
enum class BranchRule : std::uint8_t {
  kBFn,  ///< branch on every ready task × every processor (complete)
  kBF1,  ///< branch on the highest-*level* ready task only (approximate)
  kDF,   ///< branch on the first ready task in depth-first order (approx.)
};

/// E — vertex elimination rule (§3.6).
enum class ElimRule : std::uint8_t {
  kNone,   ///< keep everything (exhaustive; for reference/testing)
  kUDBAS,  ///< U/DBAS: prune DB and AS entries with cost >= upper bound
};

/// L — lower-bound cost function (§3.5).
enum class LowerBound : std::uint8_t {
  kLB0,  ///< path-recursive estimated finish times (Hou & Shin style)
  kLB1,  ///< LB0 + processor-contention term l_min (the paper's proposal)
  kLB2,  ///< LB1 + remaining-workload packing bound (our extension)
};

/// U — initial upper-bound solution cost (§3.4, §4.4, §6).
enum class UpperBoundInit : std::uint8_t {
  kInfinite,  ///< no initial solution (cost +inf)
  kFromEDF,   ///< greedy EDF provides the initial solution and its cost
  kExplicit,  ///< caller-supplied cost (e.g. the §6 "positive value")
};

/// RB — resource bounds (TIMELIMIT, MAXSZAS, MAXSZDB), extended with the
/// per-job budget caps the solver service enforces (service/job.hpp maps a
/// Budget onto these). TIMELIMIT and the disposal bounds are the paper's;
/// `max_generated` / `max_memory_bytes` stop the search outright — best
/// incumbent returned with TerminationReason::kBudget — instead of
/// compromising it by disposal. Caps are polled on the hot loop, so they
/// are honored to within one polling interval (256 expansions).
struct ResourceBounds {
  double time_limit_s = std::numeric_limits<double>::infinity();
  std::size_t max_active = std::numeric_limits<std::size_t>::max();
  int max_children = std::numeric_limits<int>::max();
  /// Cap on generated (cost-evaluated) vertices; the classic proxy for
  /// total search effort, deterministic across runs unlike wall clock.
  std::uint64_t max_generated = std::numeric_limits<std::uint64_t>::max();
  /// Cap on live vertex memory, in bytes: the sequential engine's pool
  /// footprint, where each vertex is priced at vertex_bytes(ctx) (128 bytes
  /// for n <= 16 and m <= 4, 272 otherwise; bnb/vertex.hpp), and the
  /// parallel engine's summed per-worker slab bytes. Both engines stop at
  /// the cap (kBudget); with `degrade` on it is also the signal the
  /// graceful-degradation ladder steps against (docs/robustness.md).
  std::size_t max_memory_bytes = std::numeric_limits<std::size_t>::max();
};

/// F — optional characteristic function: return false to discard a partial
/// solution that provably cannot extend to a valid complete one. The paper
/// leaves F unused to keep results general; the hook exists for clients.
using CharacteristicFn =
    std::function<bool(const SchedContext&, const PartialSchedule&)>;

struct Params {
  BranchRule branch = BranchRule::kBFn;
  SelectRule select = SelectRule::kLIFO;
  ElimRule elim = ElimRule::kUDBAS;
  LowerBound lb = LowerBound::kLB1;
  UpperBoundInit ub = UpperBoundInit::kFromEDF;
  Time explicit_ub = kTimeInf;  ///< used when ub == kExplicit
  double br = 0.0;              ///< BR inaccuracy limit (0 = exact)
  ResourceBounds rb;

  /// When true (default), newly generated siblings are inserted in
  /// decreasing-bound order, so stack/queue rules explore the most
  /// promising child first ("best-first dive"). Ablatable via
  /// bench/ablation_childorder; LLB is insensitive to it.
  bool sort_children = true;

  /// LLB tie-breaking among equal bounds. false (default) = oldest-first,
  /// the behaviour of a plain best-first heap and what the literature's
  /// "default" LLB does; true = newest-first, which makes LLB dive like
  /// LIFO across equal-bound plateaus (bench/ablation_llbtie quantifies
  /// the difference — it is the entire LLB-vs-LIFO story).
  bool llb_tie_newest = false;

  /// Duplicate-state detection (bnb/transposition.hpp): when enabled, a
  /// child whose exact state already entered the search with an
  /// equal-or-better bound is pruned before activation. Sound for every
  /// rule combination (identical states root identical subtrees) and
  /// shared across workers in the parallel engine. Off by default to keep
  /// the paper's baseline configuration untouched.
  TranspositionConfig transposition;
  CharacteristicFn characteristic;  ///< F (optional)

  /// D — processor symmetry, the one dominance relation ParaBB ships (the
  /// paper leaves D unused). On a machine whose processors are pairwise
  /// equally many hops apart, a task branches onto the lowest-numbered
  /// processor that hosts no task and onto no other empty one: placing it
  /// on another empty processor roots a renaming of the same subtree
  /// (bnb/expand.hpp). On any other interconnect it never fires. Off by
  /// default to keep the paper's baseline configuration untouched.
  bool dominance = false;

  /// Optional cooperative cancellation token (bnb/cancel.hpp); not owned,
  /// may be null. Both engines poll it on the hot loop and return the best
  /// incumbent with TerminationReason::kCancelled once it trips.
  const CancelToken* cancel = nullptr;

  /// Optional optimality-certificate recorder (verify/certificate.hpp);
  /// not owned, may be null. When set, both engines log every cut they
  /// make (fingerprint, rule, claimed bound, placement path) and disable
  /// the bound-aware LB short-circuit so every claimed bound is exact.
  /// The builder is thread-safe; the parallel engine's workers record
  /// into it concurrently.
  CertificateBuilder* certify = nullptr;

  /// Optional observability sinks (obs/observe.hpp); not owned, may be
  /// null (as may either member). Both engines honor it: counter deltas
  /// are flushed to the metrics registry at the amortized poll points,
  /// and search events (expand / prune / incumbent / budget / dispose)
  /// stream into the flight recorder's per-worker rings. Unlike
  /// `certify`, observation is strictly read-beside: it never
  /// disables the bound-aware LB short-circuit, so results — and the
  /// search trajectory itself — are byte-identical with it on or off.
  const Observation* observe = nullptr;

  /// Graceful-degradation ladder (robust/degrade.hpp): as the vertex-pool
  /// footprint crosses fixed high-water fractions of
  /// rb.max_memory_bytes, the engines shed the transposition table,
  /// tighten the effective MAXSZDB, and step the branching rule down
  /// BFn -> BF1 -> DF before resorting to disposal or the budget cliff.
  /// The rungs and their fractions are fixed (kDegradeLadder). Off by
  /// default; off, no ladder state is read anywhere and the search is
  /// byte-identical to pre-ladder builds.
  bool degrade = false;

  /// Optional deterministic fault injector (robust/fault.hpp); not owned,
  /// may be null. Both engines call its hooks at the allocation and poll
  /// sites; the off path costs one null check per site. Injected faults
  /// surface as ordinary termination reasons (kBudget / kCancelled /
  /// kTimeLimit) — never a crash or an undefined result.
  FaultInjector* faults = nullptr;

  /// Optional crash-safe checkpointing (ckpt/checkpoint.hpp); not owned,
  /// may be null — the off path is this null check and nothing else, so
  /// runs without a controller are byte-identical to pre-checkpoint
  /// builds. When set, both engines write an atomic versioned snapshot of
  /// the live search (ckpt/snapshot.hpp) to ckpt->path() whenever
  /// ckpt->due() — every interval_ms at the amortized poll points, or
  /// immediately on request_now() (the SIGTERM hook). Checkpointing is
  /// read-beside: it never changes the search trajectory.
  CheckpointController* ckpt = nullptr;

  /// Optional snapshot to resume from (ckpt/snapshot.hpp); not owned, may
  /// be null. When set, the engines seed the incumbent, frontier,
  /// transposition table, degradation rung, certificate cuts, and stats
  /// from the snapshot instead of starting at the root; the snapshot must
  /// satisfy snapshot_matches(*resume, ctx, params) (PARABB_REQUIREd).
  /// resume(checkpoint(t)) reaches the same optimal lateness — and a
  /// CERTIFIED certificate — as the uninterrupted run, because every
  /// vertex live at snapshot time is rooted in a stored frontier entry.
  const SearchSnapshot* resume = nullptr;

  /// Optional progress heartbeat; not owned, may be null. Both engines
  /// store stats.generated into it at their poll cadence so an external
  /// watchdog (robust/watchdog.hpp, wired up by the solver service) can
  /// detect generated-count stagnation and cancel the hung job.
  std::atomic<std::uint64_t>* progress = nullptr;
};

std::string to_string(SelectRule s);
std::string to_string(BranchRule b);
std::string to_string(ElimRule e);
std::string to_string(LowerBound l);
std::string to_string(UpperBoundInit u);

/// The lower-case spellings of S, B and L ("lifo", "bfn", "lb1") that the
/// CLI, the service protocol and experiment specs share. Each throws
/// std::runtime_error on an unknown spelling.
SelectRule parse_select_rule(const std::string& s);
BranchRule parse_branch_rule(const std::string& s);
LowerBound parse_lower_bound(const std::string& s);

/// One-line summary "B=BFn S=LIFO E=U/DBAS L=LB1 U=EDF BR=0%".
std::string describe(const Params& p);

}  // namespace parabb
