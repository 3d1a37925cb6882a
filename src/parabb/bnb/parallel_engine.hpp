// Parallel branch-and-bound (extension; DESIGN.md item 8).
//
// Workers share one search semantics with the sequential engine: every
// expansion goes through the same child loop (bnb/expand.hpp), against the
// governor's incumbent, whose cost every prune reads from an atomic, and a
// shared lock-striped transposition table.
//
// Vertices are distributed by work stealing: each worker owns a
// Chase-Lev deque (support/ws_deque.hpp). The owner pushes and pops
// children at the bottom (sorted-LIFO dive, depth-first locality); idle
// workers steal half of a randomly chosen victim's deque from the top
// (oldest = shallowest vertices, whose subtrees amortize the steal).
// Vertices live in per-worker slab pools, so neither allocation nor
// scheduling ever takes a global lock on the hot path. Termination is
// detected by an idle-worker counter: a worker is counted idle only while
// it holds no vertex, and the search ends when a sweep of every deque
// finds them empty AND the counter — re-read after the sweep and after a
// final stop-flag check — equals the worker count. docs/algorithm.md
// ("Parallel search: work stealing") has the memory-order and termination
// arguments.
//
// The workers start from a breadth-first *seeding* phase that expands the
// root until there is at least one frontier vertex per worker. The
// returned cost is identical to the sequential engine's; the number of
// searched vertices varies run-to-run because incumbent improvements
// propagate asynchronously.
//
// The incumbent, stop reasons, the degradation ladder, checkpoint export,
// resume seeding and the result are the search governor's
// (bnb/governor.hpp), shared with solve_bnb; this engine keeps its
// frontier and its cadence. Cancellation and the generated budget are
// polled per expanded vertex; the ladder and the memory cliff at each
// worker's 256-expansion flush; the time limit and the checkpoint cadence
// by a supervisor on the calling thread. A due checkpoint ends the
// workers' round: each returns at its next flush or while foraging, its
// in-hand vertex pushed back onto its deque, and once all are joined the
// calling thread snapshots the deques in place and starts the next round.
#pragma once

#include "parabb/bnb/engine.hpp"

namespace parabb {

struct ParallelParams {
  /// Base 9-tuple. `select` must be LIFO (the workers dive) and
  /// `rb.max_active` unbounded (no disposal in the parallel engine); any
  /// other value throws precondition_error. BR, LB, branch rule, D, UB
  /// init, the time limit, `rb.max_children` (MAXSZDB: a truncated child
  /// set makes the run incomplete, as in solve_bnb), `rb.max_memory_bytes`
  /// (summed worker slab bytes, checked at every worker flush: the stop
  /// cliff, and the degradation-ladder signal when the ladder is on;
  /// docs/robustness.md), `rb.max_generated` (summed across workers) and
  /// the `cancel` token apply.
  /// `transposition` is honored: one table is shared by every worker
  /// (lock-striped), so a state expanded by any thread is pruned as a
  /// duplicate everywhere else.
  Params base;
  int threads = 0;  ///< 0 = hardware concurrency
};

/// The sequential engine's result, built by the same governor. `stats` are
/// merged across workers (the peaks are approximate sums), and
/// `certified_lower_bound` stays kTimeNegInf: the deques track no least
/// open bound.
struct ParallelResult : SearchResult {
  int threads_used = 0;
};

ParallelResult solve_bnb_parallel(const SchedContext& ctx,
                                  const ParallelParams& params);

}  // namespace parabb
