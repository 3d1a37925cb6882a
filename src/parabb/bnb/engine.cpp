#include "parabb/bnb/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/certify.hpp"
#include "parabb/bnb/expand.hpp"
#include "parabb/bnb/governor.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/bnb/vertex.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/support/pool.hpp"

namespace parabb {

Time prune_threshold(Time incumbent, double br) {
  if (incumbent >= kTimeInf) return kTimeInf;
  if (br <= 0.0) return incumbent;
  const auto margin = static_cast<Time>(
      std::floor(br * std::abs(static_cast<double>(incumbent))));
  return incumbent - margin;
}

namespace {

/// A child that survived the filters: bounded, already living in its pool
/// slot. The slot is allocated the moment the child survives (packed
/// straight from the scratch state); pruned children are never copied.
struct StagedChild {
  Time lb = 0;
  int order = 0;  ///< generation index, for deterministic tie-breaking
  SlotRef ref;
};

}  // namespace

SearchResult solve_bnb(const SchedContext& ctx, const Params& params) {
  PARABB_REQUIRE(params.br >= 0.0, "BR must be >= 0");
  PARABB_REQUIRE(params.rb.max_children >= 1, "MAXSZDB must be >= 1");
  PARABB_REQUIRE(params.rb.max_active >= 1, "MAXSZAS must be >= 1");

  // U, the certificate, the table, and on a resume everything but the
  // frontier (bnb/governor.hpp).
  SearchGovernor gov(ctx, params, SnapshotEngine::kSequential,
                     params.rb.max_children);
  SearchObs so;
  so.bind(params.observe, /*channel=*/0);
  // The incumbent cost, copied for the per-expansion threshold; only this
  // engine improves it, through gov.offer.
  Time incumbent = gov.cost();
  SearchStats stats = gov.base_stats();
  so.seed(stats);  // registry deltas cover this incarnation only

  // Unbudgeted runs allocate in large chunks for throughput. A finite
  // memory budget shrinks the granularity to at most 1/64 of the budget
  // so the capacity cliff below and the degradation ladder see the budget
  // at fine resolution: the cliff counts whole chunks and the rungs live
  // slots, so a chunk of a sixty-fourth keeps the last rung's mark (0.90
  // of the budget) chunks below the cliff. Every compact-layout solve
  // without a budget gets the same 1 MiB default chunks, which the
  // thread's recycler shares.
  const std::size_t slot_bytes = vertex_bytes(ctx);
  std::size_t slots_per_chunk = 8192;
  if (params.rb.max_memory_bytes != std::numeric_limits<std::size_t>::max()) {
    const std::size_t budget_slots = params.rb.max_memory_bytes / slot_bytes;
    slots_per_chunk = std::clamp<std::size_t>(budget_slots / 64, 1, 8192);
  }
  SlotPool pool(slot_bytes, slots_per_chunk);
  const auto packed_state = [&pool](SlotRef ref) {
    return static_cast<const Vertex*>(pool.get(ref))->state();
  };
  // Scratch state for reading a pooled vertex anywhere but the pop: the
  // certify cut paths and checkpoint export unpack into it.
  PartialSchedule held;
  // ActiveSet::prune_worse releases entries through this callback; while
  // `certify_releases` is armed (only around prune_worse, never around
  // dispose_worst — disposals are losses, not justified cuts) each
  // released vertex is logged against `release_threshold`.
  bool certify_releases = false;
  Time release_threshold = kTimeInf;
  auto release = [&](SlotRef ref) {
    if (certify_releases) {
      const auto* v = static_cast<const Vertex*>(pool.get(ref));
      held.unpack(ctx, v->state());
      params.certify->record_cut(
          ctx, held, bound_cut_rule(ctx, held, params.lb, release_threshold),
          v->lb);
    }
    pool.release(ref);
  };
  // The ladder's view, copied into locals after each poll that fires a
  // rung; it holds the caller's values for the whole run otherwise.
  BranchRule branch_rule = gov.branch();
  SelectRule effective_select = gov.select();
  int effective_max_children = gov.max_children();
  TranspositionTable* tt = gov.table();
  ActiveSet as(effective_select, release, params.llb_tie_newest);

  // The frontier: the root (the empty schedule, not an activated child),
  // or a resumed run's snapshot frontier in ActiveSet::entries() order,
  // which rebuilds a set that pops exactly as the interrupted one.
  const auto push_new = [&](const PartialSchedule& state, Time lb,
                            std::uint32_t seq) {
    const SlotRef ref = pool.allocate();
    auto* v = static_cast<Vertex*>(pool.get(ref));
    v->lb = lb;
    state.pack(ctx, v->state());
    as.push(VertexEntry{lb, seq, ref});
  };
  std::uint32_t next_seq = gov.replay_frontier(so, push_new);
  if (params.resume == nullptr) {
    const PartialSchedule root = PartialSchedule::empty(ctx);
    push_new(root, lower_bound_cost(ctx, root, params.lb), next_seq++);
  }

  IncrementalLB inc(ctx);

  std::vector<StagedChild> staged;
  staged.reserve(static_cast<std::size_t>(ctx.task_count()) *
                 static_cast<std::size_t>(ctx.proc_count()));

  // Snapshots the active set through the governor; called from the poll
  // point. Returns true when the write was the SIGTERM path's last act.
  const auto write_checkpoint = [&]() {
    std::vector<SnapshotVertex> frontier;
    frontier.reserve(as.size());
    for (const VertexEntry& e : as.entries()) {
      held.unpack(ctx, packed_state(e.ref));
      frontier.push_back(
          SnapshotVertex{placement_path(ctx, held), e.lb, e.seq});
    }
    return gov.write_checkpoint(std::move(frontier), next_seq, stats, so);
  };

  std::uint64_t iter = 0;
  // The pool's bytes at which the cliff or the next rung may be due.
  std::size_t memory_mark = gov.memory_mark();
  // Scratch state of one expansion: the popped parent, on which each child
  // that needs a placed state is placed and unplaced in turn.
  PartialSchedule cur;

  // --- Step 3-10: main loop. ---
  try {
    while (!as.empty()) {
      // Deterministic effort caps are enforced exactly (two comparisons per
      // expansion): the service's golden tests rely on a max_generated
      // budget tripping at the same vertex on every run.
      if (gov.over_generated(stats.generated)) break;
      if (const std::size_t bytes = pool.memory_bytes(); bytes >= memory_mark) {
        if (gov.over_memory(bytes)) break;
        // Step down the degradation ladder as soon as live vertex memory
        // crosses the next high-water fraction of the budget (the pool's
        // bytes bound it from above); the rungs that void completeness
        // floor the gap certificate at the least bound still in AS.
        const std::size_t live = pool.live_count() * pool.slot_bytes();
        if (gov.ladder_due(live)) {
          gov.step_ladder(live, as.min_lb(), stats.generated, stats, so);
          branch_rule = gov.branch();
          effective_max_children = gov.max_children();
          tt = gov.table();
          if (gov.select() != effective_select) {
            effective_select = gov.select();
            as.degrade_to_lifo();
          }
        }
        memory_mark = gov.memory_mark();
      }
      // Cancellation / wall-clock polls are amortized over 256 expansions
      // so the checks (one relaxed load, one clock read) stay off the hot
      // path.
      if ((++iter & 0xFFu) == 0) {
        gov.heartbeat(stats.generated, so);
        so.flush(stats);
        // Snapshot before the cancellation checks, so a SIGTERM-driven
        // request_now() gets its state on disk before the run winds down.
        if (gov.checkpoint_due() && write_checkpoint()) break;
        if (gov.cancelled(stats.generated) ||
            gov.out_of_time(stats.generated)) {
          break;
        }
      }

      const Time threshold = prune_threshold(incumbent, params.br);

      // Step 4-5: select vertex v_b; apply the rule's stop condition. The
      // bound test doubles as deferred U/DBAS for vertices that became
      // hopeless after they were pushed.
      if (params.elim == ElimRule::kUDBAS ||
          effective_select == SelectRule::kLLB) {
        if (as.peek().lb >= threshold) {
          if (effective_select == SelectRule::kLLB) {
            // Least bound already >= incumbent: nothing can improve.
            gov.stop(TerminationReason::kBoundStop);
            break;
          }
          if (params.elim == ElimRule::kUDBAS) {
            const VertexEntry e = as.pop();
            if (params.certify) {
              held.unpack(ctx, packed_state(e.ref));
              params.certify->record_cut(
                  ctx, held, bound_cut_rule(ctx, held, params.lb, threshold),
                  e.lb);
            }
            pool.release(e.ref);
            ++stats.pruned_active;
            so.prune(FlightPruneRule::kBound, -1, e.lb);
            continue;
          }
        }
      }

      const VertexEntry entry = as.pop();
      cur.unpack(ctx, packed_state(entry.ref));
      pool.release(entry.ref);
      ++stats.expanded;
      so.expand(cur.count(), entry.lb);

      // Step 6-7: branch (rule B) and bound (function L), then F, E and
      // the table (bnb/expand.hpp). The parent is unpacked once into the
      // scratch state; survivors are packed straight into their pool slot.
      staged.clear();
      const int child_count = cur.count() + 1;
      // The first strict minimum among the goal children.
      Time best_goal = kTimeInf;
      TaskId goal_task = kNoTask;
      ProcId goal_proc = kNoProc;
      const bool truncated = expand_children(
          ctx, params, inc, cur, branch_rule, effective_max_children,
          threshold, tt, stats, so,
          [&](TaskId t, ProcId p, Time cost) {
            if (cost < best_goal) {
              best_goal = cost;
              goal_task = t;
              goal_proc = p;
            }
          },
          [&](Time lb, int order) {
            if (params.faults) params.faults->on_alloc(stats.generated);
            const SlotRef ref = pool.allocate();
            auto* v = static_cast<Vertex*>(pool.get(ref));
            v->lb = lb;
            cur.pack(ctx, v->state());
            staged.push_back(StagedChild{lb, order, ref});
          });
      if (truncated) gov.lose(entry.lb);  // MAXSZDB truncated the child set

      // Incumbent update from the cheapest goal in DB (goal vertices never
      // enter the active set). Only that goal is placed, to read its
      // schedule.
      const bool improved = best_goal < incumbent;
      if (improved) {
        inc.place(cur, goal_task, goal_proc);
        gov.offer(best_goal, cur, stats, so);
        inc.unplace(cur, goal_task);
        incumbent = best_goal;
      }

      // Step 8 applied to AS: a better incumbent invalidates queued vertices.
      if (improved && params.elim == ElimRule::kUDBAS) {
        const Time fresh = prune_threshold(incumbent, params.br);
        if (params.certify) {
          certify_releases = true;
          release_threshold = fresh;
        }
        const std::size_t removed = as.prune_worse(fresh);
        certify_releases = false;
        stats.pruned_active += removed;
        if (removed > 0) {
          so.prune(FlightPruneRule::kBound, -1,
                   static_cast<std::int64_t>(removed));
        }
        // Staged children were bounded against the stale threshold.
        std::erase_if(staged, [&](const StagedChild& c) {
          if (c.lb < fresh) return false;
          ++stats.pruned_children;
          so.prune(FlightPruneRule::kBound, child_count, c.lb);
          if (params.certify) {
            held.unpack(ctx, packed_state(c.ref));
            params.certify->record_cut(
                ctx, held, bound_cut_rule(ctx, held, params.lb, fresh), c.lb);
          }
          pool.release(c.ref);
          return true;
        });
      }

      // Step 9: move surviving children into AS, most promising popped first
      // for the stack/queue disciplines.
      if (params.sort_children && effective_select != SelectRule::kLLB) {
        std::sort(staged.begin(), staged.end(),
                  [](const StagedChild& a, const StagedChild& b) {
                    if (a.lb != b.lb) return a.lb > b.lb;
                    return a.order > b.order;
                  });
      }
      for (const StagedChild& c : staged) {
        as.push(VertexEntry{c.lb, next_seq, c.ref});
        ++next_seq;
        ++stats.activated;
      }

      // RB.MAXSZAS: dispose of the worst active vertices when over budget.
      // Drop an extra 25% of the budget so the O(|AS|) disposal scan is
      // amortized instead of firing on every subsequent expansion.
      if (as.size() > params.rb.max_active) {
        const std::size_t excess = as.size() - params.rb.max_active +
                                   params.rb.max_active / 4;
        gov.lose(as.min_lb());
        const std::size_t dropped =
            as.dispose_worst(std::min(excess, as.size() - 1));
        stats.disposed += dropped;
        so.dispose(static_cast<std::int64_t>(dropped));
      }

      stats.peak_active = std::max(stats.peak_active, as.size());
      stats.peak_memory_bytes =
          std::max(stats.peak_memory_bytes, pool.memory_bytes());
    }
  } catch (const std::bad_alloc&) {
    // Allocation failure mid-expansion (injected via Params::faults or
    // real): unwind to the last consistent state. The incumbent, stats,
    // and active set survive; the failed expansion's staged children are
    // abandoned inside the pool, which releases them wholesale on return
    // (its chunks go to the thread's recycler; no leak under ASan). The
    // outcome is the memory-budget cliff: best-so-far, not proved, gap
    // certificate voided.
    gov.stop(TerminationReason::kBudget);
    gov.lose(kTimeNegInf);
  }

  SearchResult result =
      gov.finish(stats, as.empty() ? kTimeInf : as.min_lb());
  so.flush(result.stats);  // final deltas, incl. the tt_* fields finish set
  return result;
}

}  // namespace parabb
