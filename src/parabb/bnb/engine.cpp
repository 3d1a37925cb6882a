#include "parabb/bnb/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/cancel.hpp"
#include "parabb/bnb/certify.hpp"
#include "parabb/bnb/expand.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/bnb/vertex.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/support/pool.hpp"
#include "parabb/support/timer.hpp"

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

  Stopwatch watch;
  SearchResult result;
  SearchStats& stats = result.stats;
  SearchObs so;
  so.bind(params.observe, /*channel=*/0);

  // --- Step 1-2: initialize with the upper-bound solution cost U. ---
  // A resumed run takes its incumbent from the snapshot instead: the
  // snapshot's cost is <= whatever U would produce (the original run
  // started from the same U), and re-deriving it here would discard
  // incumbent improvements the interrupted run already paid for.
  Time incumbent = kTimeInf;
  if (params.resume == nullptr) {
    switch (params.ub) {
      case UpperBoundInit::kInfinite:
        break;
      case UpperBoundInit::kFromEDF: {
        const EdfResult edf = schedule_edf(ctx);
        incumbent = edf.max_lateness;
        result.best = edf.schedule;
        result.found_solution = true;
        break;
      }
      case UpperBoundInit::kExplicit:
        incumbent = params.explicit_ub;
        break;
    }
  }

  if (params.certify) {
    params.certify->begin(ctx, static_cast<int>(params.lb),
                          params.branch == BranchRule::kBFn, params.br,
                          describe(params));
  }

  // Duplicate-state detection: every state that enters the search is
  // recorded; a child equal to a recorded state with an equal-or-better
  // bound is pruned (identical states root identical subtrees).
  std::unique_ptr<TranspositionTable> tt;
  if (params.transposition.enabled) {
    tt = std::make_unique<TranspositionTable>(params.transposition);
  }
  // Counters rescued when the degradation ladder sheds the table mid-run.
  bool tt_shed = false;
  TranspositionCounters tt_shed_counters{};

  // Unbudgeted runs allocate in large chunks for throughput. A finite
  // memory budget shrinks the granularity to ~1/64 of the budget (floor
  // 64 slots) so the capacity cliff below and the degradation ladder see
  // the budget at fine resolution instead of overshooting it by a whole
  // 8192-slot chunk — a sub-chunk budget would otherwise trip the cliff
  // on the very first allocation. Every compact-layout solve thus gets
  // the same 1 MiB default chunks, which the thread's recycler shares.
  const std::size_t slot_bytes = vertex_bytes(ctx);
  std::size_t slots_per_chunk = 8192;
  if (params.rb.max_memory_bytes != std::numeric_limits<std::size_t>::max()) {
    const std::size_t budget_slots = params.rb.max_memory_bytes / slot_bytes;
    slots_per_chunk = std::clamp<std::size_t>(budget_slots / 64, 64, 8192);
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
  ActiveSet as(params.select, release, params.llb_tie_newest);

  std::uint32_t next_seq = 0;

  // Root vertex: the empty schedule (does not count as an activated child).
  // A resumed run pushes the snapshot's frontier below instead.
  if (params.resume == nullptr) {
    const SlotRef ref = pool.allocate();
    auto* v = static_cast<Vertex*>(pool.get(ref));
    const PartialSchedule root = PartialSchedule::empty(ctx);
    v->lb = lower_bound_cost(ctx, root, params.lb);
    root.pack(ctx, v->state());
    as.push(VertexEntry{v->lb, next_seq, ref});
    ++next_seq;
  }

  IncrementalLB inc(ctx);

  // Graceful-degradation ladder (robust/degrade.hpp): consulted only at
  // the amortized poll point, and only when enabled with a finite memory
  // budget; otherwise `branch_rule` / `effective_max_children` hold the
  // caller's values for the whole run (byte-identical to pre-ladder).
  const DegradeSchedule degrade_sched = DegradeSchedule::from(params.degrade);
  const bool ladder_on =
      degrade_sched.count > 0 &&
      params.rb.max_memory_bytes != std::numeric_limits<std::size_t>::max();
  int degrade_level = 0;
  BranchRule branch_rule = params.branch;
  SelectRule effective_select = params.select;
  int effective_max_children = params.rb.max_children;

  bool compromised = false;  // an RB storage bound forced vertex disposal
  // Least bound of any vertex lost to a storage bound; with the monotone
  // bounds of this problem, every pruned subtree's cost is >= its root's
  // bound, so this floors the optimality-gap certificate.
  Time compromise_floor = kTimeInf;
  std::vector<StagedChild> staged;
  staged.reserve(static_cast<std::size_t>(ctx.task_count()) *
                 static_cast<std::size_t>(ctx.proc_count()));
  // The D filter's per-expansion storage: the staged children unpacked,
  // and which of them a sibling dominates.
  std::vector<PartialSchedule> siblings;
  std::vector<char> dead;
  if (params.dominance) {
    siblings.reserve(staged.capacity());
    dead.reserve(staged.capacity());
  }

  // --- Crash-safe checkpoint/resume (ckpt/snapshot.hpp). Both paths are
  // gated on their Params pointer: with ckpt == resume == nullptr nothing
  // below this comment executes and the run is byte-identical to a
  // checkpoint-less build.
  const std::uint64_t instance_fp =
      (params.ckpt != nullptr || params.resume != nullptr)
          ? instance_fingerprint(ctx, params)
          : 0;
  double resume_seconds = 0.0;  // wall time earlier incarnations spent

  if (params.resume != nullptr) {
    const SearchSnapshot& snap = *params.resume;
    PARABB_REQUIRE(snap.instance == instance_fp,
                   "resume snapshot was written for a different instance "
                   "or parameter set");
    // Incumbent and accumulated accounting.
    incumbent = snap.incumbent_cost;
    if (snap.found) {
      result.best = Schedule::from_entries(ctx.task_count(), snap.incumbent);
      result.found_solution = true;
    }
    stats = snap.stats;
    resume_seconds = snap.stats.seconds;
    stats.seconds = 0.0;
    so.seed(stats);  // registry deltas cover this incarnation only
    // Replay the degradation rungs the interrupted run had already fired,
    // without re-counting them (stats/certificate carry them already).
    for (int lvl = 0; lvl < snap.degrade_level && lvl < degrade_sched.count;
         ++lvl) {
      switch (degrade_sched.rungs[static_cast<std::size_t>(lvl)].action) {
        case DegradeAction::kShedTT:
          if (tt) {
            tt.reset();
            tt_shed = true;
            tt_shed_counters.hits = snap.stats.tt_hits;
            tt_shed_counters.misses = snap.stats.tt_misses;
            tt_shed_counters.evictions = snap.stats.tt_evictions;
            tt_shed_counters.collisions = snap.stats.tt_collisions;
          }
          break;
        case DegradeAction::kTightenDB:
          effective_max_children = std::min(
              effective_max_children,
              std::max(1, ctx.proc_count() *
                              params.degrade.tightened_children_per_proc));
          break;
        case DegradeAction::kBF1:
          if (branch_rule == BranchRule::kBFn) branch_rule = BranchRule::kBF1;
          break;
        case DegradeAction::kDF:
          branch_rule = BranchRule::kDF;
          effective_select = SelectRule::kLIFO;
          as.degrade_to_lifo();
          break;
      }
    }
    degrade_level = snap.degrade_level;
    compromised = snap.compromised;
    compromise_floor = snap.compromise_floor;
    // Transposition survivors: preloading only accelerates pruning; a
    // lost entry merely re-explores a subtree, so partial restores are
    // sound. The snapshot's counters fold in so counters() (and the
    // final stats.tt_*) keep accumulating across restarts.
    if (tt && snap.tt_present) {
      tt->add_counters(snap.tt_counters);
      for (const SnapshotTTEntry& e : snap.tt_entries)
        tt->preload(replay_path(ctx, e.path), e.lb);
    }
    // Certificate continuity: the resumed builder carries every cut of
    // every incarnation, so the final certificate audits the whole search.
    if (params.certify && snap.cert_present) {
      params.certify->restore_state(snap.cert_cuts, snap.cert_degrades,
                                    snap.cert_truncated);
    }
    // The frontier, replayed through the scheduling operation and pushed
    // in container order (exact reconstruction for LIFO/FIFO; a valid
    // re-heapification for LLB).
    for (const SnapshotVertex& sv : snap.frontier) {
      const SlotRef ref = pool.allocate();
      auto* v = static_cast<Vertex*>(pool.get(ref));
      replay_path(ctx, sv.path).pack(ctx, v->state());
      v->lb = static_cast<Time>(sv.lb);
      as.push(VertexEntry{v->lb, sv.seq, ref});
    }
    next_seq = snap.next_seq;
    so.checkpoint_restored(static_cast<std::int64_t>(snap.frontier.size()));
  }

  // Serializes the complete live state and writes it atomically to
  // params.ckpt->path(). Called from the poll point; a failed write is
  // recorded and survived (the search matters more than the snapshot).
  const auto write_checkpoint = [&]() {
    SearchSnapshot snap;
    snap.instance = instance_fp;
    snap.engine = SnapshotEngine::kSequential;
    snap.found = result.found_solution;
    snap.incumbent_cost = incumbent;
    if (result.found_solution) {
      snap.incumbent.reserve(static_cast<std::size_t>(ctx.task_count()));
      for (TaskId t = 0; t < ctx.task_count(); ++t)
        snap.incumbent.push_back(result.best.entry(t));
    }
    snap.frontier.reserve(as.size());
    for (const VertexEntry& e : as.entries()) {
      held.unpack(ctx, packed_state(e.ref));
      snap.frontier.push_back(
          SnapshotVertex{placement_path(ctx, held), e.lb, e.seq});
    }
    snap.next_seq = next_seq;
    snap.stats = stats;
    snap.stats.seconds = resume_seconds + watch.seconds();
    snap.degrade_level = degrade_level;
    snap.compromised = compromised;
    snap.compromise_floor = compromise_floor;
    if (tt) {
      snap.tt_present = true;
      snap.tt_counters = tt->counters();
      tt->for_each_entry([&](const PartialSchedule& s, Time lb) {
        if (snap.tt_entries.size() < kSnapshotTTCap) {
          snap.tt_entries.push_back(
              SnapshotTTEntry{placement_path(ctx, s), lb});
        }
      });
    }
    if (params.certify) {
      snap.cert_present = true;
      params.certify->export_state(snap.cert_cuts, snap.cert_degrades,
                                   snap.cert_truncated);
      if (snap.cert_cuts.size() > kSnapshotCutCap) {
        snap.cert_cuts.resize(kSnapshotCutCap);
        snap.cert_truncated = true;
      }
    }
    try {
      const std::size_t bytes = save_snapshot(params.ckpt->path(), snap);
      params.ckpt->note_written(bytes);
      so.checkpoint_written(static_cast<std::int64_t>(bytes));
    } catch (const SnapshotError&) {
      params.ckpt->note_failed();
    }
  };

  std::uint64_t iter = 0;
  result.reason = TerminationReason::kExhausted;
  // Scratch state of one expansion: the popped parent, on which each child
  // that needs a placed state is placed and unplaced in turn.
  PartialSchedule cur;

  // --- Step 3-10: main loop. ---
  try {
    while (!as.empty()) {
      // Deterministic effort caps are enforced exactly (two comparisons per
      // expansion): the service's golden tests rely on a max_generated
      // budget tripping at the same vertex on every run.
      if (stats.generated >= params.rb.max_generated ||
          pool.memory_bytes() >= params.rb.max_memory_bytes) {
        result.reason = TerminationReason::kBudget;
        break;
      }
      // Cancellation / wall-clock polls are amortized over 256 expansions
      // so the checks (one relaxed load, one clock read) stay off the hot
      // path.
      if ((++iter & 0xFFu) == 0) {
        so.budget_checkpoint(static_cast<std::int64_t>(stats.generated));
        so.flush(stats);
        if (params.progress) {
          params.progress->store(stats.generated, std::memory_order_relaxed);
        }
        // Snapshot before the cancellation checks, so a SIGTERM-driven
        // request_now() gets its state on disk before the run winds down.
        if (params.ckpt && params.ckpt->due()) {
          write_checkpoint();
          if (params.ckpt->stop_requested()) {
            result.reason = TerminationReason::kCancelled;
            break;
          }
        }
        if (params.faults) {
          params.faults->at_poll(stats.generated);
          if (params.faults->cancel_requested(stats.generated)) {
            result.reason = TerminationReason::kCancelled;
            break;
          }
        }
        if (params.cancel && params.cancel->cancelled()) {
          result.reason = TerminationReason::kCancelled;
          break;
        }
        double elapsed = resume_seconds + watch.seconds();
        if (params.faults) elapsed += params.faults->clock_skew_s(stats.generated);
        if (elapsed > params.rb.time_limit_s) {
          result.reason = TerminationReason::kTimeLimit;
          break;
        }
        // Step down the degradation ladder while live vertex memory sits
        // above the next high-water fraction of the budget. Branch-rule and
        // MAXSZDB rungs make the search incomplete from here on, so they
        // compromise the proof and floor the gap certificate like a disposal
        // does: every subtree lost downstream roots at a current AS vertex
        // (or a descendant), whose bound is >= the AS minimum now.
        while (ladder_on && degrade_level < degrade_sched.count &&
               degrade_sched.target_level(pool.live_count() * pool.slot_bytes(),
                                          params.rb.max_memory_bytes) >
                   degrade_level) {
          const DegradeAction action =
              degrade_sched.rungs[static_cast<std::size_t>(degrade_level)]
                  .action;
          ++degrade_level;
          switch (action) {
            case DegradeAction::kShedTT:
              if (tt) {
                const TranspositionCounters tc = tt->counters();
                tt_shed_counters = tc;
                tt_shed = true;
                tt.reset();  // duplicate pruning only: completeness kept
              }
              break;
            case DegradeAction::kTightenDB:
              effective_max_children =
                  std::min(effective_max_children,
                           std::max(1, ctx.proc_count() *
                                           params.degrade
                                               .tightened_children_per_proc));
              compromised = true;
              if (!as.empty()) {
                compromise_floor = std::min(compromise_floor, as.min_lb());
              }
              break;
            case DegradeAction::kBF1:
              if (branch_rule == BranchRule::kBFn) branch_rule = BranchRule::kBF1;
              compromised = true;
              if (!as.empty()) {
                compromise_floor = std::min(compromise_floor, as.min_lb());
              }
              break;
            case DegradeAction::kDF:
              // Last resort before the cliff: degenerate into a
              // depth-first dive — branching *and* selection — so the
              // remaining memory buys a leaf (an incumbent) instead of
              // more frontier.
              branch_rule = BranchRule::kDF;
              effective_select = SelectRule::kLIFO;
              as.degrade_to_lifo();
              compromised = true;
              if (!as.empty()) {
                compromise_floor = std::min(compromise_floor, as.min_lb());
              }
              break;
          }
          ++stats.degrade_steps;
          so.degrade(degrade_level, static_cast<std::int64_t>(action));
          if (params.certify) {
            params.certify->record_degrade(to_string(action), stats.generated,
                                           degrade_level);
          }
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
            result.reason = TerminationReason::kBoundStop;
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
          threshold, tt.get(), stats, so,
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
      if (truncated) {
        compromised = true;  // MAXSZDB truncated the child set
        compromise_floor = std::min(compromise_floor, entry.lb);
      }

      // Incumbent update from the cheapest goal in DB (goal vertices never
      // enter the active set). Only that goal is placed, to read its
      // schedule.
      bool improved = false;
      if (best_goal < incumbent) {
        incumbent = best_goal;
        inc.place(cur, goal_task, goal_proc);
        result.best = Schedule::from_partial(ctx, cur);
        inc.unplace(cur, goal_task);
        result.found_solution = true;
        ++stats.goal_updates;
        improved = true;
        so.incumbent(ctx.task_count(), incumbent);
      }

      // D: optional pairwise dominance filter among siblings.
      if (params.dominance && staged.size() > 1) {
        siblings.resize(staged.size());
        for (std::size_t i = 0; i < staged.size(); ++i) {
          siblings[i].unpack(ctx, packed_state(staged[i].ref));
        }
        dead.assign(staged.size(), 0);
        for (std::size_t i = 0; i < staged.size(); ++i) {
          if (dead[i]) continue;
          for (std::size_t j = 0; j < staged.size(); ++j) {
            if (i == j || dead[j]) continue;
            if (params.dominance(ctx, siblings[i], siblings[j])) dead[j] = 1;
          }
        }
        std::size_t w = 0;
        for (std::size_t i = 0; i < staged.size(); ++i) {
          if (!dead[i]) {
            staged[w++] = staged[i];
          } else {
            ++stats.pruned_children;
            so.prune(FlightPruneRule::kDominance, child_count, staged[i].lb);
            if (params.certify) {
              params.certify->record_cut(ctx, siblings[i],
                                         CutRule::kDominance, staged[i].lb);
            }
            pool.release(staged[i].ref);
          }
        }
        staged.resize(w);
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
        compromise_floor = std::min(compromise_floor, as.min_lb());
        const std::size_t dropped =
            as.dispose_worst(std::min(excess, as.size() - 1));
        stats.disposed += dropped;
        so.dispose(static_cast<std::int64_t>(dropped));
        compromised = true;
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
    result.reason = TerminationReason::kBudget;
    compromised = true;
    compromise_floor = kTimeNegInf;
  }

  result.best_cost = incumbent;
  result.proved = result.found_solution && !compromised &&
                  !is_interrupted(result.reason) &&
                  params.branch == BranchRule::kBFn;
  if (params.certify) {
    params.certify->finish(result.found_solution, result.best,
                           result.best_cost, result.proved, stats.expanded,
                           stats.generated);
  }

  // Optimality-gap certificate (see SearchResult::certified_lower_bound).
  // F may prune vertices whose completions are cheap-but-invalid, so a
  // characteristic function voids the certificate.
  if (params.branch == BranchRule::kBFn && !params.characteristic) {
    Time floor = prune_threshold(incumbent, params.br);
    if (!as.empty()) floor = std::min(floor, as.min_lb());
    floor = std::min(floor, compromise_floor);
    result.certified_lower_bound = std::min(floor, incumbent);
  }
  if (tt || tt_shed) {
    const TranspositionCounters tc = tt ? tt->counters() : tt_shed_counters;
    stats.tt_hits = tc.hits;
    stats.tt_misses = tc.misses;
    stats.tt_evictions = tc.evictions + tc.rejected;
    stats.tt_collisions = tc.collisions;
  }
  stats.seconds = resume_seconds + watch.seconds();
  so.flush(stats);  // final deltas, incl. the tt_* fields set just above
  return result;
}

}  // namespace parabb
