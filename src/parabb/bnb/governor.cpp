#include "parabb/bnb/governor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parabb/bnb/cancel.hpp"
#include "parabb/bnb/certify.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/support/assert.hpp"

namespace parabb {

namespace {

constexpr int kLadderRungs = static_cast<int>(kDegradeLadder.size());

}  // namespace

SearchGovernor::SearchGovernor(const SchedContext& ctx, const Params& params,
                               SnapshotEngine engine, int child_cap)
    : ctx_(ctx),
      params_(params),
      engine_(engine),
      ladder_on_(params.degrade &&
                 params.rb.max_memory_bytes !=
                     std::numeric_limits<std::size_t>::max()),
      branch_(params.branch),
      select_(params.select),
      max_children_(child_cap) {
  // Step 1-2: the upper-bound solution cost U. A resumed run takes the
  // snapshot's incumbent instead: it is <= whatever U would produce (the
  // original run started from the same U).
  if (params.resume == nullptr) {
    switch (params.ub) {
      case UpperBoundInit::kInfinite:
        break;
      case UpperBoundInit::kFromEDF: {
        EdfResult edf = schedule_edf(ctx);
        cost_.store(edf.max_lateness, std::memory_order_relaxed);
        best_ = std::move(edf.schedule);
        found_ = true;
        break;
      }
      case UpperBoundInit::kExplicit:
        cost_.store(params.explicit_ub, std::memory_order_relaxed);
        break;
    }
  }
  if (params.certify) {
    params.certify->begin(ctx, static_cast<int>(params.lb),
                          params.branch == BranchRule::kBFn, params.br,
                          describe(params));
  }
  // Duplicate-state detection: a child equal to a recorded state with an
  // equal-or-better bound is pruned (identical states root identical
  // subtrees).
  if (params.transposition.enabled) {
    tt_ = std::make_unique<TranspositionTable>(params.transposition);
    table_.store(tt_.get(), std::memory_order_relaxed);
  }
  // Checkpointing is gated on its Params pointers: with ckpt == resume ==
  // nullptr no snapshot code runs and the search is byte-identical to a
  // checkpoint-less build.
  if (params.ckpt != nullptr || params.resume != nullptr) {
    instance_ = instance_fingerprint(ctx, params);
  }
  if (params.resume != nullptr) resume_from(*params.resume);
}

void SearchGovernor::resume_from(const SearchSnapshot& snap) {
  PARABB_REQUIRE(snap.instance == instance_,
                 "resume snapshot was written for a different instance "
                 "or parameter set");
  cost_.store(snap.incumbent_cost, std::memory_order_relaxed);
  if (snap.found) {
    best_ = Schedule::from_entries(ctx_.task_count(), snap.incumbent);
    found_ = true;
  }
  base_ = snap.stats;
  resume_seconds_ = snap.stats.seconds;
  base_.seconds = 0.0;
  // Transposition survivors: preloading only accelerates pruning; a lost
  // entry merely re-explores a subtree, so partial restores are sound. The
  // earlier counters (exported even once the table was shed) fold in, so
  // counters() keeps accumulating across restarts, and the registry only
  // hears this run's share.
  if (tt_ && snap.tt_present) {
    const TranspositionCounters& prior = snap.tt_counters;
    tt_->add_counters(prior);
    for (const SnapshotTTEntry& e : snap.tt_entries)
      tt_->preload(replay_path(ctx_, e.path), e.lb);
    base_.tt_hits = prior.hits;
    base_.tt_misses = prior.misses;
    base_.tt_evictions = prior.evictions + prior.rejected;
    base_.tt_collisions = prior.collisions;
  }
  // The rungs the interrupted run had fired, replayed without re-counting
  // them (its stats and certificate carry them already). The instance
  // fingerprint covers Params::degrade, so only a ladder-on run gets here
  // with rungs to replay.
  const int replay = std::min(snap.degrade_level, kLadderRungs);
  for (int lvl = 0; lvl < replay; ++lvl) {
    apply_rung(kDegradeLadder[static_cast<std::size_t>(lvl)].action,
               kTimeInf);
  }
  level_.store(replay, std::memory_order_relaxed);
  if (snap.compromised) lose(snap.compromise_floor);
  // Certificate continuity: the resumed builder carries every cut of every
  // incarnation, so the final certificate audits the whole search.
  if (params_.certify && snap.cert_present) {
    params_.certify->restore_state(snap.cert_cuts, snap.cert_degrades,
                                   snap.cert_truncated);
  }
}

void SearchGovernor::offer(Time cost, const PartialSchedule& state,
                           SearchStats& stats, SearchObs& so) {
  if (cost >= this->cost()) return;
  const std::lock_guard lock(best_mutex_);
  if (cost >= this->cost()) return;  // a racing offer won
  best_ = Schedule::from_partial(ctx_, state);
  found_ = true;
  cost_.store(cost, std::memory_order_relaxed);
  ++stats.goal_updates;
  so.incumbent(ctx_.task_count(), cost);
}

bool SearchGovernor::stop(TerminationReason r) noexcept {
  TerminationReason expected = TerminationReason::kExhausted;
  reason_.compare_exchange_strong(expected, r, std::memory_order_relaxed);
  // Parallel workers park on a timed wait, so raising the flag is enough:
  // no wakeup is missed for longer than one park period.
  stop_.store(true);
  return true;
}

bool SearchGovernor::cancelled(std::uint64_t generated) noexcept {
  const bool cancel =
      (params_.cancel && params_.cancel->cancelled()) ||
      (params_.faults && params_.faults->cancel_requested(generated));
  return cancel && stop(TerminationReason::kCancelled);
}

bool SearchGovernor::out_of_time(std::uint64_t generated) noexcept {
  double seconds = elapsed();
  if (params_.faults) seconds += params_.faults->clock_skew_s(generated);
  return seconds >= params_.rb.time_limit_s &&
         stop(TerminationReason::kTimeLimit);
}

void SearchGovernor::heartbeat(std::uint64_t generated,
                               SearchObs& so) const {
  so.budget_checkpoint(static_cast<std::int64_t>(generated));
  if (params_.progress) {
    params_.progress->store(generated, std::memory_order_relaxed);
  }
  if (params_.faults) params_.faults->at_poll(generated);
}

bool SearchGovernor::ladder_due(std::size_t used_bytes) const noexcept {
  if (!ladder_on_) return false;
  const int level = level_.load(std::memory_order_relaxed);
  return level < kLadderRungs &&
         degrade_target_level(used_bytes, params_.rb.max_memory_bytes) > level;
}

std::size_t SearchGovernor::memory_mark() const noexcept {
  const std::size_t budget = params_.rb.max_memory_bytes;
  const int level = level_.load(std::memory_order_relaxed);
  if (!ladder_on_ || level >= kLadderRungs) return budget;
  // One byte under the rung's fraction of the budget, so rounding can only
  // make the mark early, never late.
  const double mark =
      std::floor(kDegradeLadder[static_cast<std::size_t>(level)].frac *
                 static_cast<double>(budget));
  return std::min(budget,
                  mark < 1.0 ? std::size_t{0}
                             : static_cast<std::size_t>(mark) - 1);
}

void SearchGovernor::step_ladder(std::size_t used_bytes, Time floor,
                                 std::uint64_t generated, SearchStats& stats,
                                 SearchObs& so) {
  if (!ladder_on_) return;
  const int target =
      degrade_target_level(used_bytes, params_.rb.max_memory_bytes);
  int cur = level_.load(std::memory_order_relaxed);
  while (cur < target) {
    // Each rung fires once: the caller whose exchange claims it applies
    // and accounts it; a loser retries with the reloaded level.
    if (!level_.compare_exchange_strong(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      continue;
    }
    const DegradeAction action =
        kDegradeLadder[static_cast<std::size_t>(cur)].action;
    apply_rung(action, floor);
    ++cur;
    ++stats.degrade_steps;
    so.degrade(cur, static_cast<std::int64_t>(action));
    if (params_.certify) {
      params_.certify->record_degrade(to_string(action), generated, cur);
    }
  }
}

void SearchGovernor::apply_rung(DegradeAction action, Time floor) {
  // Branch-rule and MAXSZDB rungs make the search incomplete from here
  // on, so they lose the tree below the caller's frontier the way a
  // disposal does: every subtree lost downstream roots at a vertex whose
  // bound is >= `floor`.
  switch (action) {
    case DegradeAction::kShedTT:
      // Duplicate pruning only: completeness is kept. A parallel prober
      // may still hold the pointer, so the table object lives on with its
      // counters and frees only its slots.
      if (TranspositionTable* const t =
              table_.exchange(nullptr, std::memory_order_relaxed)) {
        t->release();
      }
      break;
    case DegradeAction::kTightenDB:
      max_children_.store(
          std::min(max_children_.load(std::memory_order_relaxed),
                   tightened_child_cap(ctx_.proc_count())),
          std::memory_order_relaxed);
      lose(floor);
      break;
    case DegradeAction::kBF1: {
      BranchRule expected = BranchRule::kBFn;
      branch_.compare_exchange_strong(expected, BranchRule::kBF1,
                                      std::memory_order_relaxed);
      lose(floor);
      break;
    }
    case DegradeAction::kDF:
      // Last resort before the cliff: a depth-first dive — branching and
      // selection — so the remaining memory buys a leaf (an incumbent)
      // instead of more frontier.
      branch_.store(BranchRule::kDF, std::memory_order_relaxed);
      select_.store(SelectRule::kLIFO, std::memory_order_relaxed);
      lose(floor);
      break;
  }
}

void SearchGovernor::lose(Time floor) noexcept {
  incomplete_.store(true, std::memory_order_relaxed);
  Time cur = floor_.load(std::memory_order_relaxed);
  while (floor < cur && !floor_.compare_exchange_weak(
                            cur, floor, std::memory_order_relaxed)) {
  }
}

bool SearchGovernor::checkpoint_due() const noexcept {
  return params_.ckpt != nullptr && params_.ckpt->due();
}

bool SearchGovernor::write_checkpoint(std::vector<SnapshotVertex> frontier,
                                      std::uint32_t next_seq,
                                      const SearchStats& stats,
                                      SearchObs& so) {
  SearchSnapshot snap;
  snap.instance = instance_;
  snap.engine = engine_;
  {
    const std::lock_guard lock(best_mutex_);
    snap.found = found_;
    snap.incumbent_cost = cost();
    if (found_) {
      snap.incumbent.reserve(static_cast<std::size_t>(ctx_.task_count()));
      for (TaskId t = 0; t < ctx_.task_count(); ++t)
        snap.incumbent.push_back(best_.entry(t));
    }
  }
  snap.frontier = std::move(frontier);
  snap.next_seq = next_seq;
  snap.stats = stats;
  snap.stats.seconds = elapsed();
  snap.degrade_level = level_.load(std::memory_order_relaxed);
  snap.compromised = incomplete();
  snap.compromise_floor = lost_floor();
  // The table's counters are this run's only record of its probes, so a
  // shed table is exported too: with its counters and no entries.
  if (tt_) {
    snap.tt_present = true;
    snap.tt_counters = tt_->counters();
    tt_->for_each_entry([&](const PartialSchedule& s, Time lb) {
      if (snap.tt_entries.size() < kSnapshotTTCap) {
        snap.tt_entries.push_back(SnapshotTTEntry{placement_path(ctx_, s), lb});
      }
    });
  }
  if (params_.certify) {
    snap.cert_present = true;
    params_.certify->export_state(snap.cert_cuts, snap.cert_degrades,
                                  snap.cert_truncated);
    if (snap.cert_cuts.size() > kSnapshotCutCap) {
      snap.cert_cuts.resize(kSnapshotCutCap);
      snap.cert_truncated = true;
    }
  }
  // The search matters more than the snapshot: a failed write is recorded
  // and survived.
  try {
    const std::size_t bytes = save_snapshot(params_.ckpt->path(), snap);
    params_.ckpt->note_written(bytes);
    so.checkpoint_written(static_cast<std::int64_t>(bytes));
  } catch (const SnapshotError&) {
    params_.ckpt->note_failed();
  }
  // A SIGTERM-driven request_now(stop_after) winds the search down only
  // once its state reached the disk.
  return params_.ckpt->stop_requested() &&
         stop(TerminationReason::kCancelled);
}

SearchResult SearchGovernor::finish(const SearchStats& stats,
                                    Time open_floor) {
  SearchResult r;
  r.stats = stats;
  if (tt_) {
    const TranspositionCounters tc = tt_->counters();
    r.stats.tt_hits = tc.hits;
    r.stats.tt_misses = tc.misses;
    r.stats.tt_evictions = tc.evictions + tc.rejected;
    r.stats.tt_collisions = tc.collisions;
  }
  r.stats.seconds = elapsed();
  r.reason = reason();
  {
    const std::lock_guard lock(best_mutex_);
    r.found_solution = found_;
    r.best = std::move(best_);
  }
  r.best_cost = cost();
  r.compromised = incomplete();
  r.proved = r.found_solution && !r.compromised &&
             !is_interrupted(r.reason) && params_.branch == BranchRule::kBFn;
  if (params_.certify) {
    params_.certify->finish(r.found_solution, r.best, r.best_cost, r.proved,
                            r.stats.expanded, r.stats.generated);
  }
  // Optimality-gap certificate (see SearchResult::certified_lower_bound).
  // F may prune vertices whose completions are cheap-but-invalid, so a
  // characteristic function voids the certificate.
  if (params_.branch == BranchRule::kBFn && !params_.characteristic) {
    const Time floor = std::min(
        {prune_threshold(r.best_cost, params_.br), open_floor, lost_floor()});
    r.certified_lower_bound = std::min(floor, r.best_cost);
  }
  return r;
}

}  // namespace parabb
