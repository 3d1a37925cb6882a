#include "parabb/bnb/parallel_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "parabb/bnb/certify.hpp"
#include "parabb/bnb/expand.hpp"
#include "parabb/bnb/governor.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/robust/fault.hpp"
#include "parabb/support/assert.hpp"
#include "parabb/support/ws_deque.hpp"

namespace parabb {
namespace {

struct WorkItem {
  PartialSchedule state;
  Time lb = 0;
};

/// Shared search state. The incumbent, stop reasons, the ladder and the
/// table live in the governor (bnb/governor.hpp), whose atomic view every
/// worker loads per expansion, so the bound test never takes a lock.
struct Shared {
  const SchedContext& ctx;
  const Params& params;
  SearchGovernor& gov;

  /// Generated vertices across all workers, for RB.max_generated. One
  /// relaxed add per expansion (batched), invisible next to expansion cost
  /// only on a cache line of its own: every worker reads the references
  /// above as often, and sharing their line cut perfbench solve_par's
  /// two-worker speedup from 1.33 to 1.06 (EXPERIMENTS.md, "One
  /// incumbent, one result").
  alignas(64) std::atomic<std::uint64_t> generated{0};

  /// Per-worker resident bytes, published at the flush cadence; their sum
  /// is what the ladder and the memory cliff compare against
  /// rb.max_memory_bytes.
  std::vector<std::atomic<std::size_t>> worker_bytes;

  // --- crash-safe checkpoint quiesce (ckpt/snapshot.hpp) ----------------
  // The supervisor bumps `ckpt_epoch`; every worker, at its amortized poll
  // point (or while foraging), copies its own deque contents plus the
  // in-hand vertex into its dump slot, publishes a stats copy, and then
  // *pauses* until the supervisor finishes serializing. The pause is what
  // makes the frontier complete: once a worker has dumped, it neither
  // consumes nor produces vertices until the release, so every vertex
  // live at serialize time is in some dump slot — a steal landing after
  // the victim's dump merely
  // duplicates an already-captured entry, which resume re-explores
  // harmlessly. `ckpt_alive` counts workers that have not exited, so a
  // worker leaving mid-quiesce (search exhausted or stopped) cannot hang
  // the supervisor; its slot keeps the previous epoch tag and is skipped.
  // With params.ckpt == nullptr none of this state is touched.
  struct CkptDump {
    std::uint64_t epoch = 0;  ///< epoch this slot was written for
    std::vector<WorkItem> items;
    SearchStats stats;
  };
  std::atomic<std::uint64_t> ckpt_epoch{0};
  std::atomic<std::uint64_t> ckpt_released{0};
  std::atomic<int> ckpt_arrived{0};
  std::atomic<int> ckpt_alive{0};
  std::vector<CkptDump> ckpt_dumps;

  /// Blocks the calling worker until the supervisor releases `epoch` (or
  /// the search stops). Callers must hold no locks.
  void ckpt_pause(std::uint64_t epoch) {
    while (ckpt_released.load(std::memory_order_acquire) < epoch &&
           !gov.stopped()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Worker-side arrival: publishes this worker's dump slot (items were
  /// already filled by the caller), joins the barrier, and sits out the
  /// serialize. At most once per epoch per worker.
  void ckpt_arrive_and_pause(std::size_t self, std::uint64_t epoch,
                             const SearchStats& worker_stats) {
    ckpt_dumps[self].stats = worker_stats;
    ckpt_dumps[self].epoch = epoch;
    ckpt_arrived.fetch_add(1, std::memory_order_release);
    ckpt_pause(epoch);
  }

  Shared(const SchedContext& c, const Params& p, SearchGovernor& g,
         int threads)
      : ctx(c),
        params(p),
        gov(g),
        worker_bytes(static_cast<std::size_t>(threads)) {}

  /// Memory poll (flush cadence): publish this worker's resident bytes,
  /// step the ladder while the cross-worker total sits above the next
  /// rung, and stop at the budget cliff. With the ladder on, every rung
  /// has fired by the time the total reaches the cap (all rung fractions
  /// lie in (0, 1]).
  void poll_memory(std::size_t worker, std::size_t used_bytes,
                   SearchStats& stats, SearchObs& so) {
    worker_bytes[worker].store(used_bytes, std::memory_order_relaxed);
    std::size_t total = 0;
    for (const std::atomic<std::size_t>& b : worker_bytes) {
      total += b.load(std::memory_order_relaxed);
    }
    // No least bound is tracked across the deques, so a rung that voids
    // completeness voids the gap as well.
    gov.step_ladder(total, kTimeNegInf,
                    generated.load(std::memory_order_relaxed), stats, so);
    gov.over_memory(total);
  }

  Time threshold() const { return prune_threshold(gov.cost(), params.br); }

  /// The per-vertex stop poll: a raised stop, cancellation, or the
  /// generated budget.
  bool should_stop() {
    if (gov.stopped()) return true;
    const std::uint64_t gen = generated.load(std::memory_order_relaxed);
    return gov.cancelled(gen) || gov.over_generated(gen);
  }
};

/// One vertex expansion through the shared child loop (bnb/expand.hpp),
/// for the workers and the seeding phase. `scratch` holds the parent's
/// state and reads as the parent again on a normal return. A goal that
/// beats the incumbent is placed and offered; each surviving child is
/// handed to `emit(state, lb)` in generation order (callers order them
/// afterwards) and decides where it gets copied.
template <typename Emit>
void expand(Shared& sh, IncrementalLB& inc, PartialSchedule& scratch,
            Time lb, SearchStats& stats, SearchObs& so, Emit&& emit) {
  ++stats.expanded;
  so.expand(scratch.count(), lb);
  const std::uint64_t generated_before = stats.generated;
  // MAXSZDB, or the kTightenDB rung, truncates the child set: the tree
  // below the parent is no longer covered, so the search is incomplete
  // from its bound on.
  const bool truncated = expand_children(
      sh.ctx, sh.params, inc, scratch, sh.gov.branch(), sh.gov.max_children(),
      sh.threshold(), sh.gov.table(), stats, so,
      [&](TaskId t, ProcId p, Time cost) {
        // offer's own first test: only a goal that beats the incumbent is
        // placed and offered.
        if (cost < sh.gov.cost()) {
          inc.place(scratch, t, p);
          sh.gov.offer(cost, scratch, stats, so);
          inc.unplace(scratch, t);
        }
      },
      [&](Time child_lb, int order) {
        if (sh.params.faults) {
          sh.params.faults->on_alloc(
              sh.generated.load(std::memory_order_relaxed) +
              static_cast<std::uint64_t>(order));
        }
        emit(scratch, child_lb);
        ++stats.activated;
      });
  if (truncated) sh.gov.lose(lb);
  if (const std::uint64_t n = stats.generated - generated_before; n > 0) {
    sh.generated.fetch_add(n, std::memory_order_relaxed);
  }
}

/// One search-tree vertex. Lives in a per-worker NodeSlab; the deques store
/// pointers, so a steal moves 8 bytes instead of a ~250-byte state copy.
/// `next_free` threads a slab freelist while the node is dead.
struct WsNode {
  PartialSchedule state;
  Time lb = 0;
  WsNode* next_free = nullptr;
};

/// Per-worker slab allocator: nodes come from chunked arrays, dead nodes go
/// on a freelist. Strictly single-threaded — only the owning worker
/// allocates from or releases into it. A *stolen* node is released into the
/// thief's slab, which is safe because the node's chunk belongs to the
/// allocating slab and every slab outlives every worker (they are owned by
/// WsControl, destroyed after the joins). No lock anywhere on the
/// allocation path.
class NodeSlab {
 public:
  WsNode* alloc() {
    if (free_list_ != nullptr) {
      WsNode* const n = free_list_;
      free_list_ = n->next_free;
      return n;
    }
    if (next_ == kChunkNodes) {
      chunks_.push_back(std::make_unique<WsNode[]>(kChunkNodes));
      next_ = 0;
    }
    return &chunks_.back()[next_++];
  }

  void release(WsNode* n) noexcept {
    n->next_free = free_list_;
    free_list_ = n;
  }

  /// Bytes resident in this slab's chunks (freelisted nodes included; a
  /// node released cross-slab is counted by its allocating slab).
  std::size_t memory_bytes() const noexcept {
    return chunks_.size() * kChunkNodes * sizeof(WsNode);
  }

 private:
  static constexpr std::size_t kChunkNodes = 128;
  std::vector<std::unique_ptr<WsNode[]>> chunks_;
  std::size_t next_ = kChunkNodes;  ///< next unused slot in chunks_.back()
  WsNode* free_list_ = nullptr;
};

/// Shared work-stealing scheduler state: one deque + one slab per worker,
/// the idle/termination counter, and the park bench for starved workers.
struct WsControl {
  explicit WsControl(int threads) {
    deques.reserve(static_cast<std::size_t>(threads));
    slabs.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      deques.push_back(std::make_unique<WsDeque<WsNode*>>());
      slabs.push_back(std::make_unique<NodeSlab>());
    }
  }

  std::vector<std::unique_ptr<WsDeque<WsNode*>>> deques;
  std::vector<std::unique_ptr<NodeSlab>> slabs;

  /// Workers currently holding no vertex. The termination protocol's only
  /// invariant: a worker counted here never holds work — it decrements
  /// BEFORE attempting a steal and re-increments only after the whole
  /// sweep failed.
  alignas(64) std::atomic<int> idle{0};
  std::atomic<bool> done{false};  ///< search exhausted (terminal)

  /// Starved workers park here on a *timed* wait, so a missed notify (the
  /// wakers deliberately notify without holding the mutex) costs at most
  /// one park period, not a hang.
  std::mutex park_mutex;
  std::condition_variable park_cv;
};

/// Work-stealing worker. Dives depth-first on its own deque (owner LIFO);
/// when dry, steals a batch from the top of a random victim (thief FIFO —
/// the shallowest vertices, whose subtrees amortize the steal best).
///
/// Termination: `ctl.idle` counts workers holding no vertex. A worker may
/// declare `done` only after (1) reading every deque empty, (2) a seq_cst
/// fence, (3) reading idle == threads, and (4) re-reading every deque
/// empty. Any vertex still alive is either in a deque — contradicting (1)
/// or (4), since an owner only goes idle with its own deque drained — or in
/// the hands of a worker that decremented `idle` before claiming it —
/// contradicting (3). See docs/algorithm.md for the full argument.
void ws_worker_loop(Shared& sh, WsControl& ctl, const std::size_t self,
                    SearchStats& stats, SearchObs& so) {
  WsDeque<WsNode*>& mine = *ctl.deques[self];
  NodeSlab& slab = *ctl.slabs[self];
  const std::size_t nworkers = ctl.deques.size();
  IncrementalLB inc(sh.ctx);  // private scratch: no shared mutable state
  std::vector<WsNode*> staged;  // children of the current expansion
  std::vector<WsNode*> loot;    // steal batch buffer
  std::minstd_rand rng(static_cast<std::minstd_rand::result_type>(
      self * 2654435761u + 1));
  std::uint64_t iter = 0;
  std::uint64_t ckpt_seen = 0;  // last checkpoint epoch this worker joined

  const auto pop_own = [&]() -> WsNode* {
    WsNode* n = nullptr;
    return mine.pop_bottom(n) ? n : nullptr;
  };
  const auto finish = [&] {
    if (sh.params.ckpt != nullptr) {
      sh.ckpt_alive.fetch_sub(1, std::memory_order_relaxed);
    }
    stats.peak_memory_bytes = std::max(
        stats.peak_memory_bytes, slab.memory_bytes() + mine.memory_bytes());
    so.deque_depth(0);
    so.flush(stats);
  };
  /// Checkpoint barrier (Shared::CkptDump): copy the in-hand vertex plus
  /// the owned deque into this worker's dump slot — pop-all / push-back
  /// restores the deque order; a concurrent thief may shrink what we see,
  /// in which case the items travel in the thief's dump instead — then
  /// arrive and pause until the supervisor has serialized.
  const auto ckpt_join = [&](std::uint64_t epoch, WsNode* in_hand) {
    ckpt_seen = epoch;
    std::vector<WorkItem>& out = sh.ckpt_dumps[self].items;
    out.clear();
    if (in_hand != nullptr) {
      out.push_back(WorkItem{in_hand->state, in_hand->lb});
    }
    loot.clear();
    for (WsNode* n = pop_own(); n != nullptr; n = pop_own()) {
      loot.push_back(n);
      out.push_back(WorkItem{n->state, n->lb});
    }
    for (auto it = loot.rbegin(); it != loot.rend(); ++it) {
      mine.push_bottom(*it);
    }
    loot.clear();
    sh.ckpt_arrive_and_pause(self, epoch, stats);
  };

  WsNode* cur = pop_own();
  for (;;) {
    // ---- dive: depth-first on the owned deque --------------------------
    while (cur != nullptr) {
      if (sh.should_stop()) {
        std::uint64_t dumped = 1;  // the in-hand vertex
        slab.release(cur);
        cur = nullptr;
        for (WsNode* n = pop_own(); n != nullptr; n = pop_own()) {
          slab.release(n);
          ++dumped;
        }
        stats.disposed += dumped;
        so.dispose(static_cast<std::int64_t>(dumped));
        break;
      }
      const Time pop_threshold = sh.threshold();
      if (sh.params.elim == ElimRule::kUDBAS && cur->lb >= pop_threshold) {
        ++stats.pruned_active;
        so.prune(FlightPruneRule::kBound, cur->state.count(), cur->lb);
        if (sh.params.certify) {
          sh.params.certify->record_cut(
              sh.ctx, cur->state,
              bound_cut_rule(sh.ctx, cur->state, sh.params.lb,
                             pop_threshold),
              cur->lb);
        }
        slab.release(cur);
        cur = pop_own();
        continue;
      }
      staged.clear();
      bool alloc_failed = false;
      try {
        expand(sh, inc, cur->state, cur->lb, stats, so,
               [&](const PartialSchedule& s, Time lb) {
                 WsNode* const n = slab.alloc();
                 n->state = s;
                 n->lb = lb;
                 staged.push_back(n);
               });
      } catch (const std::bad_alloc&) {
        // Injected or genuine allocation failure mid-expansion: children
        // staged before the throw go back to the slab, and the budget
        // cliff stops the search (the stop branch drains the deque).
        sh.gov.stop(TerminationReason::kBudget);
        for (WsNode* const n : staged) slab.release(n);
        staged.clear();
        alloc_failed = true;
      }
      slab.release(cur);
      if (alloc_failed) {
        cur = pop_own();
        continue;
      }
      if (sh.params.sort_children) {
        // Worst bound pushed first: the owner's next pop gets the best
        // child, thieves at the top get the worst (and shallowest).
        std::sort(staged.begin(), staged.end(),
                  [](const WsNode* a, const WsNode* b) {
                    return a->lb > b->lb;
                  });
      }
      // The best child stays in hand — it is the vertex this worker dives
      // into next anyway, so round-tripping it through the deque would buy
      // nothing but a push plus a fenced pop per expansion.
      cur = nullptr;
      if (!staged.empty()) {
        cur = staged.back();
        staged.pop_back();
      }
      for (WsNode* const n : staged) mine.push_bottom(n);
      if (!staged.empty() &&
          ctl.idle.load(std::memory_order_relaxed) > 0) {
        ctl.park_cv.notify_one();  // deliberately lock-free; timed park
                                   // bounds a missed wakeup
      }
      // Amortized flush, mirroring the 256-expansion polling cadence.
      // peak_active is sampled here too: exact tracking would cost two
      // atomic loads per expansion, and the parallel peaks are documented
      // as approximate sums anyway.
      if ((++iter & 0xFFu) == 0) {
        const std::size_t depth = mine.size_hint() + 1;  // + the in-hand one
        stats.peak_active = std::max(stats.peak_active, depth);
        sh.gov.heartbeat(sh.generated.load(std::memory_order_relaxed), so);
        so.deque_depth(static_cast<std::int64_t>(depth - 1));
        const std::size_t bytes = slab.memory_bytes() + mine.memory_bytes();
        stats.peak_memory_bytes = std::max(stats.peak_memory_bytes, bytes);
        sh.poll_memory(self, bytes, stats, so);
        so.flush(stats);
        if (sh.params.ckpt != nullptr) {
          const std::uint64_t e =
              sh.ckpt_epoch.load(std::memory_order_acquire);
          if (e != ckpt_seen) ckpt_join(e, cur);
        }
      }
      if (cur == nullptr) cur = pop_own();
    }

    // ---- forage: steal work or detect termination ----------------------
    ctl.idle.fetch_add(1, std::memory_order_seq_cst);
    int spins = 0;
    while (cur == nullptr) {
      if (sh.gov.stopped() || ctl.done.load(std::memory_order_acquire)) {
        finish();
        return;  // exits counted idle; caller asserts idle == threads
      }
      if (sh.params.ckpt != nullptr) {
        const std::uint64_t e =
            sh.ckpt_epoch.load(std::memory_order_acquire);
        if (e != ckpt_seen) {
          ckpt_join(e, nullptr);  // foraging: empty-handed, deque drained
          continue;
        }
      }
      // Glance: is any work visible? A mere look needs no idle bookkeeping.
      bool saw_work = false;
      for (std::size_t v = 0; v < nworkers && !saw_work; ++v) {
        saw_work = v != self && !ctl.deques[v]->empty_hint();
      }
      if (saw_work) {
        // Leave the idle count BEFORE touching any vertex: the termination
        // declarer reads `idle` after its empty sweep, so a worker counted
        // idle must never hold work (WsControl::idle invariant).
        ctl.idle.fetch_sub(1, std::memory_order_seq_cst);
        const std::size_t start =
            static_cast<std::size_t>(rng()) % nworkers;
        for (std::size_t off = 0; off < nworkers && cur == nullptr; ++off) {
          const std::size_t v = (start + off) % nworkers;
          if (v == self) continue;
          WsDeque<WsNode*>& victim = *ctl.deques[v];
          const std::size_t hint = victim.size_hint();
          if (hint == 0) continue;
          ++stats.steals_attempted;
          // Steal half (rounded up, min 1).
          const std::size_t take = hint - hint / 2;
          loot.resize(take);
          const std::size_t got = victim.steal_batch(loot.data(), take);
          if (got == 0) continue;  // lost the race or victim drained
          ++stats.steals_succeeded;
          so.steal(static_cast<int>(v), static_cast<std::int64_t>(got));
          cur = loot[0];
          for (std::size_t i = 1; i < got; ++i) mine.push_bottom(loot[i]);
          if (got > 1 && ctl.idle.load(std::memory_order_relaxed) > 0) {
            ctl.park_cv.notify_one();
          }
        }
        if (cur == nullptr) {
          // Whole sweep came back empty-handed: rejoin the idle count.
          ctl.idle.fetch_add(1, std::memory_order_seq_cst);
        }
        continue;  // dive if cur, else retry with termination checks
      }
      // Nothing visible anywhere: the glance above read every deque empty.
      // Declare termination only if every worker is still idle AFTER that
      // sweep, the stop flag stayed clear, and a re-sweep agrees. The
      // seq_cst RMW read of `idle` doubles as the full barrier ordering
      // the glance before the count (an RMW so the ordering is modeled by
      // TSan, which cannot see standalone fences).
      if (ctl.idle.fetch_add(0, std::memory_order_seq_cst) ==
              static_cast<int>(nworkers) &&
          !sh.gov.stopped()) {
        bool still_empty = true;
        for (std::size_t v = 0; v < nworkers && still_empty; ++v) {
          still_empty = ctl.deques[v]->empty_hint();
        }
        if (still_empty) {
          ctl.done.store(true, std::memory_order_release);
          ctl.park_cv.notify_all();
          finish();
          return;
        }
      }
      if (++spins < 32) {
        std::this_thread::yield();
      } else {
        std::unique_lock lock(ctl.park_mutex);
        ctl.park_cv.wait_for(lock, std::chrono::microseconds(200));
      }
    }
    ctl.park_cv.notify_one();  // we left idle with work in hand; nudge a peer
  }
}

}  // namespace

ParallelResult solve_bnb_parallel(const SchedContext& ctx,
                                  const ParallelParams& pp) {
  PARABB_REQUIRE(pp.base.rb.max_children >= 1, "MAXSZDB must be >= 1");

  int threads = pp.threads;
  if (threads <= 0) {
    threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }

  // U, the certificate, the table, and on a resume everything but the
  // frontier (bnb/governor.hpp).
  SearchGovernor gov(ctx, pp.base, SnapshotEngine::kParallel,
                     pp.base.rb.max_children);
  Shared sh(ctx, pp.base, gov, threads);
  // Accounting carried over from a resumed snapshot (zero otherwise). The
  // generated budget keeps counting across restarts, and fault injection
  // points stay aligned with the uninterrupted run.
  const SearchStats& resume_base = gov.base_stats();
  sh.generated.store(resume_base.generated);
  // Crash-safe checkpoints (ckpt/snapshot.hpp): with ckpt == nullptr
  // nothing below touches the quiesce state.
  if (pp.base.ckpt != nullptr) {
    sh.ckpt_dumps.resize(static_cast<std::size_t>(threads));
    sh.ckpt_alive.store(threads, std::memory_order_relaxed);
  }

  // Seeding: breadth-first expansion until one frontier item per worker.
  // Flight channel 0 belongs to this phase; workers use channels 1..N.
  // A resumed run skips the expansion and seeds the pool with the
  // snapshot's frontier verbatim.
  SearchStats seed_stats;
  SearchObs seed_so;
  seed_so.bind(pp.base.observe, /*channel=*/0);
  std::deque<WorkItem> seeds;
  gov.replay_frontier(seed_so, [&seeds](const PartialSchedule& state,
                                        Time lb, std::uint32_t) {
    seeds.push_back(WorkItem{state, lb});
  });
  if (pp.base.resume == nullptr) {
    IncrementalLB seed_inc(ctx);
    WorkItem root;
    root.state = PartialSchedule::empty(ctx);
    root.lb = lower_bound_cost(ctx, root.state, pp.base.lb);
    seeds.push_back(std::move(root));
    std::vector<WorkItem> buf;
    while (!seeds.empty() &&
           seeds.size() < static_cast<std::size_t>(threads) * 4) {
      if (sh.should_stop()) break;
      WorkItem item = std::move(seeds.front());
      seeds.pop_front();
      const Time seed_threshold = sh.threshold();
      if (pp.base.elim == ElimRule::kUDBAS && item.lb >= seed_threshold) {
        ++seed_stats.pruned_active;
        seed_so.prune(FlightPruneRule::kBound, item.state.count(), item.lb);
        if (pp.base.certify) {
          pp.base.certify->record_cut(
              ctx, item.state,
              bound_cut_rule(ctx, item.state, pp.base.lb, seed_threshold),
              item.lb);
        }
        continue;
      }
      buf.clear();
      try {
        expand(sh, seed_inc, item.state, item.lb, seed_stats, seed_so,
               [&](const PartialSchedule& s, Time lb) {
                 buf.push_back(WorkItem{s, lb});
               });
      } catch (const std::bad_alloc&) {
        gov.stop(TerminationReason::kBudget);
        break;
      }
      if (pp.base.sort_children) {
        std::sort(buf.begin(), buf.end(),
                  [](const WorkItem& a, const WorkItem& b) {
                    return a.lb > b.lb;
                  });
      }
      for (WorkItem& w : buf) seeds.push_back(std::move(w));
      seed_stats.peak_memory_bytes =
          std::max(seed_stats.peak_memory_bytes,
                   seeds.size() * sizeof(WorkItem));
    }
  }
  seed_so.flush(seed_stats);

  SearchStats stats;
  std::uint64_t leftover_disposed = 0;
  if (!seeds.empty()) {
    std::vector<SearchStats> per_thread(static_cast<std::size_t>(threads));
    std::vector<SearchObs> per_obs(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      per_obs[static_cast<std::size_t>(i)].bind(
          pp.base.observe, /*channel=*/static_cast<std::size_t>(i) + 1);
      per_obs[static_cast<std::size_t>(i)].bind_deque_depth(
          pp.base.observe, static_cast<std::size_t>(i));
    }
    WsControl ctl(threads);
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    const double limit = pp.base.rb.time_limit_s;
    const bool supervise =
        std::isfinite(limit) || pp.base.ckpt != nullptr;

    // Snapshots the quiesced state through the governor. Runs with every
    // live worker arrived-and-paused, so the dump slots together hold the
    // complete frontier. Returns true when the write was the SIGTERM
    // path's last act.
    const auto ckpt_serialize = [&]() {
      const std::uint64_t epoch =
          sh.ckpt_epoch.load(std::memory_order_relaxed);
      SearchStats agg = resume_base;
      merge_search_stats(agg, seed_stats);
      std::vector<SnapshotVertex> frontier;
      std::uint32_t seq = 0;
      for (const Shared::CkptDump& d : sh.ckpt_dumps) {
        if (d.epoch != epoch) continue;  // worker exited before this epoch
        merge_search_stats(agg, d.stats);
        for (const WorkItem& w : d.items) {
          frontier.push_back(
              SnapshotVertex{placement_path(ctx, w.state), w.lb, seq++});
        }
      }
      return gov.write_checkpoint(std::move(frontier), seq, agg, seed_so);
    };

    // Quiesce barrier: bump the epoch, wait for every live worker to dump
    // and pause, serialize, release. Aborts — without writing — if the
    // search ends mid-quiesce; the final result supersedes any snapshot.
    const auto ckpt_quiesce = [&]() {
      const std::uint64_t epoch =
          sh.ckpt_epoch.load(std::memory_order_relaxed) + 1;
      sh.ckpt_arrived.store(0, std::memory_order_relaxed);
      sh.ckpt_epoch.store(epoch, std::memory_order_release);
      bool complete = true;
      while (sh.ckpt_arrived.load(std::memory_order_acquire) <
             sh.ckpt_alive.load(std::memory_order_relaxed)) {
        if (ctl.done.load() || gov.stopped()) {
          complete = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const bool stop_after = complete && ckpt_serialize();
      sh.ckpt_released.store(epoch, std::memory_order_release);
      return stop_after;
    };

    // Round-robin seed distribution. Each worker's share is pushed in
    // reverse, so its first pop_bottom yields its earliest (breadth-
    // first-order) seed.
    {
      std::vector<std::vector<WsNode*>> share(
          static_cast<std::size_t>(threads));
      std::size_t k = 0;
      for (const WorkItem& w : seeds) {
        const std::size_t who = k++ % static_cast<std::size_t>(threads);
        WsNode* const n = ctl.slabs[who]->alloc();
        n->state = w.state;
        n->lb = w.lb;
        share[who].push_back(n);
      }
      for (std::size_t who = 0; who < share.size(); ++who) {
        for (auto it = share[who].rbegin(); it != share[who].rend(); ++it) {
          ctl.deques[who]->push_bottom(*it);
        }
      }
    }
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&sh, &ctl, &per_thread, &per_obs, i] {
        ws_worker_loop(sh, ctl, static_cast<std::size_t>(i),
                       per_thread[static_cast<std::size_t>(i)],
                       per_obs[static_cast<std::size_t>(i)]);
      });
    }
    // Time-limit / checkpoint supervisor (main thread); cancellation and
    // the generated budget are polled by the workers (Shared::should_stop).
    if (supervise) {
      while (!ctl.done.load() && !gov.stopped()) {
        if (gov.out_of_time(sh.generated.load(std::memory_order_relaxed))) {
          break;
        }
        if (gov.checkpoint_due() && ckpt_quiesce()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    for (auto& th : pool) th.join();
    // Every exit path leaves the worker counted idle.
    PARABB_ASSERT(ctl.idle.load() == threads);
    // An early stop can leave stolen-then-abandoned vertices behind; they
    // count as disposed. After the joins the main thread is the sole
    // accessor, so owner ops are safe here.
    for (const auto& d : ctl.deques) {
      WsNode* n = nullptr;
      while (d->pop_bottom(n)) ++leftover_disposed;
    }
    PARABB_ASSERT(gov.stopped() || leftover_disposed == 0);
    for (const SearchStats& s : per_thread) merge_search_stats(stats, s);
  }
  merge_search_stats(stats, seed_stats);
  merge_search_stats(stats, resume_base);
  // Vertices an early stop abandoned in the deques were disposed of, the
  // same way worker-local leftovers are counted inside the worker loop.
  stats.disposed += leftover_disposed;

  // The deques track no least bound, so the gap floor stays at -inf.
  ParallelResult result{gov.finish(stats, kTimeNegInf), threads};
  // Workers and the seed phase flushed their own counters; publish the
  // remainder that only exists post-merge (leftovers disposed by an early
  // stop, shared-table totals). The table totals include a resumed run's
  // base, which the run that earned it already published.
  if (pp.base.observe) {
    SearchObs fin;
    fin.bind(pp.base.observe, /*channel=*/0, /*with_flight=*/false);
    SearchStats base;
    base.tt_hits = resume_base.tt_hits;
    base.tt_misses = resume_base.tt_misses;
    base.tt_evictions = resume_base.tt_evictions;
    base.tt_collisions = resume_base.tt_collisions;
    fin.seed(base);
    SearchStats rem;
    rem.disposed = leftover_disposed;
    rem.tt_hits = result.stats.tt_hits;
    rem.tt_misses = result.stats.tt_misses;
    rem.tt_evictions = result.stats.tt_evictions;
    rem.tt_collisions = result.stats.tt_collisions;
    rem.peak_active = result.stats.peak_active;
    rem.peak_memory_bytes = result.stats.peak_memory_bytes;
    fin.flush(rem);
  }
  return result;
}

}  // namespace parabb
