#include "parabb/bnb/transposition.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "parabb/support/assert.hpp"

namespace parabb {

struct TranspositionTable::Shard {
  mutable std::mutex mutex;
  // Parallel arrays (see the header's layout note). fps is the only
  // zero-initialized allocation: fingerprint 0 means "free slot", so
  // construction touches 8 bytes per slot, not the whole memory cap —
  // engines build a table per solve and short searches must not pay for
  // it. lbs/states are uninitialized until their slot is claimed
  // (PartialSchedule is an implicit-lifetime type: trivial copy
  // constructor and destructor). release() frees all three; fps is null
  // from then on.
  std::unique_ptr<std::uint64_t[]> fps;
  std::unique_ptr<Time[]> lbs;
  std::unique_ptr<std::byte[]> state_storage;
  PartialSchedule* states = nullptr;
  std::size_t used_count = 0;
  TranspositionCounters counters;
};

namespace {

int clamp_shards(int requested) {
  const int clamped = std::clamp(requested, 1, 1024);
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(clamped)));
}

/// Fingerprint 0 is the free-slot sentinel; remap real zeros (one state in
/// 2^64 — the equality fallback absorbs the extra collision).
std::uint64_t desentinel(std::uint64_t fp) noexcept {
  return fp == 0 ? 1 : fp;
}

}  // namespace

TranspositionTable::TranspositionTable(const TranspositionConfig& config) {
  shard_count_ = clamp_shards(config.shards);
  shard_mask_ = static_cast<std::uint64_t>(shard_count_) - 1;
  const std::size_t total_slots =
      std::max<std::size_t>(config.memory_cap_bytes / kBytesPerSlot, 1);
  // Power-of-two slot count so probe indices wrap with a mask, and at
  // least one full bucket per shard.
  slots_per_shard_ = std::bit_floor(std::max<std::size_t>(
      total_slots / static_cast<std::size_t>(shard_count_), kProbeWindow));
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(shard_count_));
  for (int s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.fps = std::make_unique<std::uint64_t[]>(slots_per_shard_);
    shard.lbs = std::make_unique_for_overwrite<Time[]>(slots_per_shard_);
    shard.state_storage = std::make_unique_for_overwrite<std::byte[]>(
        slots_per_shard_ * sizeof(PartialSchedule));
    shard.states = reinterpret_cast<PartialSchedule*>(
        shard.state_storage.get());
  }
}

TranspositionTable::~TranspositionTable() = default;

TranspositionTable::Shard& TranspositionTable::shard_for(
    std::uint64_t fp) const noexcept {
  return shards_[static_cast<std::size_t>(fp & shard_mask_)];
}

template <bool kCounted>
bool TranspositionTable::probe(std::uint64_t fp, const PartialSchedule& state,
                               Time lb) {
  fp = desentinel(fp);
  Shard& shard = shard_for(fp);
  const std::lock_guard lock(shard.mutex);
  TranspositionCounters uncounted;
  TranspositionCounters& counters = kCounted ? shard.counters : uncounted;
  ++counters.probes;
  if (!shard.fps) {  // released
    ++counters.misses;
    return false;
  }

  // The shard index consumed the low bits; pick the bucket from the high
  // ones so the two choices stay independent. Aligning the window to a
  // bucket boundary keeps all eight fingerprints in one cache line.
  const std::size_t slot_mask = slots_per_shard_ - 1;
  const std::size_t base =
      (static_cast<std::size_t>(fp >> 10) & slot_mask) & ~(kProbeWindow - 1);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t free_slot = kNone;
  std::size_t worst = kNone;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const std::size_t idx = base + i;
    const std::uint64_t slot_fp = shard.fps[idx];
    if (slot_fp == 0) {
      if (free_slot == kNone) free_slot = idx;
      continue;
    }
    if (slot_fp == fp) {
      if (shard.states[idx] == state) {
        if (shard.lbs[idx] <= lb) {
          ++counters.hits;
          return true;
        }
        // Re-seen with a strictly better bound: remember the improvement
        // so later duplicates are measured against the best-known bound.
        shard.lbs[idx] = lb;
        ++counters.misses;
        return false;
      }
      ++counters.collisions;  // 64-bit collision: equality saved us
    }
    if (worst == kNone || shard.lbs[idx] > shard.lbs[worst]) worst = idx;
  }

  ++counters.misses;
  if (free_slot != kNone) {
    shard.fps[free_slot] = fp;
    shard.lbs[free_slot] = lb;
    shard.states[free_slot] = state;
    ++shard.used_count;
    ++counters.inserts;
    return false;
  }
  // Bucket full: replace-if-better, keyed on the bound — promising
  // (low-bound) states are the ones the search will regenerate most.
  PARABB_ASSERT(worst != kNone);
  if (lb < shard.lbs[worst]) {
    shard.fps[worst] = fp;
    shard.lbs[worst] = lb;
    shard.states[worst] = state;
    ++counters.evictions;
  } else {
    ++counters.rejected;
  }
  return false;
}

bool TranspositionTable::seen_or_insert(std::uint64_t fp,
                                        const PartialSchedule& state,
                                        Time lb) {
  return probe<true>(fp, state, lb);
}

TranspositionCounters TranspositionTable::counters() const {
  TranspositionCounters total;
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    total.probes += shard.counters.probes;
    total.hits += shard.counters.hits;
    total.misses += shard.counters.misses;
    total.inserts += shard.counters.inserts;
    total.evictions += shard.counters.evictions;
    total.rejected += shard.counters.rejected;
    total.collisions += shard.counters.collisions;
  }
  return total;
}

std::size_t TranspositionTable::size() const {
  std::size_t used = 0;
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    used += shard.used_count;
  }
  return used;
}

std::size_t TranspositionTable::capacity() const noexcept {
  return static_cast<std::size_t>(shard_count_) * slots_per_shard_;
}

std::size_t TranspositionTable::memory_bytes() const {
  std::size_t slots = 0;
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    if (shard.fps) slots += slots_per_shard_;
  }
  return slots * kBytesPerSlot;
}

void TranspositionTable::for_each_entry(
    const std::function<void(const PartialSchedule&, Time)>& fn) const {
  for (int s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    if (!shard.fps) continue;  // released
    for (std::size_t i = 0; i < slots_per_shard_; ++i)
      if (shard.fps[i] != 0) fn(shard.states[i], shard.lbs[i]);
  }
}

void TranspositionTable::preload(const PartialSchedule& state, Time lb) {
  probe<false>(state.fingerprint(), state, lb);
}

void TranspositionTable::add_counters(const TranspositionCounters& prior) {
  Shard& shard = shards_[0];
  const std::lock_guard lock(shard.mutex);
  shard.counters.probes += prior.probes;
  shard.counters.hits += prior.hits;
  shard.counters.misses += prior.misses;
  shard.counters.inserts += prior.inserts;
  shard.counters.evictions += prior.evictions;
  shard.counters.rejected += prior.rejected;
  shard.counters.collisions += prior.collisions;
}

void TranspositionTable::release() {
  for (int s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    const std::lock_guard lock(shard.mutex);
    shard.fps.reset();
    shard.lbs.reset();
    shard.state_storage.reset();
    shard.states = nullptr;
    shard.used_count = 0;
  }
}

}  // namespace parabb
