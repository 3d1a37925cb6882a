// SlotPool: chunked fixed-size-slot allocator with free-list recycling and
// per-slot generation counters.
//
// Branch-and-bound vertices are allocated and pruned at very high rates and
// are referenced lazily from active-set containers (a heap may hold handles
// to vertices that U/DBAS already pruned). The generation counter lets a
// container detect stale handles in O(1) instead of the engine eagerly
// deleting heap entries (which would be O(n) per prune).
//
// Chunks are allocated uninitialised and recycled per thread
// (support/recycler.hpp): a destroyed pool hands its chunks to its
// thread's recycler, up to kRetainedBytesPerThread (96 MiB) per thread,
// and the next pool on that thread with the same chunk size
// (slot_bytes × slots_per_chunk) takes them before allocating. Each
// service worker thread therefore retains its own chunks. memory_bytes()
// counts only the chunks this pool holds, never the recycler's, so memory
// budgets and the degradation ladder see exactly what they saw before.
//
// A slot's generation counter is written when the slot is first handed
// out, so a solve that uses a handful of slots of an 8192-slot chunk writes
// a handful of counters. The counter array reserves a chunk's worth of
// counters when the chunk is added, growing its capacity as a vector
// resized a chunk at a time would, so memory_bytes() is a function of the
// chunk count alone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "parabb/support/assert.hpp"
#include "parabb/support/recycler.hpp"

namespace parabb {

/// Handle to a pool slot: index + generation stamp captured at allocation.
struct SlotRef {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  friend bool operator==(SlotRef, SlotRef) = default;
};

class SlotPool {
 public:
  /// `slot_bytes` is the payload size; `slots_per_chunk` tunes allocation
  /// granularity (a pool keeps its chunks, even across reset(), until it is
  /// destroyed, so handles stay stable).
  explicit SlotPool(std::size_t slot_bytes, std::size_t slots_per_chunk = 4096)
      : payload_bytes_(align_up(slot_bytes)),
        slots_per_chunk_(slots_per_chunk) {
    PARABB_REQUIRE(slot_bytes > 0, "slot size must be positive");
    PARABB_REQUIRE(slots_per_chunk > 0, "chunk size must be positive");
  }

  /// The slot size of a pool with `slot_bytes` payloads: rounded up to
  /// alignof(std::max_align_t), as slot_bytes() reports it.
  static constexpr std::size_t align_up(std::size_t slot_bytes) noexcept {
    constexpr std::size_t a = alignof(std::max_align_t);
    return (slot_bytes + a - 1) / a * a;
  }

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;
  ~SlotPool() {
    for (auto& chunk : chunks_) {
      recycler::give_chunk(std::move(chunk), chunk_bytes());
    }
  }

  /// Allocate a slot; payload contents are uninitialized.
  SlotRef allocate() {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if (next_fresh_ == capacity_) grow();
      idx = next_fresh_++;
      if (idx == generations_.size()) generations_.push_back(0);
    }
    ++live_;
    return SlotRef{idx, generation(idx)};
  }

  /// Release a slot; bumps its generation so stale handles become invalid.
  void release(SlotRef ref) {
    PARABB_ASSERT(is_live(ref));
    ++generation(ref.index);
    free_.push_back(ref.index);
    PARABB_ASSERT(live_ > 0);
    --live_;
  }

  /// True iff `ref` still refers to the allocation it was created by.
  bool is_live(SlotRef ref) const noexcept {
    return ref.index < next_fresh_ && generation(ref.index) == ref.generation;
  }

  /// Payload pointer. Asserts the handle is live.
  void* get(SlotRef ref) noexcept {
    PARABB_ASSERT(is_live(ref));
    return payload(ref.index);
  }
  const void* get(SlotRef ref) const noexcept {
    PARABB_ASSERT(is_live(ref));
    return payload(ref.index);
  }

  std::size_t live_count() const noexcept { return live_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t slot_bytes() const noexcept { return payload_bytes_; }

  /// Approximate resident bytes (payload chunks + bookkeeping).
  std::size_t memory_bytes() const noexcept {
    return capacity_ * payload_bytes_ + generations_.capacity() * 4 +
           free_.capacity() * 4;
  }

  /// Drop every allocation but keep the chunks (invalidates all handles;
  /// fresh allocation restarts from slot 0). Only slots ever handed out
  /// have counters to bump; the others get theirs when first handed out.
  void reset() noexcept {
    for (auto& g : generations_) ++g;
    free_.clear();
    next_fresh_ = 0;
    live_ = 0;
  }

 private:
  std::size_t chunk_bytes() const noexcept {
    return payload_bytes_ * slots_per_chunk_;
  }

  void grow() {
    auto chunk = recycler::take_chunk(chunk_bytes());
    if (!chunk) {
      chunk = std::make_unique_for_overwrite<std::byte[]>(chunk_bytes());
    }
    chunks_.push_back(std::move(chunk));
    const std::size_t before = capacity_;
    capacity_ += slots_per_chunk_;
    // The capacity resize(capacity_) would give: libstdc++ grows a vector
    // of size s by k elements to s + max(s, k). Budgets, the ladder and the
    // effort ledger's peak_memory_bytes read memory_bytes().
    if (capacity_ > generations_.capacity()) {
      generations_.reserve(before + std::max(before, slots_per_chunk_));
    }
  }

  std::byte* payload(std::uint32_t idx) noexcept {
    return chunks_[idx / slots_per_chunk_].get() +
           payload_bytes_ * (idx % slots_per_chunk_);
  }
  const std::byte* payload(std::uint32_t idx) const noexcept {
    return chunks_[idx / slots_per_chunk_].get() +
           payload_bytes_ * (idx % slots_per_chunk_);
  }

  std::uint32_t& generation(std::uint32_t idx) noexcept {
    return generations_[idx];
  }
  std::uint32_t generation(std::uint32_t idx) const noexcept {
    return generations_[idx];
  }

  std::size_t payload_bytes_;
  std::size_t slots_per_chunk_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<std::uint32_t> generations_;
  std::vector<std::uint32_t> free_;
  std::uint32_t next_fresh_ = 0;
  std::size_t capacity_ = 0;
  std::size_t live_ = 0;
};

}  // namespace parabb
