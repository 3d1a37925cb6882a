#include "parabb/support/pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace parabb {
namespace {

/// Runs `f` on a new thread, whose recycler starts empty.
template <typename F>
void on_fresh_thread(F&& f) {
  std::thread(std::forward<F>(f)).join();
}

/// Start address of every chunk `pool` holds (the first slot of each).
std::set<const void*> chunk_starts(const SlotPool& pool,
                                   const std::vector<SlotRef>& refs,
                                   std::size_t slots_per_chunk) {
  std::set<const void*> out;
  for (const SlotRef r : refs) {
    if (r.index % slots_per_chunk == 0) out.insert(pool.get(r));
  }
  return out;
}

TEST(SlotPool, AllocateReleaseCycle) {
  SlotPool pool(16);
  const SlotRef a = pool.allocate();
  EXPECT_TRUE(pool.is_live(a));
  EXPECT_EQ(pool.live_count(), 1u);
  pool.release(a);
  EXPECT_FALSE(pool.is_live(a));
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(SlotPool, StaleHandleDetected) {
  SlotPool pool(16);
  const SlotRef a = pool.allocate();
  pool.release(a);
  const SlotRef b = pool.allocate();  // recycles the slot
  EXPECT_EQ(a.index, b.index);
  EXPECT_NE(a.generation, b.generation);
  EXPECT_FALSE(pool.is_live(a));
  EXPECT_TRUE(pool.is_live(b));
}

TEST(SlotPool, PayloadIsStableAndDistinct) {
  SlotPool pool(sizeof(int));
  std::vector<SlotRef> refs;
  for (int i = 0; i < 100; ++i) {
    refs.push_back(pool.allocate());
    *static_cast<int*>(pool.get(refs.back())) = i;
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*static_cast<const int*>(
                  pool.get(refs[static_cast<std::size_t>(i)])),
              i);
  }
}

TEST(SlotPool, GrowsAcrossChunks) {
  SlotPool pool(8, /*slots_per_chunk=*/4);
  std::vector<SlotRef> refs;
  for (int i = 0; i < 50; ++i) refs.push_back(pool.allocate());
  EXPECT_EQ(pool.live_count(), 50u);
  EXPECT_GE(pool.capacity(), 50u);
  for (const SlotRef r : refs) pool.release(r);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(SlotPool, RecyclesFreedSlotsBeforeGrowing) {
  SlotPool pool(8, 4);
  std::vector<SlotRef> refs;
  for (int i = 0; i < 4; ++i) refs.push_back(pool.allocate());
  const std::size_t cap = pool.capacity();
  for (const SlotRef r : refs) pool.release(r);
  for (int i = 0; i < 4; ++i) pool.allocate();
  EXPECT_EQ(pool.capacity(), cap);  // no growth needed
}

TEST(SlotPool, HandlesSurviveGrowth) {
  SlotPool pool(sizeof(long), 2);
  const SlotRef first = pool.allocate();
  *static_cast<long*>(pool.get(first)) = 0x1234;
  for (int i = 0; i < 64; ++i) pool.allocate();  // force many chunk growths
  EXPECT_EQ(*static_cast<const long*>(pool.get(first)), 0x1234);
}

TEST(SlotPool, MemoryAccountingGrowsMonotonically) {
  SlotPool pool(64, 16);
  const std::size_t m0 = pool.memory_bytes();
  for (int i = 0; i < 100; ++i) pool.allocate();
  EXPECT_GT(pool.memory_bytes(), m0);
}

// memory_bytes() feeds the effort ledger's peak_memory_bytes, the memory
// cliff and the degradation ladder, so it must read what it read when each
// chunk zero-filled its generation counters: k chunks of payload plus a
// counter array whose capacity grew as a vector resized one chunk at a
// time does, to 1, 2, 4, 4 and 8 chunks' worth after 1 to 5 chunks. The
// chunk sizes are solve_bnb's default and budgeted ones (a 48 KiB budget
// of 128-byte vertices gives 6-slot chunks) and SlotPool's own default.
TEST(SlotPool, MemoryBytesAfterWholeChunksAreUnchanged) {
  constexpr std::size_t kSlotBytes = 128;
  constexpr std::size_t kCounterChunks[] = {1, 2, 4, 4, 8};
  for (const std::size_t per_chunk : {8192u, 4096u, 64u, 8u, 6u, 1u}) {
    SlotPool pool(kSlotBytes, per_chunk);
    for (std::size_t chunks = 1; chunks <= 5; ++chunks) {
      const std::size_t expected = chunks * per_chunk * kSlotBytes +
                                   kCounterChunks[chunks - 1] * per_chunk * 4;
      pool.allocate();  // the first slot of chunk `chunks`
      ASSERT_EQ(pool.capacity(), chunks * per_chunk);
      EXPECT_EQ(pool.memory_bytes(), expected)
          << per_chunk << "-slot chunks, " << chunks << " chunk(s)";
      while (pool.live_count() < pool.capacity()) pool.allocate();
      EXPECT_EQ(pool.memory_bytes(), expected)
          << per_chunk << "-slot chunks, " << chunks << " full chunk(s)";
    }
  }
}

// Counters are written as slots are first handed out; a reset must still
// invalidate every handle, and a slot first handed out after the reset
// must be live.
TEST(SlotPool, ResetBeforeAChunkIsFullInvalidatesEveryHandle) {
  SlotPool pool(16, 8);
  std::vector<SlotRef> before;
  for (int i = 0; i < 3; ++i) before.push_back(pool.allocate());
  pool.reset();
  std::vector<SlotRef> after;
  for (int i = 0; i < 8; ++i) after.push_back(pool.allocate());
  for (const SlotRef r : before) EXPECT_FALSE(pool.is_live(r));
  for (const SlotRef r : after) EXPECT_TRUE(pool.is_live(r));
  EXPECT_EQ(pool.capacity(), 8u);
}

TEST(SlotPool, ResetInvalidatesEverything) {
  SlotPool pool(16);
  const SlotRef a = pool.allocate();
  const SlotRef b = pool.allocate();
  pool.reset();
  EXPECT_FALSE(pool.is_live(a));
  EXPECT_FALSE(pool.is_live(b));
  EXPECT_EQ(pool.live_count(), 0u);
  const SlotRef c = pool.allocate();
  EXPECT_TRUE(pool.is_live(c));
}

TEST(SlotPool, RejectsBadConfig) {
  EXPECT_THROW(SlotPool(0), precondition_error);
  EXPECT_THROW(SlotPool(8, 0), precondition_error);
}

TEST(SlotPool, SlotBytesAreAligned) {
  SlotPool pool(1);
  EXPECT_EQ(pool.slot_bytes() % alignof(std::max_align_t), 0u);
  EXPECT_GE(pool.slot_bytes(), 1u);
}

// A destroyed pool's chunks are recycled to the next pools on its thread;
// none of them may overlap a slot another live pool still holds.
TEST(SlotPoolRecycling, RecycledChunksNeverAliasLiveSlots) {
  on_fresh_thread([] {
    constexpr std::size_t kPerChunk = 16;
    SlotPool held(sizeof(std::uint64_t), kPerChunk);
    std::vector<SlotRef> held_refs;
    for (std::uint64_t i = 0; i < 64; ++i) {
      held_refs.push_back(held.allocate());
      *static_cast<std::uint64_t*>(held.get(held_refs.back())) = i;
    }
    {
      SlotPool gone(sizeof(std::uint64_t), kPerChunk);
      for (int i = 0; i < 64; ++i) gone.allocate();
    }
    EXPECT_GT(recycler::retained_bytes(), 0u);

    // Two pools draw the recycled chunks (and then fresh ones) at once.
    SlotPool a(sizeof(std::uint64_t), kPerChunk);
    SlotPool b(sizeof(std::uint64_t), kPerChunk);
    std::vector<std::uintptr_t> starts;
    for (const SlotRef r : held_refs) {
      starts.push_back(reinterpret_cast<std::uintptr_t>(held.get(r)));
    }
    for (int i = 0; i < 64; ++i) {
      for (SlotPool* pool : {&a, &b}) {
        const SlotRef r = pool->allocate();
        *static_cast<std::uint64_t*>(pool->get(r)) = ~0ULL;
        starts.push_back(reinterpret_cast<std::uintptr_t>(pool->get(r)));
      }
    }
    EXPECT_EQ(recycler::retained_bytes(), 0u);
    std::sort(starts.begin(), starts.end());
    for (std::size_t i = 1; i < starts.size(); ++i) {
      EXPECT_GE(starts[i] - starts[i - 1], a.slot_bytes()) << "slots overlap";
    }
    for (std::uint64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(*static_cast<const std::uint64_t*>(held.get(held_refs[i])), i);
    }
  });
}

// memory_bytes() feeds the memory budget and the degradation ladder, so it
// must read the same on a warm thread as on a cold one.
TEST(SlotPoolRecycling, MemoryBytesCountsOnlyOwnChunks) {
  const auto footprint = [] {
    SlotPool pool(64, 16);
    for (int i = 0; i < 100; ++i) pool.allocate();
    return pool.memory_bytes();
  };
  std::size_t cold = 0;
  on_fresh_thread([&] { cold = footprint(); });
  on_fresh_thread([&] {
    {
      SlotPool big(64, 16);
      for (int i = 0; i < 1000; ++i) big.allocate();
    }
    const std::size_t retained = recycler::retained_bytes();
    EXPECT_GE(retained, 1000u * 64);
    EXPECT_EQ(footprint(), cold);
    // The second pool took its chunks from the recycler and gave them back.
    EXPECT_EQ(recycler::retained_bytes(), retained);
  });
}

TEST(SlotPoolRecycling, RetentionIsCapped) {
  on_fresh_thread([] {
    constexpr std::size_t kChunk = std::size_t{1} << 20;
    const std::size_t chunks = kRetainedBytesPerThread / kChunk + 8;
    {
      SlotPool big(kChunk, 1);  // chunks are never written: no pages touched
      for (std::size_t i = 0; i < chunks; ++i) big.allocate();
      EXPECT_EQ(big.memory_bytes() / kChunk, chunks);
    }
    EXPECT_EQ(recycler::retained_bytes(), kRetainedBytesPerThread);
  });
}

// A memory-budgeted solve sizes its chunks from the budget; those chunks
// and default-size ones are recycled only to pools of their own size.
TEST(SlotPoolRecycling, ChunkSizesNeverMix) {
  on_fresh_thread([] {
    constexpr std::size_t kSlot = 272;
    std::set<const void*> small_chunks;
    {
      SlotPool small(kSlot, 64);
      std::vector<SlotRef> refs;
      for (int i = 0; i < 4 * 64; ++i) refs.push_back(small.allocate());
      small_chunks = chunk_starts(small, refs, 64);
    }
    ASSERT_EQ(small_chunks.size(), 4u);
    const std::size_t small_bytes = 4 * 64 * kSlot;
    EXPECT_EQ(recycler::retained_bytes(), small_bytes);

    std::set<const void*> large_chunks;
    {
      SlotPool large(kSlot, 8192);
      std::vector<SlotRef> refs{large.allocate()};
      large_chunks = chunk_starts(large, refs, 8192);
    }
    ASSERT_EQ(large_chunks.size(), 1u);
    EXPECT_EQ(small_chunks.count(*large_chunks.begin()), 0u);
    EXPECT_EQ(recycler::retained_bytes(), small_bytes + 8192 * kSlot);

    SlotPool again(kSlot, 64);
    std::vector<SlotRef> refs;
    for (int i = 0; i < 2 * 64; ++i) refs.push_back(again.allocate());
    for (const void* start : chunk_starts(again, refs, 64)) {
      EXPECT_EQ(small_chunks.count(start), 1u);
    }
    EXPECT_EQ(recycler::retained_bytes(), 2 * 64 * kSlot + 8192 * kSlot);
  });
}

}  // namespace
}  // namespace parabb
