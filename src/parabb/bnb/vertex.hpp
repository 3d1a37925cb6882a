// Search-tree vertex: a partial (or complete) schedule plus its bound.
//
// Vertices live in a SlotPool (support/pool.hpp): they are created and
// pruned at very high rates, and the active set stores only small handles.
// A slot holds the bound, then the state in the instance's packed encoding
// (PartialSchedule::pack), so a vertex of a paper-sized instance takes
// half the memory of one sized for kMaxTasks on kMaxProcs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/pool.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

/// The head of a vertex slot; the packed state follows it.
struct Vertex {
  Time lb = 0;  ///< lower-bound cost L(v)

  std::byte* state() noexcept {
    return reinterpret_cast<std::byte*>(this) + sizeof(Vertex);
  }
  const std::byte* state() const noexcept {
    return reinterpret_cast<const std::byte*>(this) + sizeof(Vertex);
  }
};

// The pool copies vertices as raw bytes.
static_assert(std::is_trivially_copyable_v<Vertex>);

/// Slot size of a vertex of `ctx`: 128 bytes (two cache lines) when the
/// state packs compactly (n <= 16, m <= 4), 272 otherwise. Memory budgets
/// are priced in it: solve_bnb divides rb.max_memory_bytes by it to size
/// the pool's chunks, and the degradation ladder compares live slots × this
/// size against the budget.
inline std::size_t vertex_bytes(const SchedContext& ctx) noexcept {
  return SlotPool::align_up(sizeof(Vertex) +
                            PartialSchedule::packed_bytes(ctx));
}

/// Handle stored in active-set containers: the bound and order key live
/// here, so selection rules never touch pool memory.
struct VertexEntry {
  Time lb = 0;
  std::uint32_t seq = 0;  ///< generation counter (LIFO/FIFO order, LLB ties)
  SlotRef ref;
};

}  // namespace parabb
