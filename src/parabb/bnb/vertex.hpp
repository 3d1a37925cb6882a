// Search-tree vertex: a partial (or complete) schedule plus its bound.
//
// Vertices live in a SlotPool (support/pool.hpp): they are created and
// pruned at very high rates, and the active set stores only small handles.
#pragma once

#include <cstdint>
#include <type_traits>

#include "parabb/sched/partial_schedule.hpp"
#include "parabb/support/pool.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

struct Vertex {
  PartialSchedule state;
  Time lb = 0;             ///< lower-bound cost L(v)
  std::uint32_t seq = 0;   ///< generation counter (LIFO/FIFO order, LLB ties)
};

// The pool copies vertices as raw bytes.
static_assert(std::is_trivially_copyable_v<Vertex>);
// Memory budgets are priced in vertices of this size: solve_bnb divides
// rb.max_memory_bytes by it to size the pool's chunks, and the degradation
// ladder's thresholds compare live slots × this size against the budget.
// A different size moves every budgeted outcome, so changing it is a
// deliberate decision, not a side effect.
static_assert(sizeof(Vertex) == 272,
              "budgeted outcomes and ladder thresholds derive from this size");

/// Handle stored in active-set containers: the bound and order key are
/// duplicated here so selection rules never touch pool memory.
struct VertexEntry {
  Time lb = 0;
  std::uint32_t seq = 0;
  SlotRef ref;
};

}  // namespace parabb
