// The active set AS and the three vertex selection rules S (paper §3.2).
//
//  * LIFO — stack (newest first): depth-first dives that reach goal
//    vertices quickly and keep the set small; pop order matches the pool's
//    allocation locality (the §6 paging observation).
//  * FIFO — queue (oldest first): breadth-first; kept for completeness.
//  * LLB  — binary min-heap on the lower bound. Tie-breaking among equal
//    bounds is configurable and matters enormously in practice: integer
//    lateness costs make large plateaus of equal-bound vertices, and
//    oldest-first ties (the natural "textbook" heap behaviour) wander
//    those plateaus breadth-first, while newest-first ties degenerate LLB
//    into a LIFO dive (see bench/ablation_llbtie).
//
// U/DBAS elimination is *eager*: prune_worse() walks the container,
// releases every vertex whose bound can no longer beat the incumbent, and
// compacts storage — so size() is an exact measure of AS memory (MAXSZAS).
//
// Entries are stored contiguously in one PageBuffer (support/recycler.hpp):
// the heap algorithms run over plain pointers, growth remaps pages instead
// of copying the entries, FIFO pops advance a head index, and a destroyed
// set hands its buffer to the thread's recycler for the next solve.
#pragma once

#include <functional>
#include <span>

#include "parabb/bnb/params.hpp"
#include "parabb/bnb/vertex.hpp"
#include "parabb/support/recycler.hpp"

namespace parabb {

class ActiveSet {
 public:
  /// `release` is invoked for every entry removed by prune_worse /
  /// dispose_worst (it should free the pool slot). `llb_tie_newest`
  /// selects the LLB tie-breaking policy (ignored by LIFO/FIFO).
  ActiveSet(SelectRule rule, std::function<void(SlotRef)> release,
            bool llb_tie_newest = false);
  ActiveSet(const ActiveSet&) = delete;
  ActiveSet& operator=(const ActiveSet&) = delete;
  ~ActiveSet();

  void push(const VertexEntry& e);

  /// Selects and removes the next vertex per the selection rule.
  /// Precondition: !empty().
  VertexEntry pop();

  /// Peeks the entry pop() would return (LLB stop-condition check).
  const VertexEntry& peek() const;

  bool empty() const noexcept { return head_ == end_; }
  std::size_t size() const noexcept { return end_ - head_; }

  /// Least lower bound among all entries (O(1) for LLB, O(n) otherwise).
  /// Precondition: !empty(). Used for optimality-gap certificates.
  Time min_lb() const;

  /// E_U/DBAS applied to AS: removes every entry with lb >= threshold.
  /// Returns the number pruned.
  std::size_t prune_worse(Time threshold);

  /// RB.MAXSZAS overflow handling: disposes the `count` entries with the
  /// largest bounds (ties resolved oldest-first). Returns the number
  /// disposed (== count unless the set is smaller).
  std::size_t dispose_worst(std::size_t count);

  /// Read-only view of every live entry in container order (LIFO/FIFO:
  /// insertion order; LLB: heap order — an arbitrary but complete
  /// enumeration). The checkpoint writer (ckpt/snapshot.hpp) walks this
  /// to serialize the frontier; re-pushing the entries in this order
  /// reconstructs an equivalent active set. The view is invalidated by
  /// the next call that modifies the set.
  std::span<const VertexEntry> entries() const noexcept {
    return {first(), last()};
  }

  /// Degradation-ladder support (robust/degrade.hpp, kDF rung): switch
  /// selection to LIFO so the search degenerates into a depth-first dive
  /// that reaches leaves — and therefore incumbents — under memory
  /// pressure. Existing entries keep their container order (for a heap,
  /// an arbitrary but valid order); newly pushed children pop first.
  void degrade_to_lifo() noexcept { rule_ = SelectRule::kLIFO; }

 private:
  bool heap_less(const VertexEntry& a, const VertexEntry& b) const noexcept;
  /// Live entries are [first(), last()).
  VertexEntry* first() const noexcept {
    return static_cast<VertexEntry*>(storage_.data()) + head_;
  }
  VertexEntry* last() const noexcept {
    return static_cast<VertexEntry*>(storage_.data()) + end_;
  }
  /// Called by push() when the buffer is full.
  void make_room();

  SelectRule rule_;
  std::function<void(SlotRef)> release_;
  bool llb_tie_newest_;
  PageBuffer storage_;
  std::size_t head_ = 0;  ///< index of the oldest live entry (FIFO pops)
  std::size_t end_ = 0;   ///< one past the newest entry
};

}  // namespace parabb
