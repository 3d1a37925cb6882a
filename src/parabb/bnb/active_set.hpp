// The active set AS and the three vertex selection rules S (paper §3.2).
//
//  * LIFO — stack (newest first): depth-first dives that reach goal
//    vertices quickly and keep the set small; pop order matches the pool's
//    allocation locality (the §6 paging observation).
//  * FIFO — queue (oldest first): breadth-first; kept for completeness.
//  * LLB  — least lower bound first. Tie-breaking among equal bounds is
//    configurable and matters enormously in practice: integer lateness
//    costs make large plateaus of equal-bound vertices, and oldest-first
//    ties (the default, textbook LLB) wander those plateaus
//    breadth-first, while newest-first ties degenerate LLB into a LIFO
//    dive (see bench/ablation_llbtie).
//
// LLB is a bucket queue on the integer bound: one bucket per bound value
// over a window of at most kMaxBuckets consecutive values (a ring indexed
// by the bound's low bits, so it slides with the live bounds and doubles
// when their span outgrows it), and a cursor on the least non-empty
// bucket, which a bitmap of the non-empty buckets moves 64 buckets per
// step. Each bucket is a FIFO of fixed-size segments of (seq, handle)
// items: a pop takes the cursor bucket's head (oldest first) or, under
// llb_tie_newest, its tail. Because seq grows with every push, this is
// exactly the order of a heap on (bound, seq): least bound first, ties by
// the configured policy. Push, peek and min_lb are O(1), and so is a pop
// that leaves its bucket non-empty; prune_worse and dispose_worst drop
// whole buckets from the top.
//
// The heap stays as the fallback for keys no window holds: the set moves
// its entries into a binary heap, for the rest of its life, the first time
// the live bounds span more than kMaxBuckets values (time-scaled or
// large-time-unit inputs) or a push carries a seq below that of its
// bucket's newest entry (a frontier replayed out of order). Both layouts
// pop the same sequence.
//
// Whatever the layout, LLB's observable orders are fixed by (bound, seq):
//  * prune_worse releases, and so certifies, in ascending (bound, seq);
//  * dispose_worst drops the largest bounds, ties oldest first, and
//    releases them worst bound first, oldest first within a bound;
//  * entries() (the checkpoint export) lists ascending (bound, seq);
//  * degrade_to_lifo leaves LIFO popping the remaining entries in LLB
//    order.
//
// U/DBAS elimination is *eager*: prune_worse() releases every vertex whose
// bound can no longer beat the incumbent at once (an LLB set drops whole
// buckets) — so size() is an exact measure of AS memory (MAXSZAS).
//
// Everything lives in one PageBuffer (support/recycler.hpp): LIFO, FIFO
// and the heap keep their entries contiguous there, and the buckets carve
// their segments from it. Growth remaps pages instead of copying, FIFO
// pops advance a head index, and a destroyed set hands its buffer to the
// thread's recycler for the next solve.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "parabb/bnb/params.hpp"
#include "parabb/bnb/vertex.hpp"
#include "parabb/support/recycler.hpp"

namespace parabb {

class ActiveSet {
 public:
  /// Widest span of live LLB bounds the bucket window holds.
  static constexpr std::size_t kMaxBuckets = 4096;

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

  /// The entry pop() would return (LLB stop-condition check).
  VertexEntry peek() const;

  bool empty() const noexcept { return head_ == end_; }
  std::size_t size() const noexcept { return end_ - head_; }

  /// Least lower bound among all entries (O(1) for LLB, O(n) otherwise).
  /// Precondition: !empty(). Used for optimality-gap certificates.
  Time min_lb() const;

  /// E_U/DBAS applied to AS: removes every entry with lb >= threshold.
  /// Returns the number pruned.
  std::size_t prune_worse(Time threshold);

  /// RB.MAXSZAS overflow handling: disposes the `count` entries with the
  /// largest bounds, ties oldest (least seq) first. Returns the number
  /// disposed (== count unless the set is smaller).
  std::size_t dispose_worst(std::size_t count);

  /// Every live entry, in the order the checkpoint writer
  /// (ckpt/snapshot.hpp) serializes the frontier: LIFO/FIFO in insertion
  /// order, LLB in ascending (bound, seq). Re-pushing the entries in this
  /// order rebuilds a set that pops exactly as this one does.
  std::vector<VertexEntry> entries() const;

  /// Degradation-ladder support (robust/degrade.hpp, kDF rung): switch
  /// selection to LIFO so the search degenerates into a depth-first dive
  /// that reaches leaves — and therefore incumbents — under memory
  /// pressure. An LLB set is laid out so that LIFO pops its entries in
  /// LLB order; newly pushed children pop first.
  void degrade_to_lifo();

  /// True while an LLB set keeps its entries in buckets; false once it has
  /// fallen back to the heap, and for LIFO/FIFO.
  bool bucketed() const noexcept { return bucketed_; }

 private:
  /// A bucket entry: the bound is the bucket's.
  struct Item {
    std::uint32_t seq;
    SlotRef ref;
  };
  static constexpr std::uint32_t kSegmentItems = 340;
  /// A link in its bucket's chain of segments; just under 4 KiB.
  struct Segment {
    std::uint32_t next;
    std::uint32_t prev;
    Item items[kSegmentItems];
  };
  /// A FIFO of segments: items [head, tail) run from the head segment's
  /// `head` to the tail segment's `tail`. An empty bucket has no segment.
  struct Bucket {
    std::uint32_t head_seg;
    std::uint32_t tail_seg;
    std::uint32_t head;
    std::uint32_t tail;
  };
  static constexpr std::uint32_t kNoSegment = 0xFFFFFFFFu;

  // --- the linear layouts: LIFO, FIFO and the LLB heap ---
  bool heap_less(const VertexEntry& a, const VertexEntry& b) const noexcept;
  void make_heap();
  /// Live entries are [first(), last()).
  VertexEntry* first() const noexcept {
    return static_cast<VertexEntry*>(storage_.data()) + head_;
  }
  VertexEntry* last() const noexcept {
    return static_cast<VertexEntry*>(storage_.data()) + end_;
  }
  /// Called by push() when the buffer is full.
  void make_room();

  // --- the bucket layout ---
  Segment& segment(std::uint32_t s) const noexcept {
    return static_cast<Segment*>(storage_.data())[s];
  }
  Bucket& bucket(Time lb) noexcept {
    return buckets_[static_cast<std::size_t>(lb) & (buckets_.size() - 1)];
  }
  const Bucket& bucket(Time lb) const noexcept {
    return buckets_[static_cast<std::size_t>(lb) & (buckets_.size() - 1)];
  }
  /// Marks the bucket of `lb` non-empty (`on`) or empty in occupied_.
  void mark(Time lb, bool on) noexcept;
  /// The least bound >= `from` whose bucket is non-empty; one must lie
  /// within the ring's span of `from`.
  Time next_occupied(Time from) const noexcept;
  /// The greatest bound <= `from` whose bucket is non-empty; likewise.
  Time prev_occupied(Time from) const noexcept;
  std::uint32_t take_segment();
  void free_segment(std::uint32_t s) noexcept;
  void bucket_push(const VertexEntry& e);
  Item pop_head(Bucket& b) noexcept;
  Item pop_tail(Bucket& b) noexcept;
  /// Grows the ring to hold `span` consecutive bounds; false when no
  /// window of kMaxBuckets can.
  bool widen(std::uint64_t span);
  /// Every entry, least bound first, each bucket head to tail.
  std::vector<VertexEntry> drain_buckets() const;
  /// Leaves the bucket layout for the linear one holding `entries`.
  void become_linear(const std::vector<VertexEntry>& entries);
  /// The fallback: the heap, for the rest of the set's life.
  void to_heap();

  SelectRule rule_;
  std::function<void(SlotRef)> release_;
  bool llb_tie_newest_;
  bool bucketed_;
  PageBuffer storage_;
  // Linear layouts: entries [head_, end_) of storage_. Bucket layout:
  // head_ stays 0 and end_ counts the entries.
  std::size_t head_ = 0;  ///< index of the oldest live entry (FIFO pops)
  std::size_t end_ = 0;   ///< one past the newest entry
  // Bucket layout: bounds lo_..hi_ hold every entry, lo_'s bucket (the
  // cursor) and hi_'s are non-empty while the set is.
  std::vector<Bucket> buckets_;  ///< ring; size a power of two
  /// One bit per ring slot, set while its bucket is non-empty, so the
  /// cursor skips empty buckets 64 at a time.
  std::vector<std::uint64_t> occupied_;
  Time lo_ = 0;
  Time hi_ = 0;
  std::uint32_t segments_ = 0;  ///< segments carved from storage_ so far
  std::uint32_t free_ = kNoSegment;  ///< free segments, linked by next
};

}  // namespace parabb
