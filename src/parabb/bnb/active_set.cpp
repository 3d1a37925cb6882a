#include "parabb/bnb/active_set.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <vector>

#include "parabb/support/assert.hpp"

namespace parabb {

// Entries and segments are moved as raw bytes (make_room, PageBuffer::grow).
static_assert(std::is_trivially_copyable_v<VertexEntry>);
static_assert(std::is_trivially_copyable_v<SlotRef>);

namespace {

/// Initial ring size of an LLB set; it doubles up to kMaxBuckets.
constexpr std::size_t kInitialBuckets = 64;

/// The fixed order of LLB exports and prune releases.
bool by_bound_then_seq(const VertexEntry& a, const VertexEntry& b) {
  return a.lb != b.lb ? a.lb < b.lb : a.seq < b.seq;
}

/// The fixed order of LLB disposal releases.
bool worst_bound_then_oldest(const VertexEntry& a, const VertexEntry& b) {
  return a.lb != b.lb ? a.lb > b.lb : a.seq < b.seq;
}

}  // namespace

ActiveSet::ActiveSet(SelectRule rule, std::function<void(SlotRef)> release,
                     bool llb_tie_newest)
    : rule_(rule),
      release_(std::move(release)),
      llb_tie_newest_(llb_tie_newest),
      bucketed_(rule == SelectRule::kLLB),
      storage_(recycler::take_buffer()) {
  PARABB_REQUIRE(static_cast<bool>(release_), "release callback required");
  if (bucketed_) {
    buckets_.assign(kInitialBuckets, Bucket{kNoSegment, kNoSegment, 0, 0});
    occupied_.assign(kInitialBuckets / 64, 0);
  }
}

ActiveSet::~ActiveSet() { recycler::give_buffer(std::move(storage_)); }

// --- linear layouts ----------------------------------------------------

void ActiveSet::make_room() {
  // FIFO pops leave dead entries below head_. Once they are at least half
  // the buffer, sliding the live ones down is cheaper than growing.
  if (head_ > 0 && head_ >= size()) {
    std::memmove(storage_.data(), first(), size() * sizeof(VertexEntry));
    end_ -= head_;
    head_ = 0;
    return;
  }
  storage_.grow((end_ + 1) * sizeof(VertexEntry));
}

// std::push_heap builds a max-heap w.r.t. the comparator; we want the
// *least* lower bound on top. Among equal bounds the configured policy
// decides: oldest-first (default, textbook LLB) or newest-first (which
// turns plateau traversal into a LIFO dive).
bool ActiveSet::heap_less(const VertexEntry& a,
                          const VertexEntry& b) const noexcept {
  if (a.lb != b.lb) return a.lb > b.lb;
  return llb_tie_newest_ ? a.seq < b.seq : a.seq > b.seq;
}

void ActiveSet::make_heap() {
  std::make_heap(first(), last(),
                 [this](const VertexEntry& a, const VertexEntry& b) {
                   return heap_less(a, b);
                 });
}

// --- bucket layout -----------------------------------------------------

void ActiveSet::mark(Time lb, bool on) noexcept {
  const std::size_t i =
      static_cast<std::size_t>(lb) & (buckets_.size() - 1);
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  if (on) {
    occupied_[i >> 6] |= bit;
  } else {
    occupied_[i >> 6] &= ~bit;
  }
}

Time ActiveSet::next_occupied(Time from) const noexcept {
  const std::size_t i =
      static_cast<std::size_t>(from) & (buckets_.size() - 1);
  std::size_t w = i >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (i & 63));
  Time base = from - static_cast<Time>(i & 63);  // the bound of bit 0
  while (bits == 0) {
    base += 64;
    w = (w + 1) & (occupied_.size() - 1);
    bits = occupied_[w];
  }
  return base + std::countr_zero(bits);
}

Time ActiveSet::prev_occupied(Time from) const noexcept {
  const std::size_t i =
      static_cast<std::size_t>(from) & (buckets_.size() - 1);
  std::size_t w = i >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} >> (63 - (i & 63)));
  Time base = from - static_cast<Time>(i & 63);
  while (bits == 0) {
    base -= 64;
    w = (w - 1) & (occupied_.size() - 1);
    bits = occupied_[w];
  }
  return base + 63 - std::countl_zero(bits);
}

std::uint32_t ActiveSet::take_segment() {
  if (free_ != kNoSegment) {
    const std::uint32_t s = free_;
    free_ = segment(s).next;
    return s;
  }
  const std::size_t bytes = (segments_ + std::size_t{1}) * sizeof(Segment);
  if (bytes > storage_.bytes()) storage_.grow(bytes);
  return segments_++;
}

void ActiveSet::free_segment(std::uint32_t s) noexcept {
  segment(s).next = free_;
  free_ = s;
}

bool ActiveSet::widen(std::uint64_t span) {
  if (span > kMaxBuckets) return false;
  std::size_t size = buckets_.size();
  while (size < span) size *= 2;
  std::vector<Bucket> ring(size, Bucket{kNoSegment, kNoSegment, 0, 0});
  std::vector<std::uint64_t> occupied(size / 64, 0);
  if (!empty()) {
    for (Time lb = lo_; lb <= hi_; ++lb) {
      const std::size_t i = static_cast<std::size_t>(lb) & (size - 1);
      ring[i] = bucket(lb);
      if (ring[i].head_seg != kNoSegment) {
        occupied[i >> 6] |= std::uint64_t{1} << (i & 63);
      }
    }
  }
  buckets_ = std::move(ring);
  occupied_ = std::move(occupied);
  return true;
}

void ActiveSet::bucket_push(const VertexEntry& e) {
  // The window takes the new bound only once the item is stored, so a
  // failed allocation leaves the set as it was.
  Time lo = lo_;
  Time hi = hi_;
  if (empty()) {
    lo = hi = e.lb;
  } else if (e.lb < lo || e.lb > hi) {
    lo = std::min(lo, e.lb);
    hi = std::max(hi, e.lb);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span > buckets_.size() && !widen(span)) {
      to_heap();
      push(e);
      return;
    }
  }
  Bucket& b = bucket(e.lb);
  if (b.head_seg == kNoSegment) {
    const std::uint32_t s = take_segment();
    b = Bucket{s, s, 0, 0};
    mark(e.lb, true);
  } else if (segment(b.tail_seg).items[b.tail - 1].seq > e.seq) {
    // Out of seq order: only the heap keeps (bound, seq) order now.
    to_heap();
    push(e);
    return;
  } else if (b.tail == kSegmentItems) {
    const std::uint32_t s = take_segment();
    segment(b.tail_seg).next = s;
    segment(s).prev = b.tail_seg;
    b.tail_seg = s;
    b.tail = 0;
  }
  segment(b.tail_seg).items[b.tail++] = Item{e.seq, e.ref};
  lo_ = lo;
  hi_ = hi;
  ++end_;
}

ActiveSet::Item ActiveSet::pop_head(Bucket& b) noexcept {
  const Item it = segment(b.head_seg).items[b.head++];
  if (b.head_seg == b.tail_seg && b.head == b.tail) {
    free_segment(b.head_seg);
    b.head_seg = b.tail_seg = kNoSegment;
  } else if (b.head == kSegmentItems) {
    const std::uint32_t next = segment(b.head_seg).next;
    free_segment(b.head_seg);
    b.head_seg = next;
    b.head = 0;
  }
  return it;
}

ActiveSet::Item ActiveSet::pop_tail(Bucket& b) noexcept {
  const Item it = segment(b.tail_seg).items[--b.tail];
  if (b.head_seg == b.tail_seg && b.head == b.tail) {
    free_segment(b.tail_seg);
    b.head_seg = b.tail_seg = kNoSegment;
  } else if (b.tail == 0) {
    // Segments before the tail one are full up to their end.
    const std::uint32_t prev = segment(b.tail_seg).prev;
    free_segment(b.tail_seg);
    b.tail_seg = prev;
    b.tail = kSegmentItems;
  }
  return it;
}

std::vector<VertexEntry> ActiveSet::drain_buckets() const {
  std::vector<VertexEntry> out;
  out.reserve(size());
  if (empty()) return out;
  for (Time lb = lo_; lb <= hi_; ++lb) {
    const Bucket& b = bucket(lb);
    if (b.head_seg == kNoSegment) continue;
    for (std::uint32_t s = b.head_seg, i = b.head;;) {
      const std::uint32_t end = s == b.tail_seg ? b.tail : kSegmentItems;
      for (; i < end; ++i) {
        const Item& it = segment(s).items[i];
        out.push_back(VertexEntry{lb, it.seq, it.ref});
      }
      if (s == b.tail_seg) break;
      s = segment(s).next;
      i = 0;
    }
  }
  return out;
}

void ActiveSet::become_linear(const std::vector<VertexEntry>& entries) {
  const std::size_t bytes = entries.size() * sizeof(VertexEntry);
  if (bytes > storage_.bytes()) storage_.grow(bytes);
  if (bytes > 0) std::memcpy(storage_.data(), entries.data(), bytes);
  bucketed_ = false;
  buckets_ = {};
  occupied_ = {};
  segments_ = 0;
  free_ = kNoSegment;
  head_ = 0;
  end_ = entries.size();
}

void ActiveSet::to_heap() {
  become_linear(drain_buckets());
  make_heap();
}

// --- the selection rules -----------------------------------------------

void ActiveSet::push(const VertexEntry& e) {
  if (bucketed_) {
    bucket_push(e);
    return;
  }
  if ((end_ + 1) * sizeof(VertexEntry) > storage_.bytes()) make_room();
  ::new (last()) VertexEntry(e);
  ++end_;
  if (rule_ == SelectRule::kLLB) {
    std::push_heap(first(), last(),
                   [this](const VertexEntry& a, const VertexEntry& b) {
                     return heap_less(a, b);
                   });
  }
}

VertexEntry ActiveSet::pop() {
  PARABB_ASSERT(!empty());
  switch (rule_) {
    case SelectRule::kLIFO:
      --end_;
      return *last();
    case SelectRule::kFIFO: {
      const VertexEntry e = *first();
      if (++head_ == end_) head_ = end_ = 0;
      return e;
    }
    case SelectRule::kLLB: {
      if (!bucketed_) {
        std::pop_heap(first(), last(),
                      [this](const VertexEntry& a, const VertexEntry& b) {
                        return heap_less(a, b);
                      });
        --end_;
        return *last();
      }
      const Time lb = lo_;
      Bucket& b = bucket(lb);
      const Item it = llb_tie_newest_ ? pop_tail(b) : pop_head(b);
      --end_;
      if (b.head_seg == kNoSegment) {
        mark(lb, false);
        if (!empty()) lo_ = next_occupied(lb + 1);
      }
      return VertexEntry{lb, it.seq, it.ref};
    }
  }
  PARABB_ASSERT(false);
  return {};
}

VertexEntry ActiveSet::peek() const {
  PARABB_ASSERT(!empty());
  switch (rule_) {
    case SelectRule::kLIFO: return *(last() - 1);
    case SelectRule::kFIFO: return *first();
    case SelectRule::kLLB: {
      if (!bucketed_) return *first();  // heap root
      const Bucket& b = bucket(lo_);
      const Item& it = llb_tie_newest_
                           ? segment(b.tail_seg).items[b.tail - 1]
                           : segment(b.head_seg).items[b.head];
      return VertexEntry{lo_, it.seq, it.ref};
    }
  }
  PARABB_ASSERT(false);
  return *first();
}

Time ActiveSet::min_lb() const {
  PARABB_ASSERT(!empty());
  if (bucketed_) return lo_;
  if (rule_ == SelectRule::kLLB) return first()->lb;
  Time lo = first()->lb;
  for (const VertexEntry* e = first(); e != last(); ++e) {
    lo = std::min(lo, e->lb);
  }
  return lo;
}

std::size_t ActiveSet::prune_worse(Time threshold) {
  if (bucketed_) {
    // Whole buckets, least bound first, each head to tail.
    if (empty() || threshold > hi_) return 0;
    const std::size_t before = size();
    for (Time lb = std::max(lo_, threshold); lb <= hi_; ++lb) {
      Bucket& b = bucket(lb);
      if (b.head_seg == kNoSegment) continue;
      mark(lb, false);
      while (b.head_seg != kNoSegment) {
        --end_;
        release_(pop_head(b).ref);
      }
    }
    if (!empty()) hi_ = prev_occupied(threshold - 1);
    return before - size();
  }
  const auto hopeless = [threshold](const VertexEntry& e) {
    return e.lb >= threshold;
  };
  VertexEntry* keep_end = nullptr;
  if (rule_ == SelectRule::kLLB) {
    // Released in ascending (bound, seq), whatever the heap's array order.
    keep_end = std::partition(first(), last(), std::not_fn(hopeless));
    std::sort(keep_end, last(), by_bound_then_seq);
    for (const VertexEntry* e = keep_end; e != last(); ++e) release_(e->ref);
  } else {
    keep_end = std::remove_if(first(), last(), [&](const VertexEntry& e) {
      if (!hopeless(e)) return false;
      release_(e.ref);
      return true;
    });
  }
  const auto pruned = static_cast<std::size_t>(last() - keep_end);
  end_ -= pruned;
  if (rule_ == SelectRule::kLLB && pruned > 0) make_heap();
  return pruned;
}

std::size_t ActiveSet::dispose_worst(std::size_t count) {
  if (count == 0 || empty()) return 0;
  count = std::min(count, size());
  if (bucketed_) {
    // The top bucket's head is the oldest of the worst.
    for (std::size_t n = 0; n < count; ++n) {
      Bucket& b = bucket(hi_);
      const Item it = pop_head(b);
      --end_;
      if (b.head_seg == kNoSegment) {
        mark(hi_, false);
        if (!empty()) hi_ = prev_occupied(hi_ - 1);
      }
      release_(it.ref);
    }
    return count;
  }

  // The bound cutoff of the count-th worst entry, then the seq cutoff of
  // the ties to drop with it: oldest first.
  std::vector<Time> lbs;
  lbs.reserve(size());
  for (const VertexEntry* e = first(); e != last(); ++e) lbs.push_back(e->lb);
  std::nth_element(lbs.begin(), lbs.begin() + static_cast<std::ptrdiff_t>(
                                     count - 1),
                   lbs.end(), std::greater<>());
  const Time cutoff = lbs[count - 1];
  std::vector<std::uint32_t> tie_seqs;
  std::size_t strictly_above = 0;
  for (const VertexEntry* e = first(); e != last(); ++e) {
    if (e->lb > cutoff) ++strictly_above;
    if (e->lb == cutoff) tie_seqs.push_back(e->seq);
  }
  std::size_t ties_to_drop = count - strictly_above;
  std::nth_element(tie_seqs.begin(),
                   tie_seqs.begin() +
                       static_cast<std::ptrdiff_t>(ties_to_drop - 1),
                   tie_seqs.end());
  const std::uint32_t seq_cutoff = tie_seqs[ties_to_drop - 1];
  const auto drop = [&](const VertexEntry& e) {
    if (e.lb != cutoff) return e.lb > cutoff;
    if (e.seq > seq_cutoff || ties_to_drop == 0) return false;
    --ties_to_drop;
    return true;
  };

  std::vector<VertexEntry> dropped;
  dropped.reserve(count);
  VertexEntry* keep_end = first();
  for (const VertexEntry* e = first(); e != last(); ++e) {
    if (drop(*e)) {
      dropped.push_back(*e);
    } else {
      *keep_end++ = *e;
    }
  }
  end_ -= dropped.size();
  if (rule_ == SelectRule::kLLB) {
    // Released worst bound first, oldest first within a bound.
    std::sort(dropped.begin(), dropped.end(), worst_bound_then_oldest);
    make_heap();
  }
  for (const VertexEntry& e : dropped) release_(e.ref);
  return dropped.size();
}

std::vector<VertexEntry> ActiveSet::entries() const {
  if (bucketed_) return drain_buckets();
  std::vector<VertexEntry> out(first(), last());
  if (rule_ == SelectRule::kLLB) {
    std::sort(out.begin(), out.end(), by_bound_then_seq);
  }
  return out;
}

void ActiveSet::degrade_to_lifo() {
  if (rule_ == SelectRule::kLLB) {
    if (bucketed_) become_linear(drain_buckets());
    // LIFO pops the back first: lay the entries out in reverse LLB order.
    std::sort(first(), last(),
              [this](const VertexEntry& a, const VertexEntry& b) {
                return heap_less(a, b);
              });
  }
  rule_ = SelectRule::kLIFO;
}

}  // namespace parabb
