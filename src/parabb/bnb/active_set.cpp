#include "parabb/bnb/active_set.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "parabb/support/assert.hpp"

namespace parabb {

// Entries are moved as raw bytes (make_room, PageBuffer::grow).
static_assert(std::is_trivially_copyable_v<VertexEntry>);

ActiveSet::ActiveSet(SelectRule rule, std::function<void(SlotRef)> release,
                     bool llb_tie_newest)
    : rule_(rule),
      release_(std::move(release)),
      llb_tie_newest_(llb_tie_newest),
      storage_(recycler::take_buffer()) {
  PARABB_REQUIRE(static_cast<bool>(release_), "release callback required");
}

ActiveSet::~ActiveSet() { recycler::give_buffer(std::move(storage_)); }

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

void ActiveSet::push(const VertexEntry& e) {
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
    case SelectRule::kLLB:
      std::pop_heap(first(), last(),
                    [this](const VertexEntry& a, const VertexEntry& b) {
                      return heap_less(a, b);
                    });
      --end_;
      return *last();
  }
  PARABB_ASSERT(false);
  return {};
}

const VertexEntry& ActiveSet::peek() const {
  PARABB_ASSERT(!empty());
  switch (rule_) {
    case SelectRule::kLIFO: return *(last() - 1);
    case SelectRule::kFIFO: return *first();
    case SelectRule::kLLB: return *first();  // heap root
  }
  PARABB_ASSERT(false);
  return *first();
}

Time ActiveSet::min_lb() const {
  PARABB_ASSERT(!empty());
  if (rule_ == SelectRule::kLLB) return first()->lb;
  Time lo = first()->lb;
  for (const VertexEntry& e : entries()) lo = std::min(lo, e.lb);
  return lo;
}

std::size_t ActiveSet::prune_worse(Time threshold) {
  std::size_t pruned = 0;
  const VertexEntry* const keep_end =
      std::remove_if(first(), last(), [&](const VertexEntry& e) {
        if (e.lb < threshold) return false;
        release_(e.ref);
        ++pruned;
        return true;
      });
  end_ = static_cast<std::size_t>(keep_end - first()) + head_;
  if (rule_ == SelectRule::kLLB && pruned > 0) {
    std::make_heap(first(), last(),
                   [this](const VertexEntry& a, const VertexEntry& b) {
                     return heap_less(a, b);
                   });
  }
  return pruned;
}

std::size_t ActiveSet::dispose_worst(std::size_t count) {
  if (count == 0 || empty()) return 0;
  count = std::min(count, size());

  // Find the bound cutoff of the count-th worst entry.
  std::vector<Time> lbs;
  lbs.reserve(size());
  for (const VertexEntry& e : entries()) lbs.push_back(e.lb);
  std::nth_element(lbs.begin(), lbs.begin() + static_cast<std::ptrdiff_t>(
                                     count - 1),
                   lbs.end(), std::greater<>());
  const Time cutoff = lbs[count - 1];

  // Drop everything strictly above the cutoff, then enough ties
  // (oldest-first, i.e. in container order) to reach `count`.
  std::size_t strictly_above = 0;
  for (const VertexEntry& e : entries())
    if (e.lb > cutoff) ++strictly_above;
  std::size_t ties_to_drop = count - strictly_above;

  std::size_t disposed = 0;
  const VertexEntry* const keep_end =
      std::remove_if(first(), last(), [&](const VertexEntry& e) {
        const bool drop =
            e.lb > cutoff || (e.lb == cutoff && ties_to_drop > 0);
        if (!drop) return false;
        if (e.lb == cutoff) --ties_to_drop;
        release_(e.ref);
        ++disposed;
        return true;
      });
  end_ = static_cast<std::size_t>(keep_end - first()) + head_;
  if (rule_ == SelectRule::kLLB && disposed > 0) {
    std::make_heap(first(), last(),
                   [this](const VertexEntry& a, const VertexEntry& b) {
                     return heap_less(a, b);
                   });
  }
  return disposed;
}

}  // namespace parabb
