#include "parabb/bnb/active_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <random>
#include <set>
#include <thread>
#include <vector>

namespace parabb {
namespace {

VertexEntry entry(Time lb, std::uint32_t seq) {
  return VertexEntry{lb, seq, SlotRef{seq, 0}};
}

struct Harness {
  std::multiset<std::uint32_t> released;
  ActiveSet as;

  explicit Harness(SelectRule rule, bool llb_tie_newest = true)
      : as(rule, [this](SlotRef r) { released.insert(r.index); },
           llb_tie_newest) {}
};

TEST(ActiveSet, LifoPopsNewestFirst) {
  Harness h(SelectRule::kLIFO);
  h.as.push(entry(5, 0));
  h.as.push(entry(1, 1));
  h.as.push(entry(9, 2));
  EXPECT_EQ(h.as.pop().seq, 2u);
  EXPECT_EQ(h.as.pop().seq, 1u);
  EXPECT_EQ(h.as.pop().seq, 0u);
  EXPECT_TRUE(h.as.empty());
}

TEST(ActiveSet, FifoPopsOldestFirst) {
  Harness h(SelectRule::kFIFO);
  h.as.push(entry(5, 0));
  h.as.push(entry(1, 1));
  EXPECT_EQ(h.as.pop().seq, 0u);
  EXPECT_EQ(h.as.pop().seq, 1u);
}

TEST(ActiveSet, LlbPopsLeastBoundFirst) {
  Harness h(SelectRule::kLLB);
  h.as.push(entry(5, 0));
  h.as.push(entry(1, 1));
  h.as.push(entry(9, 2));
  h.as.push(entry(3, 3));
  EXPECT_EQ(h.as.pop().lb, 1);
  EXPECT_EQ(h.as.pop().lb, 3);
  EXPECT_EQ(h.as.pop().lb, 5);
  EXPECT_EQ(h.as.pop().lb, 9);
}

TEST(ActiveSet, LlbTiesBreakNewestFirstWhenConfigured) {
  Harness h(SelectRule::kLLB, /*llb_tie_newest=*/true);
  h.as.push(entry(4, 0));
  h.as.push(entry(4, 1));
  h.as.push(entry(4, 2));
  EXPECT_EQ(h.as.pop().seq, 2u);
  EXPECT_EQ(h.as.pop().seq, 1u);
  EXPECT_EQ(h.as.pop().seq, 0u);
}

TEST(ActiveSet, LlbTiesBreakOldestFirstByDefault) {
  Harness h(SelectRule::kLLB, /*llb_tie_newest=*/false);
  h.as.push(entry(4, 0));
  h.as.push(entry(4, 1));
  h.as.push(entry(4, 2));
  EXPECT_EQ(h.as.pop().seq, 0u);
  EXPECT_EQ(h.as.pop().seq, 1u);
  EXPECT_EQ(h.as.pop().seq, 2u);
}

TEST(ActiveSet, PeekMatchesPop) {
  for (const SelectRule rule :
       {SelectRule::kLIFO, SelectRule::kFIFO, SelectRule::kLLB}) {
    Harness h(rule);
    h.as.push(entry(5, 0));
    h.as.push(entry(1, 1));
    h.as.push(entry(7, 2));
    while (!h.as.empty()) {
      const std::uint32_t expected = h.as.peek().seq;
      EXPECT_EQ(h.as.pop().seq, expected);
    }
  }
}

TEST(ActiveSet, PruneWorseReleasesAndCompacts) {
  Harness h(SelectRule::kLIFO);
  h.as.push(entry(10, 0));
  h.as.push(entry(-5, 1));
  h.as.push(entry(3, 2));
  h.as.push(entry(3, 3));
  EXPECT_EQ(h.as.prune_worse(3), 3u);  // 10 and both 3s go
  EXPECT_EQ(h.as.size(), 1u);
  EXPECT_EQ(h.released, (std::multiset<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(h.as.pop().seq, 1u);
}

TEST(ActiveSet, PruneWorseKeepsHeapValid) {
  Harness h(SelectRule::kLLB);
  for (std::uint32_t i = 0; i < 20; ++i)
    h.as.push(entry(static_cast<Time>(20 - i), i));
  h.as.prune_worse(10);
  Time prev = kTimeNegInf;
  while (!h.as.empty()) {
    const Time lb = h.as.pop().lb;
    EXPECT_GE(lb, prev);
    EXPECT_LT(lb, 10);
    prev = lb;
  }
}

TEST(ActiveSet, DisposeWorstDropsLargestBounds) {
  Harness h(SelectRule::kLIFO);
  h.as.push(entry(1, 0));
  h.as.push(entry(8, 1));
  h.as.push(entry(5, 2));
  h.as.push(entry(9, 3));
  EXPECT_EQ(h.as.dispose_worst(2), 2u);
  EXPECT_EQ(h.as.size(), 2u);
  EXPECT_EQ(h.released, (std::multiset<std::uint32_t>{1, 3}));
}

TEST(ActiveSet, DisposeWorstHandlesTies) {
  Harness h(SelectRule::kFIFO);
  h.as.push(entry(5, 0));
  h.as.push(entry(5, 1));
  h.as.push(entry(5, 2));
  EXPECT_EQ(h.as.dispose_worst(2), 2u);
  EXPECT_EQ(h.as.size(), 1u);
}

TEST(ActiveSet, DisposeWorstClampedToSize) {
  Harness h(SelectRule::kLIFO);
  h.as.push(entry(1, 0));
  EXPECT_EQ(h.as.dispose_worst(10), 1u);
  EXPECT_TRUE(h.as.empty());
  EXPECT_EQ(h.as.dispose_worst(3), 0u);
}

TEST(ActiveSet, PruneEverything) {
  Harness h(SelectRule::kLLB);
  h.as.push(entry(4, 0));
  h.as.push(entry(6, 1));
  EXPECT_EQ(h.as.prune_worse(kTimeNegInf), 2u);
  EXPECT_TRUE(h.as.empty());
}

TEST(ActiveSet, RequiresReleaseCallback) {
  EXPECT_THROW(ActiveSet(SelectRule::kLIFO, nullptr), precondition_error);
}

/// The active set as it was before its storage became contiguous: a
/// std::deque under the same heap calls and comparator. Snapshots
/// serialize entries() order and dispose_worst resolves ties in it, so
/// the contiguous storage must reproduce this model exactly.
class DequeModel {
 public:
  DequeModel(SelectRule rule, bool tie_newest, std::vector<std::uint32_t>& log)
      : rule_(rule), tie_newest_(tie_newest), log_(log) {}

  void push(const VertexEntry& e) {
    q_.push_back(e);
    if (rule_ == SelectRule::kLLB) std::push_heap(q_.begin(), q_.end(), less());
  }
  VertexEntry pop() {
    VertexEntry e{};
    if (rule_ == SelectRule::kFIFO) {
      e = q_.front();
      q_.pop_front();
      return e;
    }
    if (rule_ == SelectRule::kLLB) std::pop_heap(q_.begin(), q_.end(), less());
    e = q_.back();
    q_.pop_back();
    return e;
  }
  std::size_t prune_worse(Time threshold) {
    const std::size_t before = q_.size();
    erase_if([&](const VertexEntry& e) { return e.lb >= threshold; });
    return before - q_.size();
  }
  std::size_t dispose_worst(std::size_t count) {
    if (count == 0 || q_.empty()) return 0;
    count = std::min(count, q_.size());
    std::vector<Time> lbs;
    for (const VertexEntry& e : q_) lbs.push_back(e.lb);
    std::nth_element(lbs.begin(),
                     lbs.begin() + static_cast<std::ptrdiff_t>(count - 1),
                     lbs.end(), std::greater<>());
    const Time cutoff = lbs[count - 1];
    std::size_t ties = count;
    for (const VertexEntry& e : q_)
      if (e.lb > cutoff) --ties;
    erase_if([&](const VertexEntry& e) {
      if (e.lb > cutoff) return true;
      if (e.lb < cutoff || ties == 0) return false;
      --ties;
      return true;
    });
    return count;
  }
  void degrade_to_lifo() { rule_ = SelectRule::kLIFO; }
  const std::deque<VertexEntry>& entries() const { return q_; }

 private:
  std::function<bool(const VertexEntry&, const VertexEntry&)> less() const {
    const bool newest = tie_newest_;
    return [newest](const VertexEntry& a, const VertexEntry& b) {
      if (a.lb != b.lb) return a.lb > b.lb;
      return newest ? a.seq < b.seq : a.seq > b.seq;
    };
  }
  template <typename Drop>
  void erase_if(Drop drop) {
    const auto keep_end =
        std::remove_if(q_.begin(), q_.end(), [&](const VertexEntry& e) {
          if (!drop(e)) return false;
          log_.push_back(e.ref.index);
          return true;
        });
    const bool removed = keep_end != q_.end();
    q_.erase(keep_end, q_.end());
    if (removed && rule_ == SelectRule::kLLB) {
      std::make_heap(q_.begin(), q_.end(), less());
    }
  }

  SelectRule rule_;
  bool tie_newest_;
  std::vector<std::uint32_t>& log_;
  std::deque<VertexEntry> q_;
};

/// Drives ActiveSet and the deque model through one seeded mix of push,
/// pop, prune_worse, dispose_worst and degrade_to_lifo; after every step
/// the popped entries, released handles (in release order) and entries()
/// order must agree.
void run_against_model(SelectRule rule, bool tie_newest, std::uint64_t seed) {
  std::vector<std::uint32_t> got_log, want_log;
  ActiveSet as(rule, [&](SlotRef r) { got_log.push_back(r.index); },
               tie_newest);
  DequeModel model(rule, tie_newest, want_log);
  std::mt19937_64 rng(seed);
  std::uint32_t seq = 0;
  const auto same_entries = [&] {
    const auto got = as.entries();
    const auto& want = model.entries();
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].lb != want[i].lb || got[i].seq != want[i].seq ||
          got[i].ref != want[i].ref)
        return false;
    }
    return true;
  };
  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t op = rng() % 100;
    if (op < 55 || as.empty()) {
      // Narrow bound range: plenty of ties for the tie-breaking rules.
      const VertexEntry e{static_cast<Time>(rng() % 12), seq,
                          SlotRef{seq, seq % 7}};
      ++seq;
      as.push(e);
      model.push(e);
    } else if (op < 95) {
      const VertexEntry got = as.pop();
      const VertexEntry want = model.pop();
      ASSERT_EQ(got.seq, want.seq) << "step " << step;
      ASSERT_EQ(got.lb, want.lb);
    } else if (op < 97) {
      const auto threshold = static_cast<Time>(6 + rng() % 6);
      ASSERT_EQ(as.prune_worse(threshold), model.prune_worse(threshold));
    } else if (op < 99) {
      const std::size_t count = rng() % (as.size() / 4 + 2);
      ASSERT_EQ(as.dispose_worst(count), model.dispose_worst(count));
    } else if (rng() % 8 == 0) {
      as.degrade_to_lifo();
      model.degrade_to_lifo();
    }
    ASSERT_EQ(as.size(), model.entries().size());
    ASSERT_TRUE(same_entries()) << "entries() order diverged at step " << step;
    ASSERT_EQ(got_log, want_log) << "release order diverged at step " << step;
  }
}

TEST(ActiveSet, ContiguousStorageMatchesDequeModel) {
  for (const SelectRule rule :
       {SelectRule::kLIFO, SelectRule::kFIFO, SelectRule::kLLB}) {
    for (const bool tie_newest : {false, true}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        run_against_model(rule, tie_newest, seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// The second set on a thread takes the first one's recycled buffer, stale
// entries and all; the order must be the same as on a fresh thread.
TEST(ActiveSet, RecycledBufferMatchesFreshThread) {
  const auto trace = [](SelectRule rule) {
    std::vector<std::uint32_t> out;
    ActiveSet as(rule, [&](SlotRef r) { out.push_back(r.index); });
    for (std::uint32_t i = 0; i < 5000; ++i) {
      as.push(entry(static_cast<Time>((i * 7919) % 13), i));
      if (i % 3 == 2) out.push_back(as.pop().seq);
    }
    as.prune_worse(10);
    as.dispose_worst(as.size() / 3);
    while (!as.empty()) out.push_back(as.pop().seq);
    return out;
  };
  for (const SelectRule rule :
       {SelectRule::kLIFO, SelectRule::kFIFO, SelectRule::kLLB}) {
    std::vector<std::uint32_t> cold;
    std::thread([&] { cold = trace(rule); }).join();
    trace(SelectRule::kLLB);  // leaves a dirty buffer on this thread
    EXPECT_EQ(trace(rule), cold);
  }
}

}  // namespace
}  // namespace parabb
