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

TEST(ActiveSet, LlbFallsBackToTheHeapOnAWideSpan) {
  Harness h(SelectRule::kLLB, /*llb_tie_newest=*/false);
  EXPECT_TRUE(h.as.bucketed());
  h.as.push(entry(-10, 0));
  const auto top = static_cast<Time>(ActiveSet::kMaxBuckets) - 11;
  h.as.push(entry(top, 1));  // a span of exactly kMaxBuckets bounds
  EXPECT_TRUE(h.as.bucketed());
  h.as.push(entry(top + 1, 2));
  EXPECT_FALSE(h.as.bucketed());
  h.as.push(entry(-10, 3));
  EXPECT_EQ(h.as.pop().seq, 0u);
  EXPECT_EQ(h.as.pop().seq, 3u);
  EXPECT_EQ(h.as.pop().seq, 1u);
  EXPECT_EQ(h.as.pop().seq, 2u);
}

TEST(ActiveSet, LlbFallsBackToTheHeapOnAnOutOfOrderSeq) {
  Harness h(SelectRule::kLLB, /*llb_tie_newest=*/false);
  h.as.push(entry(4, 5));
  h.as.push(entry(3, 1));  // another bucket: still in order there
  EXPECT_TRUE(h.as.bucketed());
  h.as.push(entry(4, 2));
  EXPECT_FALSE(h.as.bucketed());
  EXPECT_EQ(h.as.pop().seq, 1u);
  EXPECT_EQ(h.as.pop().seq, 2u);
  EXPECT_EQ(h.as.pop().seq, 5u);
}

TEST(ActiveSet, LifoAndFifoAreNotBucketed) {
  EXPECT_FALSE(Harness(SelectRule::kLIFO).as.bucketed());
  EXPECT_FALSE(Harness(SelectRule::kFIFO).as.bucketed());
}

TEST(ActiveSet, RequiresReleaseCallback) {
  EXPECT_THROW(ActiveSet(SelectRule::kLIFO, nullptr), precondition_error);
}

/// The active set's observable order, specified without a container:
/// LIFO and FIFO follow insertion order, and LLB follows (bound, seq)
/// alone — pops take the least bound (ties by the configured policy),
/// prune_worse releases in ascending (bound, seq), dispose_worst drops the
/// largest bounds, ties oldest first, and releases them worst bound first,
/// oldest first within a bound, entries() lists ascending (bound, seq), and
/// degrade_to_lifo leaves LIFO popping in LLB order. Any LLB container that
/// pops exactly must match it step for step.
class DequeModel {
 public:
  DequeModel(SelectRule rule, bool tie_newest, std::vector<std::uint32_t>& log)
      : rule_(rule), tie_newest_(tie_newest), log_(log) {}

  void push(const VertexEntry& e) { q_.push_back(e); }
  VertexEntry pop() {
    auto it = q_.end() - 1;
    if (rule_ == SelectRule::kFIFO) it = q_.begin();
    if (rule_ == SelectRule::kLLB) {
      it = std::max_element(q_.begin(), q_.end(), less());
    }
    const VertexEntry e = *it;
    q_.erase(it);
    return e;
  }
  std::size_t prune_worse(Time threshold) {
    std::vector<VertexEntry> out =
        take([&](const VertexEntry& e) { return e.lb >= threshold; });
    if (rule_ == SelectRule::kLLB) {
      std::sort(out.begin(), out.end(), ascending);
    }
    return log(out);
  }
  std::size_t dispose_worst(std::size_t count) {
    if (count == 0 || q_.empty()) return 0;
    std::vector<VertexEntry> worst(q_.begin(), q_.end());
    std::sort(worst.begin(), worst.end(),
              [](const VertexEntry& a, const VertexEntry& b) {
                return a.lb != b.lb ? a.lb > b.lb : a.seq < b.seq;
              });
    worst.resize(std::min(count, worst.size()));
    std::set<std::uint32_t> doomed;
    for (const VertexEntry& e : worst) doomed.insert(e.seq);
    std::vector<VertexEntry> out =
        take([&](const VertexEntry& e) { return doomed.count(e.seq) > 0; });
    return log(rule_ == SelectRule::kLLB ? worst : out);
  }
  void degrade_to_lifo() {
    if (rule_ == SelectRule::kLLB) std::sort(q_.begin(), q_.end(), less());
    rule_ = SelectRule::kLIFO;
  }
  std::deque<VertexEntry> entries() const {
    std::deque<VertexEntry> out = q_;
    if (rule_ == SelectRule::kLLB) {
      std::sort(out.begin(), out.end(), ascending);
    }
    return out;
  }

 private:
  static bool ascending(const VertexEntry& a, const VertexEntry& b) {
    return a.lb != b.lb ? a.lb < b.lb : a.seq < b.seq;
  }
  /// "a pops after b" under the LLB rule.
  std::function<bool(const VertexEntry&, const VertexEntry&)> less() const {
    const bool newest = tie_newest_;
    return [newest](const VertexEntry& a, const VertexEntry& b) {
      if (a.lb != b.lb) return a.lb > b.lb;
      return newest ? a.seq < b.seq : a.seq > b.seq;
    };
  }
  /// Removes the entries `drop` selects; returns them in container order.
  template <typename Drop>
  std::vector<VertexEntry> take(Drop drop) {
    std::vector<VertexEntry> out;
    std::deque<VertexEntry> kept;
    for (const VertexEntry& e : q_) {
      if (drop(e)) {
        out.push_back(e);
      } else {
        kept.push_back(e);
      }
    }
    q_ = std::move(kept);
    return out;
  }
  std::size_t log(const std::vector<VertexEntry>& released) {
    for (const VertexEntry& e : released) log_.push_back(e.ref.index);
    return released.size();
  }

  SelectRule rule_;
  bool tie_newest_;
  std::vector<std::uint32_t>& log_;
  std::deque<VertexEntry> q_;
};

/// Drives ActiveSet and the model through one seeded mix of push, pop,
/// prune_worse, dispose_worst and degrade_to_lifo; after every step the
/// popped entries, released handles (in release order) and entries()
/// order must agree. Keys span `narrow_span` values for the first
/// `narrow_steps` steps and `wide_span` after.
void run_against_model(SelectRule rule, bool tie_newest, std::uint64_t seed,
                       Time narrow_span, int narrow_steps, Time wide_span) {
  std::vector<std::uint32_t> got_log, want_log;
  ActiveSet as(rule, [&](SlotRef r) { got_log.push_back(r.index); },
               tie_newest);
  DequeModel model(rule, tie_newest, want_log);
  std::mt19937_64 rng(seed);
  std::uint32_t seq = 0;
  const auto same_entries = [&] {
    const std::vector<VertexEntry> got = as.entries();
    const std::deque<VertexEntry> want = model.entries();
    if (got.size() != want.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].lb != want[i].lb || got[i].seq != want[i].seq ||
          got[i].ref != want[i].ref)
        return false;
    }
    return true;
  };
  for (int step = 0; step < 6000; ++step) {
    const auto span = static_cast<std::uint64_t>(
        step < narrow_steps ? narrow_span : wide_span);
    const std::uint64_t op = rng() % 100;
    if (op < 55 || as.empty()) {
      const VertexEntry e{static_cast<Time>(rng() % span), seq,
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
      const auto threshold = static_cast<Time>(span / 2 + rng() % (span / 2));
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
  // Narrow keys: plenty of ties for the tie-breaking rules. Then, from
  // the middle of the run on, a span that makes the bucket ring grow with
  // entries live, and one no bucket window holds (the heap fallback).
  struct Span {
    Time narrow;
    int narrow_steps;
    Time wide;
  };
  for (const Span span : {Span{12, 6000, 12}, Span{12, 3000, 3000},
                          Span{12, 3000, Time{1} << 20}}) {
    for (const SelectRule rule :
         {SelectRule::kLIFO, SelectRule::kFIFO, SelectRule::kLLB}) {
      for (const bool tie_newest : {false, true}) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
          run_against_model(rule, tie_newest, seed, span.narrow,
                            span.narrow_steps, span.wide);
          if (HasFatalFailure()) return;
        }
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
