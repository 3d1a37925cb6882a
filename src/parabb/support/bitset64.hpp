// TaskSet: a set of task ids over a single 64-bit word.
//
// The branch-and-bound hot path manipulates "scheduled" and "ready" sets on
// every vertex expansion; a machine word with bit tricks keeps those
// operations branch-free and allocation-free. The word holds task ids
// 0..63, wider than kMaxTasks (32, the search's fixed arrays); the 64-id
// width is what taskgraph/transforms.cpp checks graphs against.
#pragma once

#include <bit>
#include <cstdint>

#include "parabb/support/assert.hpp"
#include "parabb/support/types.hpp"

namespace parabb {

class TaskSet {
 public:
  constexpr TaskSet() noexcept = default;
  explicit constexpr TaskSet(std::uint64_t bits) noexcept : bits_(bits) {}

  /// The set {0, 1, ..., n-1}.
  static constexpr TaskSet first_n(int n) noexcept {
    return TaskSet(n >= 64 ? ~0ULL : ((1ULL << n) - 1));
  }

  constexpr bool contains(TaskId t) const noexcept {
    return (bits_ >> check(t)) & 1ULL;
  }
  constexpr void insert(TaskId t) noexcept { bits_ |= 1ULL << check(t); }
  constexpr void erase(TaskId t) noexcept { bits_ &= ~(1ULL << check(t)); }

  constexpr bool empty() const noexcept { return bits_ == 0; }
  constexpr int size() const noexcept { return std::popcount(bits_); }
  constexpr std::uint64_t bits() const noexcept { return bits_; }

  constexpr bool is_subset_of(TaskSet other) const noexcept {
    return (bits_ & ~other.bits_) == 0;
  }
  constexpr bool intersects(TaskSet other) const noexcept {
    return (bits_ & other.bits_) != 0;
  }

  friend constexpr TaskSet operator|(TaskSet a, TaskSet b) noexcept {
    return TaskSet(a.bits_ | b.bits_);
  }
  friend constexpr TaskSet operator&(TaskSet a, TaskSet b) noexcept {
    return TaskSet(a.bits_ & b.bits_);
  }
  friend constexpr TaskSet operator-(TaskSet a, TaskSet b) noexcept {
    return TaskSet(a.bits_ & ~b.bits_);
  }
  friend constexpr bool operator==(TaskSet a, TaskSet b) noexcept = default;

  /// Iterates set members in increasing id order.
  class iterator {
   public:
    explicit constexpr iterator(std::uint64_t bits) noexcept : bits_(bits) {}
    constexpr TaskId operator*() const noexcept {
      return static_cast<TaskId>(std::countr_zero(bits_));
    }
    constexpr iterator& operator++() noexcept {
      bits_ &= bits_ - 1;  // clear lowest set bit
      return *this;
    }
    friend constexpr bool operator==(iterator, iterator) noexcept = default;

   private:
    std::uint64_t bits_;
  };

  constexpr iterator begin() const noexcept { return iterator(bits_); }
  constexpr iterator end() const noexcept { return iterator(0); }

 private:
  // The set spans the full 64-bit word regardless of kMaxTasks (which only
  // bounds the fixed arrays of the search hot path).
  static constexpr TaskId check(TaskId t) noexcept {
    PARABB_ASSERT(t >= 0 && t < 64);
    return t;
  }

  std::uint64_t bits_ = 0;
};

}  // namespace parabb
