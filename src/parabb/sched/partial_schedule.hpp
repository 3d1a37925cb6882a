// PartialSchedule: the branch-and-bound search state — a prefix of a
// schedule built by the paper's non-preemptive scheduling operation (§4.3).
//
// The scheduling operation: a new task starts at the earliest time that is
//  * >= its arrival time a_i,
//  * >= the finish of every already-scheduled direct predecessor, plus the
//    nominal communication delay when the predecessor sits on a different
//    processor, and
//  * >= the finish of every task previously scheduled on the chosen
//    processor (append-only; idle gaps are never back-filled, which is what
//    makes the operation non-commutative and the full permutation search
//    necessary).
//
// The type is a trivially-copyable fixed-capacity value (256 bytes) so that
// millions of search vertices stay pool-friendly and memcpy-cheap. Stored
// search vertices go through pack()/unpack(), which encode the paper-sized
// instances in less than half of that.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "parabb/sched/context.hpp"
#include "parabb/support/bitset64.hpp"

namespace parabb {

class PartialSchedule {
 public:
  PartialSchedule() = default;

  /// The empty schedule for `ctx` (level 0: nothing placed, inputs ready).
  static PartialSchedule empty(const SchedContext& ctx);

  int count() const noexcept { return count_; }
  TaskSet scheduled() const noexcept { return scheduled_; }
  /// Tasks whose predecessors are all scheduled but which are not yet
  /// scheduled themselves.
  TaskSet ready() const noexcept { return ready_; }
  bool complete(const SchedContext& ctx) const noexcept {
    return count_ == ctx.task_count();
  }

  CTime start(TaskId t) const noexcept {
    PARABB_ASSERT(scheduled_.contains(t));
    return start_[static_cast<std::size_t>(t)];
  }
  CTime finish(const SchedContext& ctx, TaskId t) const noexcept {
    return start(t) + ctx.exec(t);
  }
  ProcId proc(TaskId t) const noexcept {
    PARABB_ASSERT(scheduled_.contains(t));
    return proc_[static_cast<std::size_t>(t)];
  }

  /// First idle time of processor p (finish of its last appended task).
  CTime proc_avail(ProcId p) const noexcept {
    PARABB_ASSERT(p >= 0 && p < kMaxProcs);
    return avail_[static_cast<std::size_t>(p)];
  }

  /// l_min: the earliest time at which any new task could start on any
  /// processor — the adaptive term of the LB1 lower bound.
  CTime min_proc_avail(const SchedContext& ctx) const noexcept;

  /// Start time the scheduling operation would give task t on processor p.
  /// Requires every direct predecessor of t to be scheduled.
  CTime earliest_start(const SchedContext& ctx, TaskId t,
                       ProcId p) const noexcept;

  /// Applies the scheduling operation: places ready task t on processor p.
  /// Returns the assigned start time. Updates the ready set.
  CTime place(const SchedContext& ctx, TaskId t, ProcId p) noexcept;

  /// Undoes a placement in O(1) plus t's successor count. Only legal when
  /// the scheduling operation is still reversible: t must be the last task
  /// appended to its processor and no successor of t may be scheduled
  /// (both asserted). Restores the ready set, the incremental fingerprint,
  /// and t's processor frontier to `frontier`, which must be that
  /// processor's proc_avail() from just before t was placed (the caller
  /// saved it; IncrementalLB keeps it on its undo stack).
  void unplace(const SchedContext& ctx, TaskId t, CTime frontier) noexcept;

  /// The same undo for callers that did not save the frontier: recovers it
  /// by scanning the tasks still scheduled on t's processor (O(count)).
  /// Returns the restored frontier.
  CTime unplace(const SchedContext& ctx, TaskId t) noexcept;

  /// Canonical 64-bit state fingerprint: XOR over every scheduled task of
  /// a Zobrist-style key derived from (task, processor, start time).
  /// Maintained incrementally by place()/unplace(); equal states always
  /// have equal fingerprints, and because the scheduling operation fully
  /// determines the frontier from the placement set, unequal fingerprints
  /// only collide with ~2^-64 probability (the transposition table falls
  /// back to operator== on fingerprint matches regardless).
  std::uint64_t fingerprint() const noexcept { return hash_; }

  /// Fingerprint recomputed from scratch over the scheduled set; must
  /// always equal fingerprint() (property-tested).
  std::uint64_t fingerprint_from_scratch() const noexcept;

  /// The Zobrist-style key one placement contributes to the fingerprint.
  static std::uint64_t placement_key(TaskId t, ProcId p,
                                     CTime start) noexcept;

  /// Max lateness over the *scheduled* prefix (kTimeNegInf when empty).
  Time max_lateness_scheduled(const SchedContext& ctx) const noexcept;

  /// Instances up to this size get the compact encoding of pack(): 120
  /// bytes instead of the whole 256-byte object.
  static constexpr int kCompactTasks = 16;
  static constexpr int kCompactProcs = 4;
  static bool compact(const SchedContext& ctx) noexcept {
    return ctx.task_count() <= kCompactTasks &&
           ctx.proc_count() <= kCompactProcs;
  }

  /// Bytes pack() writes for a state of `ctx`.
  static std::size_t packed_bytes(const SchedContext& ctx) noexcept;

  /// Writes this state, a state of `ctx`, to `dst` (packed_bytes(ctx)
  /// bytes, any alignment).
  void pack(const SchedContext& ctx, void* dst) const noexcept;

  /// Restores the state pack() wrote to `src` for `ctx`. The result equals
  /// the packed state under operator== and in its fingerprint, ready set,
  /// count, processor frontiers and readiness counts, so place()/unplace()
  /// continue from it exactly as from the original.
  void unpack(const SchedContext& ctx, const void* src) noexcept;

  friend bool operator==(const PartialSchedule& a,
                         const PartialSchedule& b) noexcept;

 private:
  TaskSet scheduled_{};
  TaskSet ready_{};
  std::array<CTime, kMaxTasks> start_{};
  std::array<CTime, kMaxProcs> avail_{};
  std::array<std::int8_t, kMaxTasks> proc_{};
  std::array<std::int8_t, kMaxTasks> missing_preds_{};
  std::int16_t count_ = 0;
  std::uint64_t hash_ = 0;  ///< incremental Zobrist fingerprint
};

// The transposition table sizes itself in states of this size, so a
// different size changes every table-enabled search.
static_assert(sizeof(PartialSchedule) == 256,
              "transposition-table slot counts derive from this size");

}  // namespace parabb
