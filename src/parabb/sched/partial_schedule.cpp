#include "parabb/sched/partial_schedule.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "parabb/support/hash.hpp"

namespace parabb {
namespace {

// One key per (task, processor) cell; the dynamic start time is folded in
// through mix64 so equal (task, proc) placements at different times get
// unrelated keys.
constexpr auto kPlacementKeys =
    zobrist_keys<static_cast<std::size_t>(kMaxTasks) * kMaxProcs>(
        0x7ab5a1c0ffee5eedULL);

// pack()'s encoding of a state with at most kCompactTasks tasks on at most
// kCompactProcs processors. Every field has a fixed size, so packing and
// unpacking are straight-line copies with no per-instance lengths. The
// struct only defines the layout: pack() and unpack() copy each field
// straight between the state and the packed bytes, because staging a
// whole struct on the stack costs store-forwarding stalls.
struct CompactState {
  std::uint64_t scheduled;  ///< scheduled set; count() in the top byte
  std::uint64_t ready;
  std::uint64_t hash;
  std::array<CTime, PartialSchedule::kCompactTasks> start;
  std::array<CTime, PartialSchedule::kCompactProcs> avail;
  /// Per task: its processor in the low kProcBits bits, its count of
  /// unscheduled predecessors in the rest.
  std::array<std::uint8_t, PartialSchedule::kCompactTasks> proc_missing;
};
static_assert(sizeof(CompactState) == 120);
static_assert(std::is_trivially_copyable_v<CompactState>);

constexpr int kProcBits = 3;
static_assert(kMaxProcs <= (1 << kProcBits), "a processor id fits 3 bits");
static_assert(kMaxTasks <= (1 << (8 - kProcBits)),
              "a missing-predecessor count (< kMaxTasks) fits 5 bits");

// proc_missing is packed eight tasks per 64-bit word. A processor byte is
// below 8 and a count byte below 32, so shifting a word of counts by
// kProcBits moves no bit across a byte boundary.
static_assert(PartialSchedule::kCompactTasks % 8 == 0);
constexpr std::uint64_t kProcLanes = 0x0707070707070707ULL;
constexpr std::uint64_t kCountLanes = 0x1f1f1f1f1f1f1f1fULL;

constexpr int kCountShift = 56;
static_assert(PartialSchedule::kCompactTasks <= kCountShift,
              "the scheduled set leaves the top byte free for count()");
constexpr std::uint64_t kSetMask = (std::uint64_t{1} << kCountShift) - 1;

void put_word(std::byte* dst, std::size_t offset, std::uint64_t w) noexcept {
  std::memcpy(dst + offset, &w, sizeof w);
}
std::uint64_t get_word(const std::byte* src, std::size_t offset) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, src + offset, sizeof w);
  return w;
}

}  // namespace

PartialSchedule PartialSchedule::empty(const SchedContext& ctx) {
  PartialSchedule ps;
  ps.ready_ = ctx.initial_ready();
  for (TaskId t = 0; t < ctx.task_count(); ++t) {
    ps.missing_preds_[static_cast<std::size_t>(t)] =
        static_cast<std::int8_t>(ctx.pred_count(t));
  }
  return ps;
}

CTime PartialSchedule::min_proc_avail(const SchedContext& ctx) const noexcept {
  CTime lo = avail_[0];
  for (ProcId p = 1; p < ctx.proc_count(); ++p) {
    lo = std::min(lo, avail_[static_cast<std::size_t>(p)]);
  }
  return lo;
}

CTime PartialSchedule::earliest_start(const SchedContext& ctx, TaskId t,
                                      ProcId p) const noexcept {
  PARABB_ASSERT(p >= 0 && p < ctx.proc_count());
  CTime est = std::max(ctx.arrival(t), avail_[static_cast<std::size_t>(p)]);
  const auto preds = ctx.pred_ids(t);
  const auto comm = ctx.pred_comm(t);
  for (std::size_t k = 0; k < preds.size(); ++k) {
    const TaskId j = preds[k];
    PARABB_ASSERT(scheduled_.contains(j));
    const auto uj = static_cast<std::size_t>(j);
    // hop(p, p) == 0, so co-located predecessors add no delay.
    const CTime avail_time = start_[uj] + ctx.exec(j) +
                             comm[k] * ctx.hop(proc_[uj], p);
    est = std::max(est, avail_time);
  }
  return est;
}

CTime PartialSchedule::place(const SchedContext& ctx, TaskId t,
                             ProcId p) noexcept {
  PARABB_ASSERT(ready_.contains(t));
  const CTime s = earliest_start(ctx, t, p);
  const auto ut = static_cast<std::size_t>(t);
  start_[ut] = s;
  proc_[ut] = static_cast<std::int8_t>(p);
  avail_[static_cast<std::size_t>(p)] = s + ctx.exec(t);
  scheduled_.insert(t);
  ready_.erase(t);
  ++count_;
  for (const TaskId succ : ctx.succ_ids(t)) {
    const auto us = static_cast<std::size_t>(succ);
    if (--missing_preds_[us] == 0) ready_.insert(succ);
  }
  hash_ ^= placement_key(t, p, s);
  return s;
}

void PartialSchedule::unplace(const SchedContext& ctx, TaskId t,
                              CTime frontier) noexcept {
  PARABB_ASSERT(scheduled_.contains(t));
  const auto ut = static_cast<std::size_t>(t);
  const ProcId p = proc_[ut];
  const auto up = static_cast<std::size_t>(p);
  // Reversibility: t is the frontier task of its processor (append-only
  // operation, so only the last appended task can be peeled off) and none
  // of its successors has been scheduled on the strength of it. The saved
  // frontier cannot lie past t's start, which place() derived from it.
  PARABB_ASSERT(avail_[up] == start_[ut] + ctx.exec(t));
  PARABB_ASSERT(frontier >= 0 && frontier <= start_[ut]);
  hash_ ^= placement_key(t, p, start_[ut]);
  scheduled_.erase(t);
  ready_.insert(t);
  --count_;
  for (const TaskId succ : ctx.succ_ids(t)) {
    PARABB_ASSERT(!scheduled_.contains(succ));
    const auto us = static_cast<std::size_t>(succ);
    if (missing_preds_[us]++ == 0) ready_.erase(succ);
  }
  avail_[up] = frontier;
}

CTime PartialSchedule::unplace(const SchedContext& ctx, TaskId t) noexcept {
  const ProcId p = proc(t);
  // The core restores everything but the frontier, which it sets to a
  // placeholder; the frontier then reverts to the latest finish left on p
  // (0 when the processor becomes empty again, matching the empty-schedule
  // state). Scanning after the core keeps t out of the scan.
  unplace(ctx, t, 0);
  CTime frontier = 0;
  for (const TaskId other : scheduled_) {
    const auto uo = static_cast<std::size_t>(other);
    if (proc_[uo] == p) {
      frontier = std::max(frontier, start_[uo] + ctx.exec(other));
    }
  }
  avail_[static_cast<std::size_t>(p)] = frontier;
  return frontier;
}

std::uint64_t PartialSchedule::fingerprint_from_scratch() const noexcept {
  std::uint64_t h = 0;
  for (const TaskId t : scheduled_) {
    const auto ut = static_cast<std::size_t>(t);
    h ^= placement_key(t, proc_[ut], start_[ut]);
  }
  return h;
}

std::uint64_t PartialSchedule::placement_key(TaskId t, ProcId p,
                                             CTime start) noexcept {
  const std::size_t cell = static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(kMaxProcs) +
                           static_cast<std::size_t>(p);
  return mix64(kPlacementKeys[cell] ^
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(start)));
}

Time PartialSchedule::max_lateness_scheduled(
    const SchedContext& ctx) const noexcept {
  Time worst = kTimeNegInf;
  for (const TaskId t : scheduled_) {
    const Time lateness = Time{finish(ctx, t)} - Time{ctx.deadline(t)};
    worst = std::max(worst, lateness);
  }
  return worst;
}

std::size_t PartialSchedule::packed_bytes(const SchedContext& ctx) noexcept {
  return compact(ctx) ? sizeof(CompactState) : sizeof(PartialSchedule);
}

void PartialSchedule::pack(const SchedContext& ctx,
                           void* dst) const noexcept {
  auto* out = static_cast<std::byte*>(dst);
  if (!compact(ctx)) {
    std::memcpy(out, this, sizeof(PartialSchedule));
    return;
  }
  put_word(out, offsetof(CompactState, scheduled),
           scheduled_.bits() |
               static_cast<std::uint64_t>(count_) << kCountShift);
  put_word(out, offsetof(CompactState, ready), ready_.bits());
  put_word(out, offsetof(CompactState, hash), hash_);
  std::memcpy(out + offsetof(CompactState, start), start_.data(),
              sizeof(CompactState::start));
  std::memcpy(out + offsetof(CompactState, avail), avail_.data(),
              sizeof(CompactState::avail));
  const auto* procs = reinterpret_cast<const std::byte*>(proc_.data());
  const auto* counts =
      reinterpret_cast<const std::byte*>(missing_preds_.data());
  for (std::size_t at = 0; at < kCompactTasks; at += 8) {
    put_word(out, offsetof(CompactState, proc_missing) + at,
             get_word(procs, at) | get_word(counts, at) << kProcBits);
  }
}

void PartialSchedule::unpack(const SchedContext& ctx,
                             const void* src) noexcept {
  const auto* in = static_cast<const std::byte*>(src);
  if (!compact(ctx)) {
    std::memcpy(this, in, sizeof(PartialSchedule));
    return;
  }
  const std::uint64_t scheduled =
      get_word(in, offsetof(CompactState, scheduled));
  scheduled_ = TaskSet(scheduled & kSetMask);
  count_ = static_cast<std::int16_t>(scheduled >> kCountShift);
  ready_ = TaskSet(get_word(in, offsetof(CompactState, ready)));
  hash_ = get_word(in, offsetof(CompactState, hash));
  std::memcpy(start_.data(), in + offsetof(CompactState, start),
              sizeof(CompactState::start));
  std::memcpy(avail_.data(), in + offsetof(CompactState, avail),
              sizeof(CompactState::avail));
  // Processors past kCompactProcs never run a task (operator== compares
  // every frontier); tasks past kCompactTasks do not exist.
  std::fill(avail_.begin() + kCompactProcs, avail_.end(), 0);
  auto* procs = reinterpret_cast<std::byte*>(proc_.data());
  auto* counts = reinterpret_cast<std::byte*>(missing_preds_.data());
  for (std::size_t at = 0; at < kCompactTasks; at += 8) {
    const std::uint64_t w =
        get_word(in, offsetof(CompactState, proc_missing) + at);
    put_word(procs, at, w & kProcLanes);
    put_word(counts, at, w >> kProcBits & kCountLanes);
  }
}

bool operator==(const PartialSchedule& a, const PartialSchedule& b) noexcept {
  if (a.scheduled_ != b.scheduled_ || a.count_ != b.count_) return false;
  for (const TaskId t : a.scheduled_) {
    const auto ut = static_cast<std::size_t>(t);
    if (a.start_[ut] != b.start_[ut] || a.proc_[ut] != b.proc_[ut])
      return false;
  }
  return a.avail_ == b.avail_;
}

}  // namespace parabb
