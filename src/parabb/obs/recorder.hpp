// Search flight recorder: a bounded ring buffer of recent B&B events per
// worker, dumped after the fact to explain why a job ended the way it did.
//
// A channel is single-writer: each engine worker records into its own
// ring with plain stores and a local sequence number — no atomics, no
// locks, no cross-core traffic on the hot path. Readers look only after
// the writer is quiescent (the search returned / the worker joined), so
// the dump needs no synchronization beyond the join.
//
// The ring keeps the *last* `capacity` events (oldest overwritten), which
// is the window that matters for a timeout: the final dive, the last
// incumbent improvement, the budget checkpoints leading up to the stop.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace parabb {

class JsonValue;

enum class FlightEventKind : std::uint8_t {
  kExpand,     ///< vertex selected and branched (value = its bound)
  kPrune,      ///< child/vertex discarded; `rule` says why (value = bound)
  kIncumbent,  ///< incumbent improved (value = new cost)
  kBudget,     ///< periodic checkpoint (value = generated vertices so far)
  kDispose,    ///< entries dropped by a storage bound (value = count)
  kSteal,      ///< work-stealing batch taken (level = victim, value = count)
  kDegrade,    ///< degradation-ladder rung applied (level = rung, value =
               ///< DegradeAction as an integer; robust/degrade.hpp)
  kCheckpoint, ///< search snapshot written (value = framed bytes) or
               ///< restored (level = 1, value = frontier size)
};

/// Why a kPrune event fired (mirrors the engines' cut sites).
enum class FlightPruneRule : std::uint8_t {
  kNone,            ///< not a prune
  kBound,           ///< lb >= BR-relaxed threshold (E_U/DBAS, stop test)
  kCharacteristic,  ///< F hook rejected the partial solution
  kTransposition,   ///< duplicate of an already-seen state
};

std::string to_string(FlightEventKind k);
std::string to_string(FlightPruneRule r);

struct FlightEvent {
  std::uint64_t seq = 0;  ///< per-channel event index (chronological)
  std::int64_t value = 0;
  FlightEventKind kind{};
  FlightPruneRule rule{};
  std::int16_t level = 0;  ///< tasks placed at the event's vertex (-1 n/a)
};

/// One worker's ring. record() is the hot path: two or three stores plus
/// a masked index increment.
class FlightChannel {
 public:
  explicit FlightChannel(std::size_t capacity);

  void record(FlightEventKind kind, FlightPruneRule rule, int level,
              std::int64_t value) noexcept {
    FlightEvent& e = ring_[next_ & mask_];
    e.seq = next_++;
    e.value = value;
    e.kind = kind;
    e.rule = rule;
    e.level = static_cast<std::int16_t>(level);
  }

  std::uint64_t total() const noexcept { return next_; }
  std::uint64_t dropped() const noexcept {
    return next_ > ring_.size() ? next_ - ring_.size() : 0;
  }
  std::size_t capacity() const noexcept { return ring_.size(); }

  /// Retained events, oldest first (seq strictly increasing).
  std::vector<FlightEvent> chronological() const;

 private:
  std::vector<FlightEvent> ring_;  // capacity rounded up to a power of two
  std::uint64_t mask_ = 0;
  std::uint64_t next_ = 0;
};

/// Channel factory + dump. channel(i) is called once per worker at search
/// start (mutex-guarded, cold); the returned reference stays valid for
/// the recorder's lifetime.
class FlightRecorder {
 public:
  /// `capacity` is per channel, rounded up to a power of two (min 8).
  explicit FlightRecorder(std::size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  FlightChannel& channel(std::size_t worker);
  std::size_t channel_count() const;

  /// {"capacity":N,"workers":[{"worker":i,"total":t,"dropped":d,
  ///   "events":[{"seq":s,"event":"expand","level":l,"value":v,
  ///              "rule":"lb"?},...]},...]}
  /// Events within a worker are chronological; workers are dumped in
  /// channel order. Must only be called with all writers quiescent.
  JsonValue dump_json() const;

  /// Human-readable dump (one line per event, sectioned per worker).
  std::string to_string() const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<FlightChannel>> channels_;
};

}  // namespace parabb
