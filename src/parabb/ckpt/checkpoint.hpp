// CheckpointController: the engines' handle on *when* and *where* to
// snapshot (ckpt/snapshot.hpp holds the what and how).
//
// Wiring: Params::ckpt points at one controller (not owned, may be null —
// the off path in both engines is a single null check per poll point). The
// sequential engine consults due() at its 256-iteration poll point; the
// parallel engine's supervisor thread consults it and ends the workers'
// round, writing the snapshot once every worker has returned and been
// joined. request_now() is async-signal-safe (one relaxed atomic
// store), so a SIGTERM handler can demand an immediate final snapshot;
// request_now(true) additionally asks the engine to stop (kCancelled)
// *after* that snapshot is durably on disk — the ordering a clean
// preemption needs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace parabb {

class CheckpointController {
 public:
  /// `path` is the snapshot file; `every_ms` the write cadence (<= 0
  /// means "only on request_now()", the SIGTERM-only configuration).
  CheckpointController(std::string path, double every_ms)
      : path_(std::move(path)),
        every_ms_(every_ms),
        last_(std::chrono::steady_clock::now()) {}

  const std::string& path() const noexcept { return path_; }
  double interval_ms() const noexcept { return every_ms_; }

  /// True when a snapshot should be taken now: the cadence elapsed, or a
  /// request_now() is pending. Cheap enough for the poll loop: one
  /// relaxed load plus (only when armed with a cadence) one clock read.
  bool due() const noexcept {
    if (requested_.load(std::memory_order_relaxed)) return true;
    if (every_ms_ <= 0) return false;
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - last_).count() >=
           every_ms_;
  }

  /// Demands a snapshot at the next poll point. Async-signal-safe. When
  /// `stop_after` is set the engine also terminates (kCancelled) once the
  /// write completed — SIGTERM's "checkpoint, then die" semantics.
  void request_now(bool stop_after = false) noexcept {
    if (stop_after) stop_after_.store(true, std::memory_order_relaxed);
    requested_.store(true, std::memory_order_relaxed);
  }

  bool stop_requested() const noexcept {
    return stop_after_.load(std::memory_order_relaxed);
  }

  /// Called by the engine after a successful save: resets the cadence
  /// clock, clears any pending request, and bumps the write counters.
  void note_written(std::size_t bytes) noexcept {
    last_ = std::chrono::steady_clock::now();
    requested_.store(false, std::memory_order_relaxed);
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Called when a save attempt threw (disk full, permissions): the
  /// search must survive a failed checkpoint, so the engine swallows the
  /// error, records it here, and keeps searching.
  void note_failed() noexcept {
    requested_.store(false, std::memory_order_relaxed);
    last_ = std::chrono::steady_clock::now();
    failures_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t writes() const noexcept {
    return writes_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  std::string path_;
  double every_ms_;
  std::chrono::steady_clock::time_point last_;
  std::atomic<bool> requested_{false};
  std::atomic<bool> stop_after_{false};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace parabb
