// Bounded LRU result cache for the solver service.
//
// Keyed by the 64-bit canonical request fingerprint (service/fingerprint).
// Each entry retains the full canonical key string and verifies it on a
// fingerprint match, so a 64-bit collision degrades to a miss instead of
// serving another request's schedule. Capacity is a fixed entry count;
// insertion past capacity evicts the least-recently-used entry (lookups
// refresh recency). All operations are O(1) under one mutex — the cache
// is consulted once per job, never on the search hot path.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "parabb/service/job.hpp"

namespace parabb {

/// Monotone cache counters (snapshot via ResultCache::counters()). Hits
/// and misses are the service's to count (parabb_service_cache_*_total).
struct CacheCounters {
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t collisions = 0;  ///< fingerprint match, key mismatch
};

class ResultCache {
 public:
  /// `max_entries == 0` disables the cache (every lookup misses, inserts
  /// are dropped).
  explicit ResultCache(std::size_t max_entries);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result for (fp, key) and refreshes its recency.
  /// The returned copy keeps the *cached* job's id; callers re-tag it.
  std::optional<JobResult> lookup(std::uint64_t fp, const std::string& key);

  /// Stores `result` under (fp, key), evicting the LRU entry when full.
  /// Re-inserting an existing key overwrites its result.
  void insert(std::uint64_t fp, std::string key, JobResult result);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return max_entries_; }
  CacheCounters counters() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t fp = 0;
    std::string key;
    JobResult result;
  };
  using Lru = std::list<Entry>;  // front = most recently used

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  Lru lru_;
  std::unordered_map<std::uint64_t, Lru::iterator> index_;
  CacheCounters counters_;
};

}  // namespace parabb
