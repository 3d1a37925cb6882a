#include "parabb/service/cache.hpp"

namespace parabb {

ResultCache::ResultCache(std::size_t max_entries)
    : max_entries_(max_entries) {}

std::optional<JobResult> ResultCache::lookup(std::uint64_t fp,
                                             const std::string& key) {
  const std::lock_guard lock(mutex_);
  const auto it = index_.find(fp);
  if (it == index_.end()) return std::nullopt;
  if (it->second->key != key) {
    // Distinct requests colliding on the 64-bit fingerprint: a miss, and
    // counted so an implausible collision rate is visible in the summary.
    ++counters_.collisions;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->result;
}

void ResultCache::insert(std::uint64_t fp, std::string key,
                         JobResult result) {
  if (max_entries_ == 0) return;
  const std::lock_guard lock(mutex_);
  if (const auto it = index_.find(fp); it != index_.end()) {
    // Same fingerprint already present: overwrite (same key), or replace
    // the colliding entry (different key) — either way one entry per fp.
    it->second->key = std::move(key);
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++counters_.insertions;
    return;
  }
  if (lru_.size() >= max_entries_) {
    index_.erase(lru_.back().fp);
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(Entry{fp, std::move(key), std::move(result)});
  index_[fp] = lru_.begin();
  ++counters_.insertions;
}

std::size_t ResultCache::size() const {
  const std::lock_guard lock(mutex_);
  return lru_.size();
}

CacheCounters ResultCache::counters() const {
  const std::lock_guard lock(mutex_);
  return counters_;
}

void ResultCache::clear() {
  const std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace parabb
