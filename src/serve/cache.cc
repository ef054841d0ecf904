#include "serve/cache.h"

#include "core/faultpoint.h"
#include "obs/obs.h"

namespace csq::serve {

std::optional<PolicyMetrics> SolverCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    CSQ_OBS_COUNT(kServeCacheMisses);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  CSQ_OBS_COUNT(kServeCacheHits);
  return it->second->second;
}

void SolverCache::insert(const std::string& key, const PolicyMetrics& metrics) {
  // Fires before the lock and before any mutation: an armed fault here
  // must leave the cache exactly as it was.
  CSQ_FAULT_POINT(kServeCacheInsert);
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->second = metrics;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    CSQ_OBS_COUNT(kServeCacheEvictions);
  }
  lru_.emplace_front(key, metrics);
  index_[key] = lru_.begin();
  ++stats_.inserts;
  CSQ_OBS_COUNT(kServeCacheInserts);
}

std::size_t SolverCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

SolverCache::Stats SolverCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SolverCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace csq::serve
