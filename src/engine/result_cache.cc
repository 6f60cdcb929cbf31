#include "engine/result_cache.h"

#include "util/failpoint.h"

namespace ligra::engine {

std::shared_ptr<const query_result> result_cache::get(const cache_key& key) {
  std::shared_ptr<const query_result> found;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      found = it->second->second;
    }
  }
  if (found) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (m_hits_ != nullptr) m_hits_->inc();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (m_misses_ != nullptr) m_misses_->inc();
  }
  return found;
}

void result_cache::put(const cache_key& key,
                       std::shared_ptr<const query_result> value) {
  if (capacity_ == 0) return;
  if (LIGRA_FAILPOINT("cache.insert")) {
    insert_failures_.fetch_add(1, std::memory_order_relaxed);
    if (m_insert_failures_ != nullptr) m_insert_failures_->inc();
    return;
  }
  bool evicted = false;
  bool inserted = false;
  size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      evicted = true;
    }
    lru_.emplace_front(key, std::move(value));
    map_[key] = lru_.begin();
    inserted = true;
    entries = lru_.size();
  }
  if (evicted) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (m_evictions_ != nullptr) m_evictions_->inc();
  }
  if (inserted) {
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (m_insertions_ != nullptr) m_insertions_->inc();
    if (m_size_ != nullptr) m_size_->set(static_cast<int64_t>(entries));
  }
}

void result_cache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  map_.clear();
  if (m_size_ != nullptr) m_size_->set(0);
}

size_t result_cache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

cache_counters result_cache::load_counters() const {
  cache_counters c;
  c.hits = hits_.load(std::memory_order_relaxed);
  c.misses = misses_.load(std::memory_order_relaxed);
  c.insertions = insertions_.load(std::memory_order_relaxed);
  c.evictions = evictions_.load(std::memory_order_relaxed);
  c.insert_failures = insert_failures_.load(std::memory_order_relaxed);
  return c;
}

cache_counters result_cache::counters() const { return load_counters(); }

cache_snapshot result_cache::snapshot() const {
  cache_snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.size = lru_.size();
  }
  snap.capacity = capacity_;
  snap.counters = load_counters();
  return snap;
}

}  // namespace ligra::engine
