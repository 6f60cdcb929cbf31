// LRU result cache for the query engine (docs/ENGINE.md).
//
// Keys are (graph epoch, query kind, packed params): the epoch changes on
// every (re)load, so answers for a replaced graph can never be served —
// stale entries just age out of the LRU list. Values are shared_ptrs to
// immutable query_results, so a hit costs one pointer copy under the lock
// and readers never block on each other's result data.
//
// A single mutex guards map + list. Query results are milliseconds of work;
// a sub-microsecond critical section per probe is nowhere near the
// bottleneck, and it keeps eviction/recency updates trivially correct. The
// counters, however, are relaxed atomics bumped *outside* the critical
// section: they are pure observability and keeping them out of the lock
// means a stats scrape never contends with the hit path.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "engine/query.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace ligra::engine {

struct cache_key {
  uint64_t epoch = 0;
  query_kind kind = query_kind::bfs_distance;
  uint64_t a = 0;  // source / subject vertex
  uint64_t b = 0;  // target / k

  friend bool operator==(const cache_key&, const cache_key&) = default;
};

struct cache_key_hash {
  size_t operator()(const cache_key& k) const {
    uint64_t h = hash64(k.epoch ^ (static_cast<uint64_t>(k.kind) << 56));
    h = hash64(h ^ k.a);
    h = hash64(h ^ k.b);
    return static_cast<size_t>(h);
  }
};

struct cache_counters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t insert_failures = 0;  // failpoint-injected or allocation failures

  double hit_rate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// One consistent point-in-time view: counters plus occupancy, taken
// together so callers never pair a fresh size with stale counters.
struct cache_snapshot {
  cache_counters counters;
  size_t size = 0;
  size_t capacity = 0;
};

class result_cache {
 public:
  // capacity 0 disables the cache (get always misses, put is a no-op).
  // With `metrics` set, every counter is mirrored into the registry under
  // the `engine_cache_*` names (docs/OBSERVABILITY.md) so one scrape covers
  // the cache alongside the executor; the typed counters()/snapshot() API
  // stays the per-cache source of truth.
  explicit result_cache(size_t capacity = 1024,
                        obs::metrics_registry* metrics = nullptr)
      : capacity_(capacity) {
    if (metrics != nullptr) {
      m_hits_ = &metrics->get_counter("engine_cache_hits_total");
      m_misses_ = &metrics->get_counter("engine_cache_misses_total");
      m_insertions_ = &metrics->get_counter("engine_cache_insertions_total");
      m_evictions_ = &metrics->get_counter("engine_cache_evictions_total");
      m_insert_failures_ =
          &metrics->get_counter("engine_cache_insert_failures_total");
      m_size_ = &metrics->get_gauge("engine_cache_entries");
    }
  }
  result_cache(const result_cache&) = delete;
  result_cache& operator=(const result_cache&) = delete;

  // Returns the cached result and refreshes its recency, or nullptr.
  std::shared_ptr<const query_result> get(const cache_key& key);

  // Inserts (or refreshes) `value`, evicting the least-recently-used entry
  // when at capacity.
  void put(const cache_key& key, std::shared_ptr<const query_result> value);

  // Drops all entries; counters are preserved (they describe the lifetime
  // of the cache, not its current contents).
  void clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  cache_counters counters() const;

  // Counters + size + capacity in one call (size is sampled under the lock;
  // the relaxed counters are read immediately after, so the view is
  // consistent to within in-flight operations).
  cache_snapshot snapshot() const;

 private:
  using lru_list =
      std::list<std::pair<cache_key, std::shared_ptr<const query_result>>>;

  cache_counters load_counters() const;

  size_t capacity_;
  mutable std::mutex mutex_;
  lru_list lru_;  // front = most recently used
  std::unordered_map<cache_key, lru_list::iterator, cache_key_hash> map_;

  // Observability only; bumped with relaxed atomics outside mutex_.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insert_failures_{0};

  // Mirrors into the owning executor's metrics registry; null when the
  // cache was constructed without one.
  obs::counter* m_hits_ = nullptr;
  obs::counter* m_misses_ = nullptr;
  obs::counter* m_insertions_ = nullptr;
  obs::counter* m_evictions_ = nullptr;
  obs::counter* m_insert_failures_ = nullptr;
  obs::gauge* m_size_ = nullptr;
};

}  // namespace ligra::engine
