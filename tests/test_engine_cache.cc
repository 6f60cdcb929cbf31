// Tests for the engine's LRU result cache: hit/miss/eviction semantics,
// recency refresh on access, epoch-keyed invalidation, counters, and the
// capacity-0 disabled mode.
#include "engine/result_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

namespace e = ligra::engine;

namespace {

e::cache_key key(uint64_t epoch, uint64_t a, uint64_t b = 0) {
  e::cache_key k;
  k.epoch = epoch;
  k.kind = e::query_kind::bfs_distance;
  k.a = a;
  k.b = b;
  return k;
}

std::shared_ptr<const e::query_result> value(int64_t v) {
  auto r = std::make_shared<e::query_result>();
  r->value = v;
  return r;
}

}  // namespace

TEST(EngineCache, MissThenHit) {
  e::result_cache cache(8);
  EXPECT_EQ(cache.get(key(1, 0)), nullptr);
  cache.put(key(1, 0), value(42));
  auto hit = cache.get(key(1, 0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, 42);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
}

TEST(EngineCache, DistinctParamsDistinctEntries) {
  e::result_cache cache(8);
  cache.put(key(1, 0, 5), value(1));
  cache.put(key(1, 0, 6), value(2));
  cache.put(key(2, 0, 5), value(3));  // same params, different epoch
  EXPECT_EQ(cache.get(key(1, 0, 5))->value, 1);
  EXPECT_EQ(cache.get(key(1, 0, 6))->value, 2);
  EXPECT_EQ(cache.get(key(2, 0, 5))->value, 3);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(EngineCache, EvictsLeastRecentlyUsed) {
  e::result_cache cache(2);
  cache.put(key(1, 1), value(1));
  cache.put(key(1, 2), value(2));
  EXPECT_NE(cache.get(key(1, 1)), nullptr);  // refresh 1: now 2 is LRU
  cache.put(key(1, 3), value(3));            // evicts 2
  EXPECT_EQ(cache.get(key(1, 2)), nullptr);
  EXPECT_NE(cache.get(key(1, 1)), nullptr);
  EXPECT_NE(cache.get(key(1, 3)), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EngineCache, PutRefreshesExistingKey) {
  e::result_cache cache(2);
  cache.put(key(1, 1), value(1));
  cache.put(key(1, 2), value(2));
  cache.put(key(1, 1), value(10));  // refresh, not insert: no eviction
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(cache.get(key(1, 1))->value, 10);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EngineCache, ClearDropsEntriesKeepsCounters) {
  e::result_cache cache(8);
  cache.put(key(1, 1), value(1));
  (void)cache.get(key(1, 1));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);
  auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(EngineCache, ZeroCapacityDisables) {
  e::result_cache cache(0);
  cache.put(key(1, 1), value(1));
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EngineCache, HitRate) {
  e::result_cache cache(8);
  cache.put(key(1, 1), value(1));
  (void)cache.get(key(1, 1));
  (void)cache.get(key(1, 1));
  (void)cache.get(key(1, 2));
  EXPECT_NEAR(cache.counters().hit_rate(), 2.0 / 3.0, 1e-9);
}

TEST(EngineCache, ConcurrentGetPut) {
  e::result_cache cache(64);
  const int threads = 8, iters = 2000;
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < iters; i++) {
        uint64_t k = static_cast<uint64_t>((t * 7 + i) % 100);
        if (auto hit = cache.get(key(1, k))) {
          ASSERT_EQ(hit->value, static_cast<int64_t>(k));
        } else {
          cache.put(key(1, k), value(static_cast<int64_t>(k)));
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_LE(cache.size(), 64u);
  auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses,
            static_cast<uint64_t>(threads) * static_cast<uint64_t>(iters));
}

TEST(EngineCache, SnapshotReportsCountersSizeAndCapacity) {
  e::result_cache cache(4);
  cache.put(key(1, 0), value(1));
  cache.put(key(1, 1), value(2));
  cache.get(key(1, 0));
  cache.get(key(9, 9));  // miss
  auto snap = cache.snapshot();
  EXPECT_EQ(snap.size, 2u);
  EXPECT_EQ(snap.capacity, 4u);
  EXPECT_EQ(snap.counters.hits, 1u);
  EXPECT_EQ(snap.counters.misses, 1u);
  EXPECT_EQ(snap.counters.insertions, 2u);
  EXPECT_EQ(snap.counters.insert_failures, 0u);
}

TEST(EngineCache, ConcurrentCounterUpdatesDoNotTear) {
  // Counters are atomics bumped outside the LRU mutex; hammer the same keys
  // from many threads and check the totals add up exactly.
  e::result_cache cache(64);
  constexpr int kThreads = 8, kOps = 2048;  // whole number of 32-key cycles
  for (uint64_t i = 0; i < 16; i++) cache.put(key(1, i), value(int64_t(i)));
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; t++)
    ts.emplace_back([&] {
      for (int i = 0; i < kOps; i++) cache.get(key(1, uint64_t(i) % 32));
    });
  for (auto& t : ts) t.join();
  auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, uint64_t(kThreads) * kOps);
  EXPECT_EQ(c.hits, uint64_t(kThreads) * kOps / 2);  // half the keys exist
}
