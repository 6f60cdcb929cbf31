// Tests for the admission-controlled query executor (docs/ENGINE.md):
// every query kind matches the direct application call, errors surface
// through futures, the cache serves repeats until the graph's epoch
// changes, saturation rejects instead of deadlocking, and N threads
// submitting mixed queries against two resident graphs get exactly the
// single-threaded answers.
#include "engine/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "apps/query_adapters.h"
#include "graph/generators.h"
#include "parallel/scheduler.h"

namespace e = ligra::engine;
using namespace ligra;

namespace {

// Two small resident graphs: a power-law symmetric graph and a weighted
// torus — cheap enough that every test runs in milliseconds.
struct fixture {
  e::registry reg;
  graph social;
  wgraph road;

  explicit fixture() {
    social = gen::rmat_graph(9, 1 << 12, /*seed=*/5);
    road = gen::add_random_weights(gen::grid3d_graph(7), 1, 8, /*seed=*/5);
    reg.add("social", social);
    reg.add("road", road);
  }
};

e::query_request make_req(const std::string& g, e::query_kind kind,
                          vertex_id source = 0, vertex_id target = kNoVertex,
                          uint32_t k = 10) {
  e::query_request q;
  q.graph = g;
  q.kind = kind;
  q.source = source;
  q.target = target;
  q.k = k;
  return q;
}

// A custom query that blocks until `release` is signalled; `started` flips
// as soon as it begins running. Used to hold dispatcher slots
// deterministically.
struct blocker {
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future().share()};
  std::atomic<int> started{0};

  e::query_request request(const std::string& g) {
    e::query_request q;
    q.graph = g;
    q.kind = e::query_kind::custom;
    q.custom = [this](const e::graph_entry&, const e::cancel_token&) -> int64_t {
      started.fetch_add(1);
      gate.wait();
      return 7;
    };
    return q;
  }

  void wait_started(int count) {
    while (started.load() < count) std::this_thread::yield();
  }
};

}  // namespace

TEST(EngineExecutor, EveryKindMatchesDirectCall) {
  fixture fx;
  e::query_executor ex(fx.reg, {});

  auto bfs = ex.submit(make_req("social", e::query_kind::bfs_distance, 1, 9)).get();
  EXPECT_EQ(bfs.value, apps::bfs_hop_distance(fx.social, 1, 9));

  auto sssp = ex.submit(make_req("road", e::query_kind::sssp_distance, 0, 100)).get();
  EXPECT_EQ(sssp.value, apps::sssp_distance(fx.road, 0, 100));

  auto pr = ex.submit(make_req("social", e::query_kind::pagerank_topk, 0, kNoVertex, 5)).get();
  EXPECT_EQ(pr.topk, apps::pagerank_topk(fx.social, 5));
  EXPECT_EQ(pr.value, 5);

  auto cc = ex.submit(make_req("social", e::query_kind::component_id, 3)).get();
  EXPECT_EQ(cc.value, apps::component_id(fx.social, 3));

  auto core = ex.submit(make_req("social", e::query_kind::coreness, 3)).get();
  EXPECT_EQ(core.value, apps::vertex_coreness(fx.social, 3));

  auto tri = ex.submit(make_req("social", e::query_kind::triangle_count)).get();
  EXPECT_EQ(tri.value, static_cast<int64_t>(apps::count_triangles(fx.social)));
}

TEST(EngineExecutor, SynchronousRunMatchesSubmit) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  auto via_run = ex.run(make_req("social", e::query_kind::bfs_distance, 0, 5));
  auto via_submit =
      ex.submit(make_req("social", e::query_kind::bfs_distance, 0, 5)).get();
  EXPECT_EQ(via_run.value, via_submit.value);
}

TEST(EngineExecutor, UnknownGraphFailsThroughFuture) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  auto fut = ex.submit(make_req("nope", e::query_kind::bfs_distance, 0, 1));
  EXPECT_THROW(fut.get(), e::not_found_error);
  EXPECT_EQ(ex.stats().failed, 1u);
}

TEST(EngineExecutor, BadVertexFailsThroughFuture) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  auto fut = ex.submit(
      make_req("social", e::query_kind::bfs_distance, 0,
               fx.social.num_vertices() + 10));
  EXPECT_THROW(fut.get(), std::invalid_argument);
}

TEST(EngineExecutor, SsspOnUnweightedGraphFails) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  auto fut = ex.submit(make_req("social", e::query_kind::sssp_distance, 0, 1));
  EXPECT_THROW(fut.get(), e::engine_error);
}

TEST(EngineExecutor, RepeatedQueryHitsCache) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  auto first = ex.submit(make_req("social", e::query_kind::coreness, 2)).get();
  EXPECT_FALSE(first.cache_hit);
  auto second = ex.submit(make_req("social", e::query_kind::coreness, 2)).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.value, first.value);
  auto snap = ex.stats();
  EXPECT_EQ(snap.cache.hits, 1u);
  EXPECT_EQ(snap.cache.misses, 1u);
  // Cache hits resolve at submit time without occupying the queue.
  EXPECT_EQ(snap.per_kind[static_cast<size_t>(e::query_kind::coreness)].count,
            1u);
}

TEST(EngineExecutor, ReloadInvalidatesCacheViaEpoch) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  auto r1 = ex.run(make_req("social", e::query_kind::triangle_count));
  EXPECT_FALSE(r1.cache_hit);
  fx.reg.add("social", gen::complete_graph(5));  // replace: new epoch
  auto r2 = ex.run(make_req("social", e::query_kind::triangle_count));
  EXPECT_FALSE(r2.cache_hit);  // old answer must not be served
  EXPECT_EQ(r2.value, 10);     // C(5,3) triangles in K5
}

TEST(EngineExecutor, CustomQueriesBypassCache) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  std::atomic<int> calls{0};
  e::query_request q;
  q.graph = "social";
  q.kind = e::query_kind::custom;
  q.custom = [&](const e::graph_entry& entry, const e::cancel_token&) -> int64_t {
    calls.fetch_add(1);
    return static_cast<int64_t>(entry.structure().num_vertices());
  };
  EXPECT_EQ(ex.submit(q).get().value,
            static_cast<int64_t>(fx.social.num_vertices()));
  EXPECT_EQ(ex.submit(q).get().value,
            static_cast<int64_t>(fx.social.num_vertices()));
  EXPECT_EQ(calls.load(), 2);  // executed both times
}

TEST(EngineExecutor, QueriesRunOnTheDispatcher) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  e::query_request q;
  q.graph = "social";
  q.kind = e::query_kind::custom;
  q.custom = [](const e::graph_entry&, const e::cancel_token&) -> int64_t {
    return parallel::worker_id();
  };
  // The body runs on the dispatcher that dequeued it, outside the pool.
  EXPECT_EQ(ex.submit(q).get().value, -1);
}

TEST(EngineExecutor, EveryDispatcherRunsABlockingBody) {
  // max_concurrency blocking bodies all start at once, whatever the pool
  // size: no body waits for a pool thread.
  fixture fx;
  e::executor_options opts;
  opts.max_concurrency = 4;
  e::query_executor ex(fx.reg, opts);

  blocker blk;
  std::vector<std::future<e::query_result>> futs;
  for (int i = 0; i < 4; i++) futs.push_back(ex.submit(blk.request("social")));
  auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (blk.started.load() < 4 && std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(blk.started.load(), 4);
  blk.release.set_value();
  for (auto& f : futs) EXPECT_EQ(f.get().value, 7);
}

TEST(EngineExecutor, SaturatedQueueRejectsInsteadOfDeadlocking) {
  fixture fx;
  e::executor_options opts;
  opts.max_concurrency = 1;
  opts.max_queue = 2;
  e::query_executor ex(fx.reg, opts);

  blocker blk;
  auto running = ex.submit(blk.request("social"));  // occupies the dispatcher
  blk.wait_started(1);
  // Each queued body notes its submission position when it starts.
  std::vector<int> start_order;
  auto queued = [&](int pos) {
    e::query_request q = blk.request("social");
    auto body = std::move(q.custom);
    q.custom = [&start_order, pos, body](const e::graph_entry& g,
                                         const e::cancel_token& t) {
      start_order.push_back(pos);
      return body(g, t);
    };
    return q;
  };
  auto queued1 = ex.submit(queued(1));
  auto queued2 = ex.submit(queued(2));
  EXPECT_EQ(ex.queue_depth(), 2u);

  // Queue full: the next submission is rejected immediately — no blocking.
  EXPECT_THROW(ex.submit(blk.request("social")), e::rejected_error);
  EXPECT_THROW(ex.submit(make_req("social", e::query_kind::bfs_distance, 0, 1)),
               e::rejected_error);
  EXPECT_EQ(ex.stats().rejected, 2u);

  // Cache hits still get through under saturation (no queue slot needed).
  auto direct = ex.run(make_req("road", e::query_kind::sssp_distance, 0, 9));
  // ... and after the backlog drains, everything completes with values.
  blk.release.set_value();
  EXPECT_EQ(running.get().value, 7);
  EXPECT_EQ(queued1.get().value, 7);
  EXPECT_EQ(queued2.get().value, 7);
  // One dispatcher pops the queue's head: the bodies started in FIFO order.
  EXPECT_EQ(start_order, (std::vector<int>{1, 2}));
  auto again =
      ex.submit(make_req("road", e::query_kind::sssp_distance, 0, 9)).get();
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.value, direct.value);
}

TEST(EngineExecutor, EvictedGraphQueryStillCompletes) {
  fixture fx;
  e::executor_options opts;
  opts.max_concurrency = 1;
  e::query_executor ex(fx.reg, opts);

  blocker blk;
  auto fut = ex.submit(blk.request("social"));
  blk.wait_started(1);
  // Evict while the query is mid-flight: the handle pins the entry.
  EXPECT_TRUE(fx.reg.evict("social"));
  blk.release.set_value();
  EXPECT_EQ(fut.get().value, 7);
  // New submissions see the eviction.
  EXPECT_THROW(
      ex.submit(make_req("social", e::query_kind::bfs_distance, 0, 1)).get(),
      e::not_found_error);
}

TEST(EngineExecutor, WaitIdleAndStatsConverge) {
  fixture fx;
  e::query_executor ex(fx.reg, {});
  std::vector<std::future<e::query_result>> futs;
  for (vertex_id v = 0; v < 16; v++)
    futs.push_back(ex.submit(make_req("social", e::query_kind::bfs_distance, 0,
                                      v)));
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.running, 0u);
  EXPECT_EQ(snap.submitted, 16u);
  EXPECT_EQ(snap.completed + snap.failed, 16u);
  for (auto& f : futs) f.get();
}

// The satellite's concurrent-correctness requirement: N threads submitting
// mixed queries against two registered graphs get results identical to
// direct application calls.
TEST(EngineExecutor, ConcurrentMixedQueriesMatchDirectCalls) {
  fixture fx;
  e::executor_options opts;
  opts.max_queue = 4096;  // focus on correctness, not backpressure
  e::query_executor ex(fx.reg, opts);

  // Expected answers, precomputed single-threaded via the same adapters the
  // engine dispatches to. Vertex pool kept small so tables stay cheap.
  const vertex_id pool = 8;
  std::map<std::pair<vertex_id, vertex_id>, int64_t> bfs_exp, sssp_exp;
  std::map<vertex_id, int64_t> cc_exp, core_exp;
  for (vertex_id s = 0; s < pool; s++) {
    for (vertex_id t = 0; t < pool; t++) {
      bfs_exp[{s, t}] = apps::bfs_hop_distance(fx.social, s, t);
      sssp_exp[{s, t}] = apps::sssp_distance(fx.road, s, t);
    }
    cc_exp[s] = apps::component_id(fx.social, s);
    core_exp[s] = apps::vertex_coreness(fx.social, s);
  }
  auto topk_exp = apps::pagerank_topk(fx.social, 5);

  const int threads = 8, per_thread = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < per_thread; i++) {
        uint64_t h = hash64(static_cast<uint64_t>(t) * 1000 + i);
        auto s = static_cast<vertex_id>(h % pool);
        auto d = static_cast<vertex_id>((h >> 8) % pool);
        e::query_request q;
        int64_t expect = 0;
        const std::vector<std::pair<vertex_id, double>>* expect_topk = nullptr;
        switch (h % 5) {
          case 0:
            q = make_req("social", e::query_kind::bfs_distance, s, d);
            expect = bfs_exp[{s, d}];
            break;
          case 1:
            q = make_req("road", e::query_kind::sssp_distance, s, d);
            expect = sssp_exp[{s, d}];
            break;
          case 2:
            q = make_req("social", e::query_kind::component_id, s);
            expect = cc_exp[s];
            break;
          case 3:
            q = make_req("social", e::query_kind::coreness, s);
            expect = core_exp[s];
            break;
          default:
            q = make_req("social", e::query_kind::pagerank_topk, 0, kNoVertex, 5);
            expect_topk = &topk_exp;
            break;
        }
        auto r = ex.submit(q).get();
        if (expect_topk != nullptr) {
          if (r.topk != *expect_topk) mismatches.fetch_add(1);
        } else if (r.value != expect) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  auto snap = ex.stats();
  EXPECT_EQ(snap.submitted, static_cast<uint64_t>(threads) * per_thread);
  EXPECT_EQ(snap.completed, snap.submitted);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_GT(snap.cache.hits, 0u);  // repeated params must hit
}

TEST(EngineExecutor, DestructorDrainsPendingQueue) {
  fixture fx;
  std::vector<std::future<e::query_result>> futs;
  {
    e::executor_options opts;
    opts.max_concurrency = 1;
    opts.max_queue = 64;
    e::query_executor ex(fx.reg, opts);
    for (vertex_id v = 0; v < 8; v++)
      futs.push_back(
          ex.submit(make_req("social", e::query_kind::bfs_distance, 0, v)));
  }  // destructor joins after draining
  for (auto& f : futs) EXPECT_GE(f.get().value, -1);
}
