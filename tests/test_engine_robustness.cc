// Query lifecycle robustness tests (docs/ROBUSTNESS.md): deadlines settle
// futures on time (polling bodies and non-polling bodies alike), cancellation
// works on every query kind, failed (re)loads keep the previous epoch serving
// with zero collateral query failures, load shedding drops low-priority
// traffic past the watermark, per-kind caps bound concurrency, and injected
// cache/dispatch faults never corrupt query answers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "apps/query_adapters.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "util/failpoint.h"

namespace e = ligra::engine;
namespace fp = ligra::util::failpoint;
using namespace ligra;
using namespace std::chrono_literals;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Milliseconds elapsed since t0.
double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Cheap-to-generate graph big enough that PageRank runs for hundreds of
// milliseconds — the "slow query" substrate for deadline tests.
const graph& big_graph() {
  static graph g = gen::rmat_graph(16, edge_id{1} << 20, /*seed=*/7);
  return g;
}

graph small_graph() { return gen::rmat_graph(8, 1 << 11, /*seed=*/3); }

// Custom query that blocks until released.
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
};

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

fp::spec fail_spec(int64_t count = -1) {
  fp::spec s;
  s.act = fp::action::fail;
  s.count = count;
  return s;
}

}  // namespace

// --- deadlines & cancellation ----------------------------------------------

TEST_F(RobustnessTest, DeadlineSettlesFastWhileOthersComplete) {
  e::registry reg;
  reg.add("big", big_graph());
  e::query_executor ex(reg, {.max_concurrency = 3, .cache_capacity = 0});

  // Sanity: without a deadline this query takes much longer than 10ms.
  // (PageRank runs ~100 power iterations over a scale-16 R-MAT graph.)
  e::query_request slow;
  slow.graph = "big";
  slow.kind = e::query_kind::pagerank_topk;
  slow.k = 5;
  slow.deadline = 10ms;

  std::vector<std::future<e::query_result>> ok;
  for (vertex_id s = 0; s < 4; s++) {
    e::query_request q;
    q.graph = "big";
    q.kind = e::query_kind::bfs_distance;
    q.source = s;
    q.target = s + 1;
    ok.push_back(ex.submit(q));
  }

  auto t0 = std::chrono::steady_clock::now();
  auto fut = ex.submit(slow);
  EXPECT_THROW(fut.get(), e::deadline_exceeded_error);
  // The watchdog settles the future at ~the deadline even though the body
  // may still be mid-iteration; generous bound for loaded CI machines.
  EXPECT_LT(ms_since(t0), 200.0);

  for (auto& f : ok) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.cancelled, 0u);
}

TEST_F(RobustnessTest, PreCancelledTokenStopsEveryKind) {
  e::registry reg;
  reg.add("g", small_graph());
  reg.add("w", gen::add_random_weights(gen::grid3d_graph(5), 1, 4, /*seed=*/2));
  e::query_executor ex(reg, {.max_concurrency = 2, .cache_capacity = 0});

  e::cancel_source src;
  src.request_cancel();

  struct Case {
    std::string graph;
    e::query_kind kind;
  };
  std::vector<Case> cases = {
      {"g", e::query_kind::bfs_distance},
      {"w", e::query_kind::sssp_distance},
      {"g", e::query_kind::pagerank_topk},
      {"g", e::query_kind::component_id},
      {"g", e::query_kind::coreness},
      {"g", e::query_kind::triangle_count},
      {"g", e::query_kind::custom},
  };
  for (const auto& c : cases) {
    e::query_request q;
    q.graph = c.graph;
    q.kind = c.kind;
    q.source = 0;
    q.target = 1;
    q.token = src.token();
    if (c.kind == e::query_kind::custom)
      q.custom = [](const e::graph_entry&, const e::cancel_token& t) -> int64_t {
        t.poll();  // must throw: token already cancelled
        return -1;
      };
    auto fut = ex.submit(q);
    EXPECT_THROW(fut.get(), e::cancelled_error)
        << "kind=" << e::query_kind_name(c.kind);
  }
  ex.wait_idle();
  EXPECT_EQ(ex.stats().cancelled, cases.size());
  EXPECT_EQ(ex.stats().failed, 0u);
}

TEST_F(RobustnessTest, MidFlightCancelStopsPollingBody) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  e::cancel_source src;
  std::atomic<bool> started{false};
  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::custom;
  q.token = src.token();
  q.custom = [&](const e::graph_entry&, const e::cancel_token& t) -> int64_t {
    started.store(true);
    // A cooperative body: polls at its "round" boundary, like the apps do.
    while (true) {
      t.poll();
      std::this_thread::sleep_for(1ms);
    }
  };
  auto fut = ex.submit(q);
  while (!started.load()) std::this_thread::sleep_for(1ms);
  src.request_cancel();
  EXPECT_THROW(fut.get(), e::cancelled_error);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().cancelled, 1u);
}

TEST_F(RobustnessTest, WatchdogSettlesNonPollingBody) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::custom;
  q.deadline = 20ms;
  q.custom = [](const e::graph_entry&, const e::cancel_token&) -> int64_t {
    // Uncooperative body: never polls, runs way past its deadline.
    std::this_thread::sleep_for(300ms);
    return 42;
  };
  auto t0 = std::chrono::steady_clock::now();
  auto fut = ex.submit(q);
  EXPECT_THROW(fut.get(), e::deadline_exceeded_error);
  EXPECT_LT(ms_since(t0), 250.0);  // settled well before the body finishes
  ex.wait_idle();                  // the 300ms body still drains cleanly
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed, 0u);  // late result was discarded, not double-set
}

TEST_F(RobustnessTest, DeadlineExpiresWhileQueued) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  q.deadline = 15ms;
  auto fut = ex.submit(q);  // sits behind the blocker, expires in queue
  EXPECT_THROW(fut.get(), e::deadline_exceeded_error);

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

TEST_F(RobustnessTest, SyncRunEnforcesDeadlineByPolling) {
  e::registry reg;
  reg.add("big", big_graph());
  e::query_executor ex(reg, {.cache_capacity = 0});
  e::query_request q;
  q.graph = "big";
  q.kind = e::query_kind::pagerank_topk;
  q.k = 5;
  q.deadline = 10ms;
  EXPECT_THROW(ex.run(q), e::deadline_exceeded_error);
  EXPECT_EQ(ex.stats().deadline_exceeded, 1u);
}

// --- registry: retries and all-or-nothing reload ---------------------------

TEST_F(RobustnessTest, LoadRetriesTransientIoFailures) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempFile file("retry.adj");
  io::write_adjacency_graph(file.path(), small_graph());

  e::registry reg;
  e::load_options opts;
  opts.symmetric = true;
  opts.retry = {.max_attempts = 3, .base_backoff_ms = 1, .max_backoff_ms = 2};

  // First two read attempts fail, third succeeds.
  fp::arm("graph_io.read", fail_spec(/*count=*/2));
  uint64_t base = fp::hits("graph_io.read");
  auto h = reg.load("g", file.path(), opts);
  EXPECT_EQ(fp::hits("graph_io.read"), base + 2);
  EXPECT_EQ(h->structure().num_vertices(), small_graph().num_vertices());
}

TEST_F(RobustnessTest, LoadGivesUpAfterRetryBudget) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempFile file("budget.adj");
  io::write_adjacency_graph(file.path(), small_graph());

  e::registry reg;
  e::load_options opts;
  opts.symmetric = true;
  opts.retry = {.max_attempts = 3, .base_backoff_ms = 1, .max_backoff_ms = 2};
  fp::arm("graph_io.read", fail_spec());  // unlimited failures
  try {
    reg.load("g", file.path(), opts);
    FAIL() << "expected load_error";
  } catch (const e::load_error& err) {
    EXPECT_EQ(err.attempts, 3u);
  }
  EXPECT_EQ(reg.size(), 0u);
}

TEST_F(RobustnessTest, FailedReloadKeepsOldEpochServing) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  TempFile file("reload.adj");
  io::write_adjacency_graph(file.path(), small_graph());

  e::registry reg;
  e::load_options opts;
  opts.symmetric = true;
  opts.retry = {.max_attempts = 2, .base_backoff_ms = 1, .max_backoff_ms = 1};
  auto h1 = reg.load("g", file.path(), opts);
  const uint64_t epoch1 = h1->epoch();

  e::query_executor ex(reg, {.max_concurrency = 2});
  auto make_bfs = [&](vertex_id s) {
    e::query_request q;
    q.graph = "g";
    q.kind = e::query_kind::bfs_distance;
    q.source = s % h1->structure().num_vertices();
    q.target = (s + 1) % h1->structure().num_vertices();
    return q;
  };
  std::vector<std::future<e::query_result>> futs;
  for (vertex_id s = 0; s < 8; s++) futs.push_back(ex.submit(make_bfs(s)));

  // The reload fails every attempt; the registry must keep epoch1 serving.
  fp::arm("graph_io.read", fail_spec());
  EXPECT_THROW(reg.load("g", file.path(), opts), e::load_error);
  fp::disarm("graph_io.read");

  auto h2 = reg.get("g");
  EXPECT_EQ(h2.get(), h1.get());
  EXPECT_EQ(h2->epoch(), epoch1);

  for (vertex_id s = 8; s < 16; s++) futs.push_back(ex.submit(make_bfs(s)));
  for (auto& f : futs) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 0u);  // zero collateral query failures

  // A successful reload afterwards does advance the epoch.
  auto h3 = reg.load("g", file.path(), opts);
  EXPECT_GT(h3->epoch(), epoch1);
}

TEST_F(RobustnessTest, CorruptBinaryReloadFailsFastAndKeepsServing) {
  TempFile file("corrupt.lgrb");
  io::write_binary_graph(file.path(), small_graph());

  e::registry reg;
  auto h1 = reg.load("g", file.path());
  const uint64_t epoch1 = h1->epoch();

  // Corrupt the first edge target (just past header + offsets) to an
  // out-of-range vertex id; file size stays valid so only the structural
  // validation can catch it.
  {
    const size_t header = 24;
    const size_t offsets =
        (static_cast<size_t>(small_graph().num_vertices()) + 1) * sizeof(edge_id);
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(header + offsets));
    uint32_t bad = 0xFFFFFFFEu;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }

  try {
    reg.load("g", file.path());
    FAIL() << "expected load_error";
  } catch (const e::load_error& err) {
    EXPECT_EQ(err.attempts, 1u) << "format errors must not be retried";
  }
  EXPECT_EQ(reg.get("g")->epoch(), epoch1);
}

TEST_F(RobustnessTest, ValidateGraphCatchesAsymmetricSymmetricView) {
  // Built as "symmetric" but edge (0, 1) has no reverse — from_csr's shape
  // checks accept it; only the deep validation pass catches it.
  graph g = graph::from_csr(2, {0, 1, 1}, {1}, {}, /*symmetric=*/true);
  EXPECT_THROW(io::validate_graph(g, "test-ctx"), io::format_error);
  try {
    io::validate_graph(g, "test-ctx");
  } catch (const io::format_error& err) {
    EXPECT_NE(std::string(err.what()).find("reverse"), std::string::npos);
    EXPECT_EQ(err.path(), "test-ctx");
  }
  // A well-formed graph passes.
  EXPECT_NO_THROW(io::validate_graph(small_graph(), "ok"));
}

// --- edge-update batches (docs/DYNAMIC.md) ----------------------------------

TEST_F(RobustnessTest, FailedApplyNeverPublishesPartialEpoch) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  auto h1 = reg.add_mutable("m", small_graph());
  const uint64_t epoch1 = h1->epoch();

  e::query_executor ex(reg, {.max_concurrency = 2});
  auto make_bfs = [&](vertex_id s) {
    e::query_request q;
    q.graph = "m";
    q.kind = e::query_kind::bfs_distance;
    q.source = s % h1->num_vertices();
    q.target = (s + 1) % h1->num_vertices();
    return q;
  };
  std::vector<std::future<e::query_result>> futs;
  for (vertex_id s = 0; s < 8; s++) futs.push_back(ex.submit(make_bfs(s)));

  // Every apply attempt fails at the allocation failpoint; the batch must
  // not publish (no partial epoch) and the old epoch must keep serving.
  dynamic::update_batch batch;
  batch.inserts = {{0, 7}, {1, 5}};
  fp::arm("dynamic.apply.alloc", fail_spec());
  try {
    reg.apply_updates("m", batch,
                      {.max_attempts = 3, .base_backoff_ms = 1,
                       .max_backoff_ms = 2});
    FAIL() << "expected update_error";
  } catch (const e::update_error& err) {
    EXPECT_EQ(err.attempts, 3u);
  }
  fp::disarm("dynamic.apply.alloc");

  auto h2 = reg.get("m");
  EXPECT_EQ(h2.get(), h1.get());  // the very same entry, not a partial one
  EXPECT_EQ(h2->epoch(), epoch1);
  EXPECT_EQ(h2->dyn()->version(), 0u);
  EXPECT_FALSE(h2->dyn()->has_edge(0, 7));

  for (vertex_id s = 8; s < 16; s++) futs.push_back(ex.submit(make_bfs(s)));
  for (auto& f : futs) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 0u);  // zero collateral query failures

  // With the failpoint gone the same batch publishes.
  auto h3 = reg.apply_updates("m", batch);
  EXPECT_GT(h3->epoch(), epoch1);
  EXPECT_TRUE(h3->dyn()->has_edge(0, 7));
}

TEST_F(RobustnessTest, ApplyRetriesTransientFaultThenPublishes) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  reg.add_mutable("m", small_graph());

  dynamic::update_batch batch;
  batch.inserts = {{2, 9}};
  fp::arm("dynamic.apply.alloc", fail_spec(/*count=*/2));
  uint64_t base = fp::hits("dynamic.apply.alloc");
  auto h = reg.apply_updates("m", batch,
                             {.max_attempts = 3, .base_backoff_ms = 1,
                              .max_backoff_ms = 2});
  EXPECT_EQ(fp::hits("dynamic.apply.alloc"), base + 2);
  EXPECT_TRUE(h->dyn()->has_edge(2, 9));
  EXPECT_EQ(metrics.get_counter("engine_graph_update_retries_total").value(),
            2u);
  EXPECT_EQ(metrics.get_counter("engine_graph_updates_total").value(), 1u);
  EXPECT_EQ(metrics.get_counter("engine_graph_update_failures_total").value(),
            0u);
}

TEST_F(RobustnessTest, CompactionFaultAbortsWholeBatch) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  // Path graph (so the inserted edges are definitely absent) with
  // thresholds chosen so the first batch crosses into compaction.
  auto h1 = reg.add_mutable("m", gen::path_graph(200),
                            dynamic::mutable_graph_options{
                                .compact_fraction = 0.001,
                                .compact_min_edges = 4});
  const uint64_t epoch1 = h1->epoch();

  dynamic::update_batch batch;
  for (vertex_id i = 0; i < 8; i++) batch.inserts.push_back({i, i + 100});
  fp::arm("dynamic.compact", fail_spec());
  EXPECT_THROW(reg.apply_updates("m", batch,
                                 {.max_attempts = 2, .base_backoff_ms = 1,
                                  .max_backoff_ms = 1}),
               e::update_error);
  fp::disarm("dynamic.compact");

  // All-or-nothing: the *whole* batch is absent, not just the compaction.
  auto h2 = reg.get("m");
  EXPECT_EQ(h2->epoch(), epoch1);
  EXPECT_EQ(h2->dyn()->version(), 0u);
  EXPECT_FALSE(h2->dyn()->has_edge(0, 100));

  // Retry without the fault: batch applies AND compacts.
  auto h3 = reg.apply_updates("m", batch);
  EXPECT_GT(h3->epoch(), epoch1);
  EXPECT_TRUE(h3->dyn()->has_edge(0, 100));
  EXPECT_EQ(h3->dyn()->delta_edges(), 0u);  // compacted into a fresh base
  h3->dyn()->check_invariants();
}

// --- executor degradation ---------------------------------------------------

TEST_F(RobustnessTest, ShedsLowPriorityPastWatermark) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .max_queue = 8,
                             .shed_watermark = 2, .cache_capacity = 0});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  auto make_bfs = [&](e::query_priority prio) {
    e::query_request q;
    q.graph = "g";
    q.kind = e::query_kind::bfs_distance;
    q.source = 0;
    q.target = 1;
    q.priority = prio;
    return q;
  };
  std::vector<std::future<e::query_result>> queued;
  queued.push_back(ex.submit(make_bfs(e::query_priority::normal)));
  queued.push_back(ex.submit(make_bfs(e::query_priority::normal)));
  ASSERT_GE(ex.queue_depth(), 2u);

  // Past the watermark: low is shed with advice, normal still admitted.
  try {
    ex.submit(make_bfs(e::query_priority::low));
    FAIL() << "expected shed_error";
  } catch (const e::shed_error& err) {
    EXPECT_GT(err.retry_after.count(), 0);
  }
  queued.push_back(ex.submit(make_bfs(e::query_priority::normal)));

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  for (auto& f : queued) EXPECT_GE(f.get().value, -1);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.shed, 1u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.failed, 0u);
}

TEST_F(RobustnessTest, RejectedCarriesRetryAfterAdvice) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .max_queue = 1,
                             .cache_capacity = 0});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  auto queued = ex.submit(q);  // fills the queue
  // Full queue: rejection must carry populated backoff advice, the same
  // contract shedding honors — callers and the network tier rely on it.
  try {
    ex.submit(q);
    FAIL() << "expected rejected_error";
  } catch (const e::rejected_error& err) {
    EXPECT_GT(err.retry_after.count(), 0);
  }

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  queued.get();
  ex.wait_idle();
}

TEST_F(RobustnessTest, DrainStopsAdmissionsAndEmptiesTheQueue) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  auto inflight = ex.submit(q);
  EXPECT_FALSE(ex.draining());
  EXPECT_TRUE(ex.drain(5000ms));  // true = fully drained within the bound
  EXPECT_TRUE(ex.draining());
  EXPECT_GE(inflight.get().value, -1);  // admitted work still completed
  EXPECT_EQ(ex.queue_depth(), 0u);

  // Admissions are closed now; the rejection carries retry advice.
  try {
    ex.submit(q);
    FAIL() << "expected rejected_error after drain";
  } catch (const e::rejected_error& err) {
    EXPECT_GT(err.retry_after.count(), 0);
  }
  auto snap = ex.stats();
  EXPECT_EQ(snap.rejected, 1u);
}

TEST_F(RobustnessTest, DrainDeadlineBoundsTheWait) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::sleep_for(1ms);

  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ex.drain(50ms));  // blocker still running: drain times out
  EXPECT_LT(ms_since(t0), 5000.0);

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  ex.wait_idle();
}

// --- failpoints wired through the engine ------------------------------------

TEST_F(RobustnessTest, CacheInsertFaultNeverFailsAQuery) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 64});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;

  // `fail` action: put() counts and drops the insertion.
  fp::arm("cache.insert", fail_spec(/*count=*/1));
  EXPECT_GE(ex.submit(q).get().value, -1);
  ex.wait_idle();
  auto snap1 = ex.cache().snapshot();
  EXPECT_EQ(snap1.counters.insert_failures, 1u);
  EXPECT_EQ(snap1.size, 0u);

  // `throw` action: the executor swallows it; the answer still goes out.
  fp::spec thr;
  thr.act = fp::action::throw_error;
  thr.count = 1;
  fp::arm("cache.insert", thr);
  q.source = 1;
  q.target = 2;
  EXPECT_GE(ex.submit(q).get().value, -1);
  ex.wait_idle();
  EXPECT_EQ(ex.stats().failed, 0u);
  EXPECT_EQ(ex.stats().completed, 2u);
}

TEST_F(RobustnessTest, DispatchFaultSurfacesThroughFutureOnly) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;

  fp::arm("executor.dispatch", fail_spec(/*count=*/1));
  auto fut = ex.submit(q);
  EXPECT_THROW(fut.get(), e::engine_error);
  // The dispatcher survives the injected fault; the next query is fine.
  EXPECT_GE(ex.submit(q).get().value, -1);
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.completed, 1u);
}

TEST_F(RobustnessTest, EpochFillFaultPublishesNothingAndTheNextQueryFills) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const graph g = small_graph();
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  auto h = reg.add("g", g);
  const size_t bytes = h->memory_bytes();
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});
  auto& fills =
      metrics.get_counter("engine_epoch_fills_total{kind=\"coreness\"}");

  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::coreness;
  q.source = 3;

  // The query that runs the failed fill fails as `internal`...
  fp::arm("epoch.fill", fail_spec(/*count=*/1));
  std::exception_ptr err;
  try {
    ex.submit(q).get();
  } catch (...) {
    err = std::current_exception();
  }
  ASSERT_TRUE(err);
  EXPECT_EQ(e::classify(err).status, e::query_status::internal);
  // ...and nothing is published.
  EXPECT_EQ(h->memory_bytes(), bytes);
  EXPECT_EQ(fills.value(), 0u);

  // The next query fills the array and answers correctly.
  EXPECT_EQ(ex.submit(q).get().value, apps::vertex_coreness(g, 3));
  EXPECT_EQ(fills.value(), 1u);
  EXPECT_EQ(h->memory_bytes(), bytes + g.num_vertices() * sizeof(vertex_id));
  ex.wait_idle();
  auto snap = ex.stats();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.completed, 1u);
}
