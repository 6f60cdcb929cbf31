// Tests for the observability subsystem (docs/OBSERVABILITY.md): histogram
// bucketing and quantile accuracy, concurrent shard recording, the metrics
// registry's exposition formats and collectors, traversal tracing through
// edge_map and the query engine, and the failpoint/scheduler bridges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "apps/bfs.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "obs/collectors.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "util/failpoint.h"

using namespace ligra;

namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

// --- histogram bucketing ----------------------------------------------------

TEST(HistogramBuckets, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < 8; v++) {
    EXPECT_EQ(obs::hist_detail::bucket_of(v), v);
    EXPECT_EQ(obs::hist_detail::bucket_lower(v), v);
  }
}

TEST(HistogramBuckets, LowerAndUpperBracketEveryValue) {
  // Sweep values across every unclamped octave; each must land in a bucket
  // whose [lower, upper) range brackets it. (At 2^32 and beyond values
  // clamp into the top bucket — covered separately below.)
  for (uint64_t v = 1; v < (uint64_t{1} << 32); v = v * 3 + 1) {
    size_t idx = obs::hist_detail::bucket_of(v);
    EXPECT_LE(obs::hist_detail::bucket_lower(idx), v) << "value " << v;
    EXPECT_LT(v, obs::hist_detail::bucket_upper(idx)) << "value " << v;
  }
  // Exact powers of two start fresh buckets.
  for (int o = 3; o < 31; o++) {
    uint64_t v = uint64_t{1} << o;
    EXPECT_EQ(obs::hist_detail::bucket_lower(obs::hist_detail::bucket_of(v)), v);
  }
}

TEST(HistogramBuckets, RelativeWidthBoundedByOneEighth) {
  // 8 sub-buckets per octave => bucket width / lower bound <= 1/8 above the
  // unit-bucket range. This is the quantile error bound we document.
  for (size_t idx = 8; idx + 1 < obs::hist_detail::kNumBuckets; idx++) {
    double lo = static_cast<double>(obs::hist_detail::bucket_lower(idx));
    double hi = static_cast<double>(obs::hist_detail::bucket_upper(idx));
    EXPECT_LE((hi - lo) / lo, 0.125 + 1e-12) << "bucket " << idx;
  }
}

TEST(HistogramBuckets, HugeValuesClampIntoTopBucket) {
  EXPECT_EQ(obs::hist_detail::bucket_of(uint64_t{1} << 33),
            obs::hist_detail::kNumBuckets - 1);
  EXPECT_EQ(obs::hist_detail::bucket_of(~uint64_t{0}),
            obs::hist_detail::kNumBuckets - 1);
}

// --- histogram recording and quantiles --------------------------------------

TEST(Histogram, EmptySnapshotIsAllZero) {
  obs::histogram h;
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.p50(), 0.0);
}

TEST(Histogram, CountSumMaxAreExact) {
  obs::histogram h;
  uint64_t sum = 0;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.record(v * 7);
    sum += v * 7;
  }
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, 7000u);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(Histogram, QuantilesWithinBucketErrorOfExact) {
  obs::histogram h;
  const uint64_t n = 10000;
  for (uint64_t v = 1; v <= n; v++) h.record(v);
  auto snap = h.snapshot();
  for (double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    double exact = q * static_cast<double>(n);
    double est = snap.quantile(q);
    // Bucket midpoints bound the relative error by half the bucket width
    // plus the off-by-one of discrete ranks; 13% covers both comfortably.
    EXPECT_NEAR(est, exact, exact * 0.13) << "q=" << q;
  }
  // q=1 reports the exact max, never a bucket midpoint.
  EXPECT_EQ(snap.quantile(1.0), static_cast<double>(n));
  EXPECT_EQ(snap.p50(), snap.quantile(0.5));
}

TEST(Histogram, QuantileNeverExceedsObservedMax) {
  obs::histogram h;
  h.record(1000);  // single sample: every quantile is (at most) the max
  auto snap = h.snapshot();
  for (double q : {0.5, 0.95, 0.99})
    EXPECT_LE(snap.quantile(q), 1000.0) << "q=" << q;
}

TEST(Histogram, ConcurrentRecordsMergeLosslessly) {
  obs::histogram h;
  const int kThreads = 8;
  const uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; i++)
        h.record(static_cast<uint64_t>(t) * kPerThread + i);
    });
  }
  for (auto& th : threads) th.join();
  auto snap = h.snapshot();
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(snap.count, total);
  EXPECT_EQ(snap.sum, total * (total - 1) / 2);
  EXPECT_EQ(snap.max, total - 1);
  uint64_t bucketed = 0;
  for (uint64_t b : snap.buckets) bucketed += b;
  EXPECT_EQ(bucketed, total);
}

// --- metrics registry -------------------------------------------------------

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  obs::metrics_registry reg;
  obs::counter& a = reg.get_counter("requests_total");
  a.inc(3);
  obs::counter& b = reg.get_counter("requests_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, TypeClashThrows) {
  obs::metrics_registry reg;
  reg.get_counter("x");
  EXPECT_THROW(reg.get_gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.get_histogram("x"), std::invalid_argument);
  EXPECT_THROW(reg.get_counter(""), std::invalid_argument);
}

TEST(MetricsRegistry, TextExpositionFormatsAllKinds) {
  obs::metrics_registry reg;
  reg.get_counter("reqs_total").inc(42);
  reg.get_gauge("depth").set(-3);
  obs::histogram& h = reg.get_histogram("lat_micros{kind=\"bfs\"}");
  h.record(100);
  h.record(200);
  std::string text = reg.render_text();
  EXPECT_TRUE(contains(text, "reqs_total 42\n"));
  EXPECT_TRUE(contains(text, "depth -3\n"));
  // Histogram suffixes merge inside the label braces.
  EXPECT_TRUE(contains(text, "lat_micros_count{kind=\"bfs\"} 2\n"));
  EXPECT_TRUE(contains(text, "lat_micros_sum{kind=\"bfs\"} 300\n"));
  EXPECT_TRUE(contains(text, "lat_micros_max{kind=\"bfs\"} 200\n"));
  EXPECT_TRUE(contains(text, "lat_micros{kind=\"bfs\",quantile=\"0.5\"}"));
  EXPECT_TRUE(contains(text, "quantile=\"0.99\""));
}

TEST(MetricsRegistry, JsonExpositionHasAllSections) {
  obs::metrics_registry reg;
  reg.get_counter("c_total").inc();
  reg.get_gauge("g").set(7);
  reg.get_histogram("h_micros").record(50);
  std::string json = reg.render_json();
  EXPECT_TRUE(contains(json, "\"counters\":{\"c_total\":1}"));
  EXPECT_TRUE(contains(json, "\"gauges\":{\"g\":7}"));
  EXPECT_TRUE(contains(json, "\"h_micros\":{\"count\":1,\"sum\":50"));
  EXPECT_TRUE(contains(json, "\"p99\":"));
  // Balanced braces — the cheap structural sanity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistry, CollectorsRunAtExpositionAndCanBeRemoved) {
  obs::metrics_registry reg;
  int level = 5;
  uint64_t id = reg.add_collector(
      [&] { reg.get_gauge("level").set(level); });
  EXPECT_TRUE(contains(reg.render_text(), "level 5\n"));
  level = 9;
  EXPECT_TRUE(contains(reg.render_text(), "level 9\n"));
  reg.remove_collector(id);
  level = 123;
  EXPECT_TRUE(contains(reg.render_text(), "level 9\n"));  // stale: not re-run
}

// --- tracing ----------------------------------------------------------------

TEST(Trace, RoundsAndSpansAccumulate) {
  obs::query_trace t;
  t.add_round("sparse", 1, 10, 100, 5.0, /*blocks=*/3, /*scratch_bytes=*/4096);
  t.add_round("dense", 50, 900, 100, 7.5);  // defaults: blocks/scratch omitted
  size_t span = t.begin_span("rounds");
  t.end_span(span);
  auto rounds = t.rounds();
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0].index, 1u);
  EXPECT_STREQ(rounds[0].direction, "sparse");
  EXPECT_EQ(rounds[1].index, 2u);
  EXPECT_EQ(rounds[0].blocks, 3u);
  EXPECT_EQ(rounds[0].scratch_bytes, 4096u);
  EXPECT_EQ(rounds[1].frontier_size, 50u);
  EXPECT_EQ(rounds[1].frontier_edges, 900u);
  EXPECT_EQ(rounds[1].threshold, 100u);
  EXPECT_EQ(rounds[1].blocks, 0u);
  auto spans = t.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "rounds");
  EXPECT_GE(spans[0].micros, 0.0);  // closed
  std::string json = t.to_json();
  EXPECT_TRUE(contains(json, "\"dir\":\"sparse\""));
  EXPECT_TRUE(contains(json, "\"frontier\":50"));
  EXPECT_TRUE(contains(json, "\"blocks\":3"));
  EXPECT_TRUE(contains(json, "\"scratch_bytes\":4096"));
  EXPECT_TRUE(contains(json, "\"name\":\"rounds\""));
}

TEST(Trace, ScopeInstallsAndRestoresNested) {
  EXPECT_EQ(obs::current_trace(), nullptr);
  obs::query_trace outer, inner;
  {
    obs::trace_scope a(&outer);
    EXPECT_EQ(obs::current_trace(), &outer);
    {
      obs::trace_scope b(&inner);
      EXPECT_EQ(obs::current_trace(), &inner);
      obs::trace_scope c(nullptr);  // suspends tracing
      EXPECT_EQ(obs::current_trace(), nullptr);
    }
    EXPECT_EQ(obs::current_trace(), &outer);
  }
  EXPECT_EQ(obs::current_trace(), nullptr);
}

TEST(Trace, SpanScopeIsANoopWithoutATrace) {
  ASSERT_EQ(obs::current_trace(), nullptr);
  obs::span_scope s("nothing");  // must not crash or allocate a trace
  EXPECT_EQ(obs::current_trace(), nullptr);
}

// The acceptance check: a traced BFS reproduces exactly the per-round
// direction choices and frontier sizes that the edge_map_stats-based trace
// (experiment F1 / bench_fig_frontier_trace) reports.
TEST(Trace, BfsTraceMatchesEdgeMapStatsTrace) {
  auto g = gen::rmat_graph(/*scale=*/11, /*num_edges=*/1 << 14, /*seed=*/3);

  apps::bfs_options opts;
  edge_map_stats stats;
  opts.edge_map.stats = &stats;  // requests the per-round stats trace
  auto reference = apps::bfs(g, 0, opts);
  ASSERT_GT(reference.trace.size(), 2u);

  obs::query_trace trace;
  {
    obs::trace_scope scope(&trace);
    auto traced = apps::bfs(g, 0);
    EXPECT_EQ(traced.num_reached, reference.num_reached);
  }

  auto rounds = trace.rounds();
  ASSERT_EQ(rounds.size(), reference.trace.size());
  const uint64_t threshold = g.num_edges() / 20;
  bool saw_dense = false;
  for (size_t i = 0; i < rounds.size(); i++) {
    EXPECT_EQ(rounds[i].index, i + 1);
    EXPECT_EQ(rounds[i].frontier_size, reference.trace[i].frontier_size)
        << "round " << i;
    EXPECT_EQ(rounds[i].frontier_edges, reference.trace[i].frontier_edges)
        << "round " << i;
    EXPECT_STREQ(rounds[i].direction, traversal_name(reference.trace[i].used))
        << "round " << i;
    EXPECT_EQ(rounds[i].threshold, threshold);
    EXPECT_GE(rounds[i].micros, 0.0);
    if (std::string(rounds[i].direction) == "dense") saw_dense = true;
  }
  // rMat BFS balloons past m/20 — the hybrid must have gone dense at least
  // once, so the trace demonstrably captures the direction switch.
  EXPECT_TRUE(saw_dense);
}

// --- engine integration -----------------------------------------------------

namespace {

engine::query_request bfs_request(vertex_id source, vertex_id target) {
  engine::query_request req;
  req.graph = "g";
  req.kind = engine::query_kind::bfs_distance;
  req.source = source;
  req.target = target;
  return req;
}

}  // namespace

TEST(EngineTracing, RunFillsRoundsAndPhaseSpans) {
  engine::registry reg;
  reg.add("g", gen::rmat_graph(10, 1 << 13, 5));
  engine::query_executor ex(reg, {});

  obs::query_trace trace;
  auto req = bfs_request(0, 7);
  req.trace = &trace;
  auto r = ex.run(req);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GT(trace.rounds().size(), 0u);
  auto spans = trace.spans();
  auto has_span = [&](const char* name) {
    return std::any_of(spans.begin(), spans.end(),
                       [&](const obs::trace_span& s) { return s.name == name; });
  };
  EXPECT_TRUE(has_span("execute"));
  EXPECT_TRUE(has_span("rounds"));
  for (const auto& s : spans) EXPECT_GE(s.micros, 0.0) << s.name;  // all closed
}

TEST(EngineTracing, SubmitInstallsTraceOnTheBodyThread) {
  engine::registry reg;
  reg.add("g", gen::rmat_graph(10, 1 << 13, 5));
  engine::query_executor ex(reg, {});

  obs::query_trace trace;
  auto req = bfs_request(0, 9);
  req.trace = &trace;
  ex.submit(req).get();
  EXPECT_GT(trace.rounds().size(), 0u);
  auto spans = trace.spans();
  EXPECT_TRUE(std::any_of(
      spans.begin(), spans.end(),
      [](const obs::trace_span& s) { return s.name == "queued"; }));
  EXPECT_TRUE(std::any_of(
      spans.begin(), spans.end(),
      [](const obs::trace_span& s) { return s.name == "execute"; }));
}

TEST(EngineTracing, TracedQueriesBypassTheResultCache) {
  engine::registry reg;
  reg.add("g", gen::rmat_graph(10, 1 << 13, 5));
  engine::query_executor ex(reg, {});

  auto req = bfs_request(0, 3);
  ex.run(req);
  EXPECT_TRUE(ex.run(req).cache_hit);  // warm

  obs::query_trace trace;
  req.trace = &trace;
  auto r = ex.run(req);
  EXPECT_FALSE(r.cache_hit);  // traced => executed for real
  EXPECT_GT(trace.rounds().size(), 0u);
}

TEST(EngineMetrics, ExecutorExposesLatencyHistogramsAndCounters) {
  engine::registry reg;
  reg.add("g", gen::rmat_graph(10, 1 << 13, 5));
  engine::query_executor ex(reg, {});
  for (vertex_id v = 1; v <= 8; v++) ex.run(bfs_request(0, v));

  auto snap = ex.stats();
  const auto& bfs =
      snap.per_kind[static_cast<size_t>(engine::query_kind::bfs_distance)];
  EXPECT_EQ(bfs.count, 8u);
  EXPECT_GT(bfs.p50_micros, 0.0);
  EXPECT_GE(bfs.p95_micros, bfs.p50_micros);
  EXPECT_GE(bfs.p99_micros, bfs.p95_micros);
  EXPECT_GE(static_cast<double>(bfs.max_micros), bfs.p99_micros);

  std::string text = ex.metrics().render_text();
  EXPECT_TRUE(contains(text, "engine_queries_submitted_total 8\n"));
  EXPECT_TRUE(contains(text, "engine_queries_completed_total 8\n"));
  EXPECT_TRUE(
      contains(text, "engine_query_latency_micros_count{kind=\"bfs\"} 8\n"));
  EXPECT_TRUE(contains(text, "engine_cache_misses_total 8\n"));
}

TEST(EngineMetrics, SharedRegistryCoversResidencyAndExecutor) {
  obs::metrics_registry metrics;
  engine::registry reg(&metrics);
  reg.add("g", gen::rmat_graph(10, 1 << 13, 5));
  engine::executor_options opts;
  opts.metrics = &metrics;
  engine::query_executor ex(reg, opts);
  EXPECT_EQ(&ex.metrics(), &metrics);
  ex.run(bfs_request(0, 4));

  std::string text = metrics.render_text();
  EXPECT_TRUE(contains(text, "engine_graphs_resident 1\n"));
  EXPECT_TRUE(contains(text, "engine_graph_epoch{graph=\"g\"}"));
  EXPECT_TRUE(contains(text, "engine_graph_memory_bytes"));
  EXPECT_TRUE(contains(text, "engine_queries_submitted_total 1\n"));

  reg.evict("g");
  EXPECT_TRUE(contains(metrics.render_text(), "engine_graphs_resident 0\n"));
}

TEST(EngineMetrics, PrivateRegistriesStayIsolated) {
  engine::registry reg;
  reg.add("g", gen::rmat_graph(10, 1 << 13, 5));
  engine::query_executor a(reg, {});
  engine::query_executor b(reg, {});
  a.run(bfs_request(0, 2));
  EXPECT_EQ(a.stats().submitted, 1u);
  EXPECT_EQ(b.stats().submitted, 0u);
  EXPECT_TRUE(
      contains(b.metrics().render_text(), "engine_queries_submitted_total 0\n"));
}

// --- failpoint and scheduler bridges ----------------------------------------

TEST(FailpointMetrics, CollectorPublishesArmedAndHitCounts) {
  if (!util::failpoint::compiled_in()) GTEST_SKIP() << "failpoints disabled";
  util::failpoint::disarm_all();
  obs::metrics_registry reg;
  obs::install_failpoint_collector(reg);

  EXPECT_TRUE(contains(reg.render_text(), "failpoint_armed 0\n"));
  util::failpoint::spec s;
  s.act = util::failpoint::action::fail;
  util::failpoint::arm("obs.test.site", s);
  uint64_t before = util::failpoint::hits("obs.test.site");
  EXPECT_TRUE(LIGRA_FAILPOINT("obs.test.site"));
  EXPECT_EQ(util::failpoint::hits("obs.test.site"), before + 1);

  std::string text = reg.render_text();
  EXPECT_TRUE(contains(text, "failpoint_armed 1\n"));
  EXPECT_TRUE(contains(text, "failpoint_hits{site=\"obs.test.site\"}"));
  util::failpoint::disarm_all();
  EXPECT_TRUE(contains(reg.render_text(), "failpoint_armed 0\n"));
}

TEST(SchedulerMetrics, WorkerStatsAndCollectorPublish) {
  auto& sched = parallel::scheduler::instance();
  auto stats = sched.worker_stats();
  EXPECT_EQ(stats.size(), static_cast<size_t>(sched.num_workers()));

  obs::metrics_registry reg;
  obs::install_scheduler_collector(reg);
  std::string text = reg.render_text();
  EXPECT_TRUE(contains(text, "scheduler_workers"));
  EXPECT_TRUE(contains(text, "scheduler_steals{worker=\"0\"}"));
  EXPECT_TRUE(contains(text, "scheduler_parks{worker=\"0\"}"));
}
