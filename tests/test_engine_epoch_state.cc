// Per-epoch analytics tests (docs/ENGINE.md "Per-epoch analytics"): every
// cc, coreness and top-k answer equals a recompute on the epoch it was
// served from, for static and mutable entries, through submit() and run();
// concurrent first queries share one fill; a leader's deadline never fails
// the queries waiting on its fill; and each array is filled at most once per
// epoch, on first use — never by load(), add() or apply_updates().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/components.h"
#include "apps/kcore.h"
#include "apps/pagerank.h"
#include "apps/query_adapters.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace e = ligra::engine;
using namespace ligra;
using namespace std::chrono_literals;

namespace {

// Samples per epoch. Each is checked by recomputing the whole graph, so the
// inputs stay small enough for the sanitizer builds.
constexpr size_t kSamples = 4;
constexpr size_t kBatches = 8;

struct input {
  const char* name;
  graph g;
};

std::vector<input> inputs() {
  std::vector<input> in;
  in.push_back({"rmat", gen::rmat_graph(10, 1 << 13, /*seed=*/5)});
  in.push_back({"uniform", gen::random_graph(1024, 6, /*seed=*/9)});
  return in;
}

uint64_t fills(obs::metrics_registry& m, const char* kind) {
  return m
      .get_counter(std::string("engine_epoch_fills_total{kind=\"") + kind +
                   "\"}")
      .value();
}

// The whole-graph point queries of sample `i` against graph `name`.
std::vector<e::query_request> sample_queries(const std::string& name,
                                             const rng& r, size_t i,
                                             vertex_id n) {
  std::vector<e::query_request> qs(3);
  qs[0].kind = e::query_kind::component_id;
  qs[1].kind = e::query_kind::coreness;
  qs[2].kind = e::query_kind::pagerank_topk;
  for (auto& q : qs) {
    q.graph = name;
    q.source = static_cast<vertex_id>(r.bounded(i, n));
    q.k = 1 + r.bounded(i + 1000, 40);
  }
  return qs;
}

size_t fill_spans(const obs::query_trace& t) {
  size_t count = 0;
  for (const auto& s : t.spans()) count += s.name == "fill" ? 1 : 0;
  return count;
}

// Sample `i` goes through submit() when even, run() when odd.
e::query_result ask(e::query_executor& ex, const e::query_request& q,
                    size_t i) {
  return i % 2 == 0 ? ex.submit(q).get() : ex.run(q);
}

// `r` against a recompute on `g`, the structure of the epoch it was served
// from. `inc_ranks` is that epoch's incremental PageRank for a mutable
// entry (its top-k is served from those ranks), null for a static one.
void expect_recomputed(const e::query_request& q, const e::query_result& r,
                       const graph& g, const std::vector<double>* inc_ranks) {
  SCOPED_TRACE(std::string(e::query_kind_name(q.kind)) + " source " +
               std::to_string(q.source) + " k " + std::to_string(q.k));
  switch (q.kind) {
    case e::query_kind::component_id:
      EXPECT_EQ(r.value, apps::component_id(g, q.source));
      break;
    case e::query_kind::coreness:
      EXPECT_EQ(r.value, apps::vertex_coreness(g, q.source));
      break;
    case e::query_kind::pagerank_topk:
      EXPECT_EQ(r.topk, inc_ranks != nullptr
                            ? apps::topk_ranks(*inc_ranks, q.k)
                            : apps::pagerank_topk(g, q.k));
      EXPECT_EQ(r.value, static_cast<int64_t>(r.topk.size()));
      break;
    default:
      FAIL() << "not a whole-graph kind";
  }
}

}  // namespace

TEST(EngineEpochState, StaticAnswersEqualARecompute) {
  for (const auto& in : inputs()) {
    SCOPED_TRACE(in.name);
    obs::metrics_registry metrics;
    e::registry reg(&metrics);
    reg.add("g", in.g);
    // No cache: every answer below is a lookup into the epoch's arrays.
    e::query_executor ex(reg, {.cache_capacity = 0});
    const rng r(17);
    for (size_t i = 0; i < kSamples; i++) {
      for (const auto& q : sample_queries("g", r, i, in.g.num_vertices()))
        expect_recomputed(q, ask(ex, q, i), in.g, nullptr);
    }
    EXPECT_EQ(fills(metrics, "cc"), 1u);
    EXPECT_EQ(fills(metrics, "coreness"), 1u);
    EXPECT_EQ(fills(metrics, "pagerank"), 1u);
  }
}

TEST(EngineEpochState, MutableAnswersEqualARecomputeAtTheirEpoch) {
  for (const auto& in : inputs()) {
    SCOPED_TRACE(in.name);
    const vertex_id n = in.g.num_vertices();
    obs::metrics_registry metrics;
    obs::flight_recorder flightrec(4096);
    e::registry reg(&metrics);
    e::query_executor ex(reg, {.cache_capacity = 0, .flightrec = &flightrec});

    std::map<uint64_t, e::graph_handle> epochs;
    std::vector<std::pair<e::query_request, e::query_result>> answers;
    e::graph_handle h = reg.add_mutable("m", in.g);
    const rng r(23);
    std::vector<edge> last_inserts;
    for (size_t b = 0;; b++) {
      epochs[h->epoch()] = h;
      for (size_t i = 0; i < kSamples; i++) {
        for (const auto& q : sample_queries("m", r.fork(b), i, n))
          answers.emplace_back(q, ask(ex, q, i));
      }
      if (b == kBatches) break;
      // Inserts between random vertices; deletes of the previous batch's.
      // An edge in both lists would make the batch malformed.
      dynamic::update_batch batch;
      batch.deletes = std::move(last_inserts);
      const rng br = r.fork(b + 100);
      for (uint64_t j = 0; j < 24; j++) {
        edge ins(static_cast<vertex_id>(br.bounded(2 * j, n)),
                 static_cast<vertex_id>(br.bounded(2 * j + 1, n)));
        bool deleted = false;
        for (const edge& d : batch.deletes)
          deleted |= (d.u == ins.u && d.v == ins.v) ||
                     (d.u == ins.v && d.v == ins.u);
        if (!deleted) batch.inserts.push_back(ins);
      }
      last_inserts = batch.inserts;
      h = reg.apply_updates("m", std::move(batch));
    }

    // Join every answer to the epoch its flight entry records, and recheck
    // it there.
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> epoch_of;
    for (const auto& fe : flightrec.snapshot())
      epoch_of[{fe.id.hi, fe.id.lo}] = fe.epoch;
    std::map<uint64_t, graph> merged;
    for (const auto& [q, res] : answers) {
      auto it = epoch_of.find({res.tid.hi, res.tid.lo});
      ASSERT_NE(it, epoch_of.end()) << "no flight entry for an answer";
      const e::graph_handle& at = epochs.at(it->second);
      auto m = merged.find(it->second);
      if (m == merged.end())
        m = merged.emplace(it->second, at->dyn()->materialize()).first;
      expect_recomputed(q, res, m->second, &at->inc()->pr_rank);
    }
    EXPECT_EQ(epochs.size(), kBatches + 1);
    // Coreness filled once per epoch; labels and ranks come from the
    // incremental state, so those never fill.
    EXPECT_EQ(fills(metrics, "coreness"), kBatches + 1);
    EXPECT_EQ(fills(metrics, "cc"), 0u);
    EXPECT_EQ(fills(metrics, "pagerank"), 0u);
  }
}

TEST(EngineEpochState, ConcurrentFirstQueriesShareOneFill) {
  const graph g = gen::rmat_graph(12, 1 << 16, /*seed=*/29);
  const std::vector<vertex_id> want = apps::kcore(g).coreness;
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  auto h = reg.add("g", g);
  const size_t base = h->memory_bytes();
  e::query_executor ex(reg, {.cache_capacity = 0});

  constexpr size_t kThreads = 8;
  std::atomic<size_t> arrived{0};
  std::vector<int64_t> got(kThreads, -1);
  // memory_bytes() reads only the ready flag while the fill runs: it sees
  // the array wholly or not at all.
  std::atomic<bool> done{false};
  std::thread footprint([&] {
    while (!done.load()) {
      const size_t bytes = h->memory_bytes();
      EXPECT_TRUE(bytes == base ||
                  bytes == base + g.num_vertices() * sizeof(vertex_id))
          << bytes;
    }
  });
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      e::query_request q;
      q.graph = "g";
      q.kind = e::query_kind::coreness;
      q.source = static_cast<vertex_id>(t * 97);
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      got[t] = ask(ex, q, t).value;
    });
  }
  for (auto& t : threads) t.join();
  done.store(true);
  footprint.join();
  for (size_t t = 0; t < kThreads; t++)
    EXPECT_EQ(got[t], static_cast<int64_t>(want[t * 97])) << "thread " << t;
  EXPECT_EQ(fills(metrics, "coreness"), 1u);
  EXPECT_EQ(ex.stats().completed, kThreads);
}

TEST(EngineEpochState, LeaderDeadlineNeverFailsTheWaiters) {
  // Big enough that PageRank runs far past a 5 ms deadline.
  static const graph big = gen::rmat_graph(16, edge_id{1} << 20, /*seed=*/7);
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  reg.add("big", big);
  e::query_executor ex(reg, {.max_concurrency = 4, .cache_capacity = 0});

  e::query_request topk;
  topk.graph = "big";
  topk.kind = e::query_kind::pagerank_topk;
  topk.k = 5;

  // The first top-k query starts the ranks fill and misses its deadline.
  obs::query_trace leader_trace;
  e::query_request leader = topk;
  leader.deadline = 5ms;
  leader.trace = &leader_trace;
  auto lf = ex.submit(leader);
  EXPECT_THROW(lf.get(), e::deadline_exceeded_error);
  const auto t0 = std::chrono::steady_clock::now();
  while (fill_spans(leader_trace) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now() - t0, 30s)
        << "the first query never started the fill";
    std::this_thread::sleep_for(1ms);
  }

  // While that fill runs on, later short deadlines miss too...
  e::query_request hurried = topk;
  hurried.deadline = 5ms;
  auto h1 = ex.submit(hurried);
  auto h2 = ex.submit(hurried);
  // ...and three concurrent queries without a deadline all succeed. The
  // top-k ones are answered by the leader's fill, not one of their own.
  obs::query_trace t1, t3;
  e::query_request q1 = topk;
  q1.trace = &t1;
  e::query_request q2;
  q2.graph = "big";
  q2.kind = e::query_kind::component_id;
  q2.source = 3;
  e::query_request q3 = topk;
  q3.k = 10;
  q3.trace = &t3;
  auto f1 = ex.submit(q1);
  auto f2 = ex.submit(q2);
  auto f3 = ex.submit(q3);
  EXPECT_THROW(h1.get(), e::deadline_exceeded_error);
  EXPECT_THROW(h2.get(), e::deadline_exceeded_error);
  EXPECT_EQ(f1.get().topk, apps::pagerank_topk(big, 5));
  EXPECT_EQ(f2.get().value, apps::component_id(big, 3));
  EXPECT_EQ(f3.get().topk, apps::pagerank_topk(big, 10));
  ex.wait_idle();
  EXPECT_EQ(fill_spans(t1), 0u);
  EXPECT_EQ(fill_spans(t3), 0u);
  EXPECT_EQ(fills(metrics, "pagerank"), 1u);
  auto snap = ex.stats();
  EXPECT_EQ(snap.deadline_exceeded, 3u);
  EXPECT_EQ(snap.failed, 0u);
}

TEST(EngineEpochState, FilledOnFirstUseNeverAtLoadOrUpdate) {
  const graph g = gen::rmat_graph(9, 1 << 12, /*seed=*/31);
  const size_t n = g.num_vertices();
  const std::string path = ::testing::TempDir() + "/epoch_state.lgrb";
  io::write_binary_graph(path, g);
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  auto loaded = reg.load("loaded", path);
  std::remove(path.c_str());
  auto added = reg.add("added", g);
  auto mut = reg.add_mutable("m", g);
  dynamic::update_batch batch;
  batch.inserts = {{0, 300}, {1, 301}};
  mut = reg.apply_updates("m", batch);
  for (const char* kind : {"cc", "coreness", "pagerank"})
    EXPECT_EQ(fills(metrics, kind), 0u) << kind;

  // memory_bytes() counts each array once it is filled, and only then.
  const size_t base = added->memory_bytes();
  EXPECT_EQ(added->labels(), apps::connected_components(g).labels);
  EXPECT_EQ(added->memory_bytes(), base + n * sizeof(vertex_id));
  EXPECT_EQ(added->coreness(), apps::kcore(g).coreness);
  EXPECT_EQ(added->ranks(), apps::pagerank(g).rank);
  EXPECT_EQ(added->memory_bytes(),
            base + 2 * n * sizeof(vertex_id) + n * sizeof(double));
  EXPECT_EQ(fills(metrics, "cc"), 1u);
  EXPECT_EQ(fills(metrics, "coreness"), 1u);
  EXPECT_EQ(fills(metrics, "pagerank"), 1u);
  // Another epoch of the same graph fills its own arrays.
  EXPECT_EQ(loaded->coreness(), added->coreness());
  EXPECT_EQ(fills(metrics, "coreness"), 2u);

  // A mutable entry serves labels and ranks from its incremental state and
  // fills only coreness.
  const size_t mut_base = mut->memory_bytes();
  EXPECT_EQ(&mut->labels(), &mut->inc()->cc_labels);
  EXPECT_EQ(&mut->ranks(), &mut->inc()->pr_rank);
  EXPECT_EQ(mut->memory_bytes(), mut_base);
  EXPECT_EQ(mut->coreness(), apps::kcore(mut->dyn()->materialize()).coreness);
  EXPECT_EQ(mut->memory_bytes(), mut_base + n * sizeof(vertex_id));
  EXPECT_EQ(fills(metrics, "cc"), 1u);
  EXPECT_EQ(fills(metrics, "coreness"), 3u);
  EXPECT_EQ(fills(metrics, "pagerank"), 1u);
  EXPECT_EQ(metrics.get_histogram("engine_epoch_fill_micros{kind=\"coreness\"}")
                .count(),
            3u);
}

TEST(EngineEpochState, FillingQueryCarriesAFillSpan) {
  e::registry reg;
  reg.add("g", gen::rmat_graph(9, 1 << 12, /*seed=*/37));
  e::query_executor ex(reg);
  e::query_request q;
  q.graph = "g";
  q.kind = e::query_kind::coreness;
  obs::query_trace first, second;
  q.trace = &first;
  ex.run(q);
  q.trace = &second;
  q.source = 1;
  ex.run(q);
  EXPECT_EQ(fill_spans(first), 1u);
  EXPECT_EQ(fill_spans(second), 0u);
}
