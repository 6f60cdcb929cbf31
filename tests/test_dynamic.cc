// Mutable graph subsystem tests (docs/DYNAMIC.md): batch normalization,
// the base+delta store (apply semantics, functional versioning, merged
// decode, compaction), incremental recompute equivalence against full
// recompute on the merged graph (randomized property tests over rMat and
// uniform graphs), registry epoch publishing, executor
// dispatch over mutable entries, and concurrent readers on an old epoch
// while batches publish (the TSan-critical scenario).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apps/bfs.h"
#include "apps/components.h"
#include "apps/pagerank.h"
#include "apps/query_adapters.h"
#include "dynamic/incremental.h"
#include "dynamic/mutable_graph.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "ligra/edge_map.h"
#include "ligra/point_bfs.h"
#include "util/rng.h"

using namespace ligra;
namespace dyn = ligra::dynamic;
namespace e = ligra::engine;

namespace {

using edge_set = std::set<std::pair<vertex_id, vertex_id>>;

std::pair<vertex_id, vertex_id> canon(vertex_id u, vertex_id v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

// Canonical undirected edge set of any edge_map-compatible view.
template <class G>
edge_set edges_of(const G& g) {
  edge_set s;
  for (vertex_id v = 0; v < g.num_vertices(); v++)
    g.decode_out(v, [&](vertex_id w, empty_weight, size_t) {
      s.insert(canon(v, w));
      return true;
    });
  return s;
}

graph graph_of(vertex_id n, const edge_set& s) {
  std::vector<edge> edges;
  edges.reserve(s.size());
  for (const auto& [u, v] : s) edges.emplace_back(u, v);
  return graph::from_edges(n, std::move(edges), {.symmetrize = true});
}

// Deterministic random batch over n vertices: `ins` insert candidates drawn
// uniformly, `del` delete candidates drawn from the reference edge set.
dyn::update_batch random_batch(const edge_set& ref, vertex_id n, size_t ins,
                               size_t del, uint64_t seed) {
  rng r(seed);
  dyn::update_batch b;
  for (size_t i = 0; i < ins; i++)
    b.inserts.emplace_back(static_cast<vertex_id>(r[2 * i] % n),
                           static_cast<vertex_id>(r[2 * i + 1] % n));
  if (!ref.empty()) {
    std::vector<std::pair<vertex_id, vertex_id>> pool(ref.begin(), ref.end());
    for (size_t i = 0; i < del; i++) {
      const auto& [u, v] = pool[r[1000 + i] % pool.size()];
      b.deletes.emplace_back(u, v);
    }
  }
  // random deletes may collide with random inserts; drop the conflicting
  // inserts so normalize_batch accepts the batch.
  std::erase_if(b.inserts, [&](const edge& ie) {
    for (const edge& de : b.deletes)
      if (canon(ie.u, ie.v) == canon(de.u, de.v)) return true;
    return false;
  });
  return b;
}

// Applies a normalized batch's *intent* to the reference set.
void apply_to_ref(edge_set& ref, const dyn::update_batch& b) {
  for (const edge& e : b.inserts)
    if (e.u != e.v) ref.insert(canon(e.u, e.v));
  for (const edge& e : b.deletes) ref.erase(canon(e.u, e.v));
}

}  // namespace

// --- batch normalization ---------------------------------------------------

TEST(UpdateBatch, NormalizeCanonicalizesAndDedupes) {
  dyn::update_batch b;
  b.inserts = {{5, 2}, {2, 5}, {3, 3}, {1, 4}, {4, 1}, {1, 4}};
  b.deletes = {{9, 7}, {7, 9}};
  auto stats = dyn::normalize_batch(b, 10);
  ASSERT_EQ(b.inserts.size(), 2u);
  EXPECT_EQ(b.inserts[0], edge(1, 4));
  EXPECT_EQ(b.inserts[1], edge(2, 5));
  ASSERT_EQ(b.deletes.size(), 1u);
  EXPECT_EQ(b.deletes[0], edge(7, 9));
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 4u);  // 3 insert dups + 1 delete dup
}

TEST(UpdateBatch, NormalizeRejectsOutOfRangeAndConflicts) {
  dyn::update_batch oor;
  oor.inserts = {{0, 10}};
  EXPECT_THROW(dyn::normalize_batch(oor, 10), std::invalid_argument);

  dyn::update_batch conflict;
  conflict.inserts = {{1, 2}};
  conflict.deletes = {{2, 1}};  // same undirected edge
  EXPECT_THROW(dyn::normalize_batch(conflict, 10), std::invalid_argument);
}

// --- mutable_graph store ---------------------------------------------------

TEST(MutableGraph, WrapsBaseUnchanged) {
  graph g = gen::rmat_graph(8, 1 << 10, /*seed=*/3);
  edge_set ref = edges_of(g);
  dyn::mutable_graph mg{graph(g)};
  EXPECT_EQ(mg.num_vertices(), g.num_vertices());
  EXPECT_EQ(mg.num_edges(), g.num_edges());
  EXPECT_EQ(mg.version(), 0u);
  EXPECT_EQ(mg.delta_edges(), 0u);
  EXPECT_EQ(edges_of(mg), ref);
  mg.check_invariants();
}

TEST(MutableGraph, RejectsAsymmetric) {
  graph g = gen::rmat_digraph(6, 1 << 8);
  EXPECT_THROW(dyn::mutable_graph(std::move(g)), std::invalid_argument);
}

TEST(MutableGraph, ApplyInsertDeleteAndNoOps) {
  // Path 0-1-2-3-4.
  dyn::mutable_graph v0(gen::path_graph(5));
  dyn::update_batch b;
  b.inserts = {{0, 4}, {1, 2}};  // (1,2) already present -> skipped
  b.deletes = {{2, 3}, {0, 3}};  // (0,3) absent -> skipped
  dyn::applied a = v0.apply(b);
  EXPECT_EQ(a.stats.inserted, 1u);
  EXPECT_EQ(a.stats.deleted, 1u);
  EXPECT_EQ(a.stats.skipped, 2u);
  ASSERT_EQ(a.inserted.size(), 1u);
  EXPECT_EQ(a.inserted[0], edge(0, 4));
  ASSERT_EQ(a.deleted.size(), 1u);
  EXPECT_EQ(a.deleted[0], edge(2, 3));

  EXPECT_TRUE(a.next.has_edge(0, 4));
  EXPECT_TRUE(a.next.has_edge(4, 0));
  EXPECT_FALSE(a.next.has_edge(2, 3));
  EXPECT_EQ(a.next.num_edges(), v0.num_edges());  // +2 then -2
  EXPECT_EQ(a.next.version(), 1u);
  EXPECT_EQ(a.next.out_degree(0), 2u);
  EXPECT_EQ(a.next.out_degree(2), 1u);
  a.next.check_invariants();

  // Functional: v0 is untouched.
  EXPECT_EQ(v0.version(), 0u);
  EXPECT_FALSE(v0.has_edge(0, 4));
  EXPECT_TRUE(v0.has_edge(2, 3));
  v0.check_invariants();

  // Re-inserting a deleted base edge un-deletes instead of double-tracking.
  dyn::update_batch redo;
  redo.inserts = {{2, 3}};
  dyn::applied a2 = a.next.apply(redo);
  EXPECT_TRUE(a2.next.has_edge(2, 3));
  EXPECT_EQ(a2.next.delta_edges(), 2u);  // only the (0,4) add remains
  a2.next.check_invariants();
}

TEST(MutableGraph, MaterializeMatchesView) {
  graph g = gen::random_graph(300, 6, /*seed=*/11);
  edge_set ref = edges_of(g);
  dyn::mutable_graph mg(std::move(g));
  dyn::update_batch b = random_batch(ref, 300, 40, 25, /*seed=*/5);
  dyn::applied a = mg.apply(b);
  dyn::update_batch norm = b;
  dyn::normalize_batch(norm, 300);
  apply_to_ref(ref, norm);
  EXPECT_EQ(edges_of(a.next), ref);
  graph mat = a.next.materialize();
  EXPECT_EQ(edges_of(mat), ref);
  EXPECT_EQ(mat.num_edges(), a.next.num_edges());
  a.next.check_invariants();
}

TEST(MutableGraph, DecodeOutRangeMatchesFullDecode) {
  graph g = gen::rmat_graph(7, 1 << 9, /*seed=*/13);
  const vertex_id n = g.num_vertices();
  dyn::mutable_graph mg(std::move(g));
  edge_set ref = edges_of(mg);
  dyn::applied a = mg.apply(random_batch(ref, n, 60, 30, /*seed=*/17));
  for (vertex_id v = 0; v < n; v++) {
    std::vector<vertex_id> full;
    a.next.decode_out(v, [&](vertex_id w, empty_weight, size_t) {
      full.push_back(w);
      return true;
    });
    const size_t d = a.next.out_degree(v);
    ASSERT_EQ(full.size(), d);
    for (size_t lo = 0; lo <= d; lo += 3) {
      const size_t hi = std::min(d, lo + 4);
      std::vector<vertex_id> ranged;
      a.next.decode_out_range(v, lo, hi, [&](vertex_id w, empty_weight,
                                             size_t j) {
        EXPECT_GE(j, lo);
        EXPECT_LT(j, hi);
        ranged.push_back(w);
        return true;
      });
      ASSERT_EQ(ranged.size(), hi - lo);
      for (size_t j = lo; j < hi; j++) EXPECT_EQ(ranged[j - lo], full[j]);
    }
  }
}

TEST(MutableGraph, CompactionPreservesViewAndResetsOverlay) {
  graph g = gen::random_graph(200, 4, /*seed=*/23);
  edge_set ref = edges_of(g);
  // Tiny threshold (fraction AND floor — the threshold is their max): the
  // first real batch compacts.
  dyn::mutable_graph mg(std::move(g),
                        {.compact_fraction = 0.001, .compact_min_edges = 8});
  dyn::update_batch b = random_batch(ref, 200, 30, 10, /*seed=*/29);
  dyn::applied a = mg.apply(b);
  EXPECT_TRUE(a.stats.compacted);
  EXPECT_EQ(a.next.delta_edges(), 0u);
  dyn::update_batch norm = b;
  dyn::normalize_batch(norm, 200);
  apply_to_ref(ref, norm);
  EXPECT_EQ(edges_of(a.next), ref);
  a.next.check_invariants();
  // The new base holds everything; versions still advance.
  EXPECT_EQ(a.next.base().num_edges(), a.next.num_edges());
  EXPECT_EQ(a.next.version(), 1u);
}

TEST(MutableGraph, EdgeMapRunsOverLiveView) {
  // BFS parent-hops via edge_map over the mutable view equals BFS over the
  // materialized graph — the kernels see the exact same adjacency.
  graph g = gen::rmat_graph(9, 1 << 11, /*seed=*/31);
  const vertex_id n = g.num_vertices();
  dyn::mutable_graph mg(std::move(g));
  edge_set ref = edges_of(mg);
  dyn::applied a = mg.apply(random_batch(ref, n, 80, 40, /*seed=*/37));
  graph mat = a.next.materialize();
  auto full = apps::bfs_levels(mat, 0);
  for (vertex_id t : {vertex_id{1}, n / 2, n - 1})
    EXPECT_EQ(point_bfs(a.next, 0, t), full[t]) << "target " << t;
}

// --- incremental recompute (property tests) --------------------------------

namespace {

// One randomized trajectory: start from `g0`, apply `rounds` random batches,
// and after each check incremental CC/PageRank against full recompute on the
// merged graph.
void run_trajectory(graph g0, size_t rounds, size_t ins, size_t del,
                    uint64_t seed) {
  const vertex_id n = g0.num_vertices();
  edge_set ref = edges_of(g0);
  dyn::mutable_graph cur(std::move(g0));
  auto cc = apps::connected_components(cur.base());
  auto pr = apps::pagerank_delta(cur.base(), dyn::maintenance_pr_options());
  for (size_t round = 0; round < rounds; round++) {
    dyn::update_batch b =
        random_batch(ref, n, ins, del, seed + 100 * round);
    dyn::applied a = cur.apply(b);
    dyn::update_batch norm = b;
    dyn::normalize_batch(norm, n);
    apply_to_ref(ref, norm);
    ASSERT_EQ(edges_of(a.next), ref) << "round " << round;

    auto cc_inc = dyn::components_inc(a.next, cc.labels, a.inserted,
                                      a.deleted);
    graph merged = graph_of(n, ref);
    auto cc_full = apps::connected_components(merged);
    ASSERT_EQ(cc_inc.labels, cc_full.labels) << "round " << round;
    ASSERT_EQ(cc_inc.num_components, cc_full.num_components)
        << "round " << round;

    auto pr_inc =
        dyn::pagerank_delta_inc(a.next, cur, pr.rank, a.inserted, a.deleted);
    auto pr_full = apps::pagerank_delta(merged, dyn::maintenance_pr_options());
    ASSERT_EQ(pr_inc.rank.size(), pr_full.rank.size());
    double max_diff = 0;
    for (size_t v = 0; v < pr_inc.rank.size(); v++)
      max_diff = std::max(max_diff, std::fabs(pr_inc.rank[v] - pr_full.rank[v]));
    // Agreement is bounded by the delta truncation, not the L1 tolerance:
    // a vertex goes inactive once |delta| <= local_tolerance * rank
    // (1e-4 in maintenance_pr_options), and the two runs truncate in
    // different orders. Observed worst case is ~8e-6 per vertex.
    EXPECT_LT(max_diff, 2e-5) << "round " << round;

    cur = std::move(a.next);
    cc = std::move(cc_inc);
    pr = std::move(pr_inc);
  }
}

}  // namespace

TEST(DynamicIncremental, CcInsertMergesComponents) {
  // Two disjoint paths; one insert bridges them.
  edge_set ref = {{0, 1}, {1, 2}, {3, 4}, {4, 5}};
  dyn::mutable_graph mg(graph_of(6, ref));
  auto cc = apps::connected_components(mg.base());
  ASSERT_EQ(cc.num_components, 2u);
  dyn::update_batch b;
  b.inserts = {{2, 3}};
  dyn::applied a = mg.apply(b);
  auto inc = dyn::components_inc(a.next, cc.labels, a.inserted, a.deleted);
  EXPECT_EQ(inc.num_components, 1u);
  for (vertex_id v = 0; v < 6; v++) EXPECT_EQ(inc.labels[v], 0u);
}

TEST(DynamicIncremental, CcDeleteSplitsComponent) {
  // Path 0-1-2-3-4-5; deleting (2,3) splits it (no triangle rescues it).
  dyn::mutable_graph mg(gen::path_graph(6));
  auto cc = apps::connected_components(mg.base());
  ASSERT_EQ(cc.num_components, 1u);
  dyn::update_batch b;
  b.deletes = {{2, 3}};
  dyn::applied a = mg.apply(b);
  auto inc = dyn::components_inc(a.next, cc.labels, a.inserted, a.deleted);
  EXPECT_EQ(inc.num_components, 2u);
  for (vertex_id v = 0; v < 3; v++) EXPECT_EQ(inc.labels[v], 0u);
  for (vertex_id v = 3; v < 6; v++) EXPECT_EQ(inc.labels[v], 3u);
}

TEST(DynamicIncremental, CcDeleteInTriangleKeepsComponent) {
  // Triangle + tail: deleting (0,1) leaves everything connected via 2 —
  // the common-neighbor probe proves it without a reset.
  edge_set ref = {{0, 1}, {0, 2}, {1, 2}, {2, 3}};
  dyn::mutable_graph mg(graph_of(4, ref));
  auto cc = apps::connected_components(mg.base());
  dyn::update_batch b;
  b.deletes = {{0, 1}};
  dyn::applied a = mg.apply(b);
  auto inc = dyn::components_inc(a.next, cc.labels, a.inserted, a.deleted);
  EXPECT_EQ(inc.num_components, 1u);
  auto full = apps::connected_components(a.next.materialize());
  EXPECT_EQ(inc.labels, full.labels);
}

TEST(DynamicIncremental, PropertyRmatTrajectory) {
  run_trajectory(gen::rmat_graph(9, 1 << 11, /*seed=*/41), /*rounds=*/4,
                 /*ins=*/40, /*del=*/25, /*seed=*/43);
}

TEST(DynamicIncremental, PropertyUniformTrajectory) {
  run_trajectory(gen::random_graph(600, 5, /*seed=*/47), /*rounds=*/4,
                 /*ins=*/40, /*del=*/25, /*seed=*/53);
}

TEST(DynamicIncremental, PropertyDeleteHeavyTrajectory) {
  // Delete-heavy batches stress the conservative reset path.
  run_trajectory(gen::random_graph(400, 3, /*seed=*/59), /*rounds=*/4,
                 /*ins=*/8, /*del=*/60, /*seed=*/61);
}

// --- registry epochs -------------------------------------------------------

TEST(DynamicRegistry, AddMutableSeedsConvergedState) {
  e::registry reg;
  graph g = gen::rmat_graph(8, 1 << 10, /*seed=*/67);
  auto full_cc = apps::connected_components(g);
  auto h = reg.add_mutable("m", std::move(g));
  ASSERT_TRUE(h->is_mutable());
  ASSERT_NE(h->dyn(), nullptr);
  ASSERT_NE(h->inc(), nullptr);
  EXPECT_EQ(h->inc()->cc_labels, full_cc.labels);
  EXPECT_EQ(h->inc()->cc_components, full_cc.num_components);
  EXPECT_EQ(h->inc()->pr_rank.size(), h->num_vertices());

  auto infos = reg.list();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].is_mutable);
  EXPECT_EQ(infos[0].version, 0u);
  EXPECT_EQ(infos[0].delta_edges, 0u);
}

TEST(DynamicRegistry, ApplyUpdatesPublishesNewEpochOldKeepsServing) {
  e::registry reg;
  auto h0 = reg.add_mutable("m", gen::random_graph(200, 4, /*seed=*/71));
  const edge_id m0 = h0->num_edges();
  const uint64_t epoch0 = h0->epoch();

  dyn::update_batch b;
  b.inserts = {{0, 150}, {1, 151}};
  auto h1 = reg.apply_updates("m", b);
  EXPECT_GT(h1->epoch(), epoch0);
  EXPECT_EQ(h1->dyn()->version(), 1u);
  // Old handle still serves its epoch's data.
  EXPECT_EQ(h0->num_edges(), m0);
  EXPECT_FALSE(h0->dyn()->has_edge(0, 150));
  EXPECT_TRUE(h1->dyn()->has_edge(0, 150));
  // Incremental state refreshed against the new view.
  auto full = apps::connected_components(h1->dyn()->materialize());
  EXPECT_EQ(h1->inc()->cc_labels, full.labels);
  // The registry now resolves to the new epoch.
  EXPECT_EQ(reg.get("m")->epoch(), h1->epoch());
}

TEST(DynamicRegistry, ApplyUpdatesRejectsBadTargets) {
  e::registry reg;
  reg.add("plain", gen::path_graph(10));
  dyn::update_batch b;
  b.inserts = {{0, 5}};
  EXPECT_THROW(reg.apply_updates("missing", b), e::not_found_error);
  EXPECT_THROW(reg.apply_updates("plain", b), e::engine_error);
}

TEST(DynamicRegistry, MalformedBatchFailsPermanentlyEpochUnchanged) {
  e::registry reg;
  auto h0 = reg.add_mutable("m", gen::path_graph(10));
  dyn::update_batch bad;
  bad.inserts = {{0, 99}};  // out of range
  try {
    reg.apply_updates("m", bad);
    FAIL() << "expected update_error";
  } catch (const e::update_error& err) {
    EXPECT_EQ(err.attempts, 1u);  // permanent: no retries
  }
  EXPECT_EQ(reg.get("m")->epoch(), h0->epoch());
}

TEST(DynamicRegistry, UpdateMetricsPublished) {
  obs::metrics_registry metrics;
  e::registry reg(&metrics);
  reg.add_mutable("m", gen::path_graph(50));
  dyn::update_batch b;
  b.inserts = {{0, 10}};
  reg.apply_updates("m", b);
  EXPECT_EQ(metrics.get_counter("engine_graph_updates_total").value(), 1u);
  EXPECT_EQ(metrics.get_counter("engine_graph_update_failures_total").value(),
            0u);
  EXPECT_EQ(metrics.get_gauge("engine_graph_delta_edges{graph=\"m\"}").value(),
            2);  // one undirected insert = two directed overlay edges
}

// --- executor dispatch -----------------------------------------------------

TEST(DynamicExecutor, UpdateQueryPublishesAndIsNeverCached) {
  e::registry reg;
  reg.add_mutable("m", gen::random_graph(100, 4, /*seed=*/73));
  e::query_executor ex(reg, {.max_concurrency = 2});

  auto batch = std::make_shared<dyn::update_batch>();
  batch->inserts = {{0, 50}};
  e::query_request up;
  up.graph = "m";
  up.kind = e::query_kind::update;
  up.updates = batch;
  auto r1 = ex.run(up);
  EXPECT_EQ(static_cast<uint64_t>(r1.value), reg.get("m")->epoch());
  EXPECT_FALSE(r1.cache_hit);

  // Same request again: the edge now exists, so the batch is a no-op, but a
  // new epoch still publishes and nothing is served from cache.
  auto r2 = ex.run(up);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_GT(r2.value, r1.value);

  e::query_request missing_batch;
  missing_batch.graph = "m";
  missing_batch.kind = e::query_kind::update;
  EXPECT_THROW(ex.run(missing_batch), e::engine_error);
}

TEST(DynamicExecutor, QueriesAnswerFromLiveViewAndIncState) {
  e::registry reg;
  reg.add_mutable("m", gen::rmat_graph(8, 1 << 10, /*seed=*/79));
  e::query_executor ex(reg, {.max_concurrency = 2});

  auto batch = std::make_shared<dyn::update_batch>();
  batch->inserts = {{3, 200}};
  e::query_request up;
  up.graph = "m";
  up.kind = e::query_kind::update;
  up.updates = batch;
  ex.run(up);

  auto h = reg.get("m");
  graph mat = h->dyn()->materialize();

  e::query_request bfs;
  bfs.graph = "m";
  bfs.kind = e::query_kind::bfs_distance;
  bfs.source = 0;
  bfs.target = 200;
  EXPECT_EQ(ex.run(bfs).value, apps::bfs_levels(mat, 0)[200]);

  e::query_request cc;
  cc.graph = "m";
  cc.kind = e::query_kind::component_id;
  cc.source = 200;
  EXPECT_EQ(static_cast<vertex_id>(ex.run(cc).value),
            apps::connected_components(mat).labels[200]);

  e::query_request pr;
  pr.graph = "m";
  pr.kind = e::query_kind::pagerank_topk;
  pr.k = 5;
  auto topk = ex.run(pr).topk;
  ASSERT_EQ(topk.size(), 5u);
  // Served straight from the epoch's converged ranks, rank-descending.
  auto expect = apps::topk_ranks(h->inc()->pr_rank, 5);
  EXPECT_EQ(topk, expect);
  for (size_t i = 1; i < topk.size(); i++)
    EXPECT_GE(topk[i - 1].second, topk[i].second);

  // Out-of-range vertices surface as invalid_argument like static entries.
  bfs.target = 100000;
  EXPECT_THROW(ex.run(bfs), std::invalid_argument);
}

// --- concurrency: readers on an old epoch while batches publish ------------

TEST(DynamicConcurrency, ReadersOnOldEpochWhileApplying) {
  e::registry reg;
  const vertex_id n = 400;
  auto h0 = reg.add_mutable("m", gen::random_graph(n, 5, /*seed=*/83));
  const edge_id m0 = h0->num_edges();
  const auto labels0 = h0->inc()->cc_labels;

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  // Readers traverse the *old* handle's view the whole time; apply() never
  // mutates a published version, so TSan must stay quiet here.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      rng r(static_cast<uint64_t>(t) + 89);
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        vertex_id src = static_cast<vertex_id>(r[i++] % n);
        (void)point_bfs(*h0->dyn(), src, static_cast<vertex_id>(r[i++] % n));
        EXPECT_EQ(h0->num_edges(), m0);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: a stream of batches through the registry, each publishing a new
  // epoch on top of the last.
  rng wr(97);
  for (size_t b = 0; b < 12; b++) {
    dyn::update_batch batch;
    for (size_t i = 0; i < 16; i++)
      batch.inserts.emplace_back(static_cast<vertex_id>(wr[32 * b + 2 * i] % n),
                                 static_cast<vertex_id>(
                                     wr[32 * b + 2 * i + 1] % n));
    reg.apply_updates("m", batch);
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // The old handle still answers from its epoch; the head moved on.
  EXPECT_EQ(h0->num_edges(), m0);
  EXPECT_EQ(h0->inc()->cc_labels, labels0);
  auto head = reg.get("m");
  EXPECT_EQ(head->dyn()->version(), 12u);
  EXPECT_GT(head->epoch(), h0->epoch());
  // And the head's state is exactly a full recompute of its view.
  auto full = apps::connected_components(head->dyn()->materialize());
  EXPECT_EQ(head->inc()->cc_labels, full.labels);
}

TEST(DynamicConcurrency, ConcurrentSubmittersSerializeBatches) {
  e::registry reg;
  const vertex_id n = 300;
  reg.add_mutable("m", gen::random_graph(n, 4, /*seed=*/101));
  const uint64_t v0 = reg.get("m")->dyn()->version();

  constexpr size_t kThreads = 4, kBatchesPerThread = 5;
  std::vector<std::thread> writers;
  std::atomic<size_t> failures{0};
  for (size_t t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      rng r(200 + t);
      for (size_t b = 0; b < kBatchesPerThread; b++) {
        dyn::update_batch batch;
        for (size_t i = 0; i < 8; i++)
          batch.inserts.emplace_back(
              static_cast<vertex_id>(r[100 * b + 2 * i] % n),
              static_cast<vertex_id>(r[100 * b + 2 * i + 1] % n));
        try {
          reg.apply_updates("m", batch);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  // Every batch published exactly once, serialized: version counts them all.
  auto head = reg.get("m");
  EXPECT_EQ(head->dyn()->version(), v0 + kThreads * kBatchesPerThread);
  head->dyn()->check_invariants();
  auto full = apps::connected_components(head->dyn()->materialize());
  EXPECT_EQ(head->inc()->cc_labels, full.labels);
}
