// Tests for weighted shortest paths: Bellman-Ford (paper §4.6) and the
// Δ-stepping extension, validated against serial Dijkstra / Bellman-Ford
// across graph families, seeds, and delta values; negative-weight and
// negative-cycle handling. Bellman-Ford's dense rounds pull over in-edges
// (ligra/pull.h), so every forced strategy is checked on symmetric and
// directed inputs, with negative weights, and under a trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "apps/bellman_ford.h"
#include "apps/delta_stepping.h"
#include "baseline/serial.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace ligra;
using apps::kInfiniteDistance;

namespace {

wgraph random_weighted(int scale, uint64_t seed, int32_t lo = 1,
                       int32_t hi = 20) {
  auto g = gen::rmat_graph(scale, edge_id{8} << scale, seed);
  return gen::add_random_weights(g, lo, hi, seed * 3 + 1);
}

// A directed rMat with some negative weights and no negative cycle: weight
// w + p(u) - p(v), for w in [1, 20] and the potential p(v) = v mod 11,
// keeps every cycle's sum at its sum of w, which is positive, while an
// edge into a higher-potential vertex can go negative.
wgraph negative_weighted_digraph(int scale, uint64_t seed) {
  auto base = gen::rmat_digraph(scale, edge_id{8} << scale, seed);
  rng r(seed);
  std::vector<weighted_edge> edges;
  for (vertex_id u = 0; u < base.num_vertices(); u++)
    for (vertex_id v : base.out_neighbors(u)) {
      const auto w = static_cast<int32_t>(1 + r.bounded(edges.size(), 20));
      edges.push_back({u, v,
                       w + static_cast<int32_t>(u % 11) -
                           static_cast<int32_t>(v % 11)});
    }
  return wgraph::from_edges(base.num_vertices(), edges, {});
}

constexpr traversal kAllStrategies[] = {traversal::automatic,
                                        traversal::sparse, traversal::dense,
                                        traversal::dense_forward};

apps::bellman_ford_result run_with(const wgraph& g, vertex_id source,
                                   traversal t) {
  edge_map_options opts;
  opts.strategy = t;
  return apps::bellman_ford(g, source, opts);
}

}  // namespace

class SsspSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsspSeeds, BellmanFordMatchesDijkstra) {
  uint64_t seed = GetParam();
  auto g = random_weighted(9, seed);
  auto src = static_cast<vertex_id>(seed % g.num_vertices());
  EXPECT_EQ(apps::bellman_ford(g, src).distances, baseline::dijkstra(g, src));
}

TEST_P(SsspSeeds, DeltaSteppingMatchesDijkstra) {
  uint64_t seed = GetParam();
  auto g = random_weighted(9, seed + 40);
  for (int64_t delta : {1, 5, 100}) {
    auto result = apps::delta_stepping(g, 0, delta);
    EXPECT_EQ(result.distances, baseline::dijkstra(g, 0)) << "delta " << delta;
  }
}

TEST_P(SsspSeeds, BellmanFordHandlesNegativeWeights) {
  uint64_t seed = GetParam();
  // Directed acyclic-ish: use a directed rMat with weights in [-3, 20];
  // negative cycles possible, in which case both must agree on detection.
  auto base = gen::rmat_digraph(8, 1 << 10, seed + 77);
  auto g = gen::add_random_weights(base, -3, 20, seed);
  bool ser_cycle = false;
  auto ser = baseline::bellman_ford(g, 0, &ser_cycle);
  auto par = apps::bellman_ford(g, 0);
  EXPECT_EQ(par.negative_cycle, ser_cycle);
  if (!ser_cycle) EXPECT_EQ(par.distances, ser);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsspSeeds, ::testing::Values(1, 2, 3, 4, 5));

TEST(BellmanFord, HandBuiltWeightedPath) {
  // 0 -(4)- 1 -(2)- 2, plus direct 0 -(7)- 2: shortest 0->2 is 6.
  std::vector<weighted_edge> edges = {{0, 1, 4}, {1, 2, 2}, {0, 2, 7}};
  auto g = wgraph::from_edges(3, edges, {.symmetrize = true});
  auto result = apps::bellman_ford(g, 0);
  EXPECT_EQ(result.distances[0], 0);
  EXPECT_EQ(result.distances[1], 4);
  EXPECT_EQ(result.distances[2], 6);
  EXPECT_FALSE(result.negative_cycle);
}

TEST(BellmanFord, UnreachableVerticesStayInfinite) {
  // 3's only in-edge comes from the unreachable 2 and weighs -5: a pull
  // must not lower 3 to kInfiniteDistance - 5.
  std::vector<weighted_edge> edges = {{0, 1, 1}, {2, 3, -5}};
  auto g = wgraph::from_edges(4, edges, {});
  for (traversal t : kAllStrategies) {
    auto result = run_with(g, 0, t);
    EXPECT_EQ(result.distances[1], 1) << traversal_name(t);
    EXPECT_EQ(result.distances[2], kInfiniteDistance) << traversal_name(t);
    EXPECT_EQ(result.distances[3], kInfiniteDistance) << traversal_name(t);
  }
}

TEST(BellmanFord, NegativeEdgeNoCycle) {
  // 0 ->(5) 1 ->(-3) 2: dist 2 = 2 (directed, no cycle).
  std::vector<weighted_edge> edges = {{0, 1, 5}, {1, 2, -3}};
  auto g = wgraph::from_edges(3, edges, {});
  auto result = apps::bellman_ford(g, 0);
  EXPECT_FALSE(result.negative_cycle);
  EXPECT_EQ(result.distances[2], 2);
}

TEST(BellmanFord, DetectsNegativeCycle) {
  // 0 -> 1 -> 2 -> 0 with total weight -1.
  std::vector<weighted_edge> edges = {{0, 1, 1}, {1, 2, 1}, {2, 0, -3}};
  auto g = wgraph::from_edges(3, edges, {});
  for (traversal t :
       {traversal::automatic, traversal::dense, traversal::sparse})
    EXPECT_TRUE(run_with(g, 0, t).negative_cycle) << traversal_name(t);
}

TEST(BellmanFord, ZeroWeightEdges) {
  std::vector<weighted_edge> edges = {{0, 1, 0}, {1, 2, 0}};
  auto g = wgraph::from_edges(3, edges, {.symmetrize = true});
  auto result = apps::bellman_ford(g, 0);
  EXPECT_EQ(result.distances[2], 0);
  EXPECT_FALSE(result.negative_cycle);
}

TEST(BellmanFord, ForcedStrategiesAgree) {
  // rMat and the torus against Dijkstra; a directed rMat with negative
  // weights against the serial Bellman-Ford. The torus mixes sparse and
  // pulled rounds, and the digraph makes the pull's in-edge reads visible.
  for (const wgraph& g :
       {random_weighted(9, 13),
        gen::add_random_weights(gen::grid3d_graph(12), 1, 20, 5)}) {
    auto expect = baseline::dijkstra(g, 0);
    for (traversal t : kAllStrategies)
      EXPECT_EQ(run_with(g, 0, t).distances, expect) << traversal_name(t);
  }
  auto neg = negative_weighted_digraph(10, 17);
  const auto& w = neg.out_weight_array();
  ASSERT_TRUE(std::any_of(w.begin(), w.end(), [](int32_t x) { return x < 0; }));
  bool cycle = true;
  auto expect = baseline::bellman_ford(neg, 0, &cycle);
  ASSERT_FALSE(cycle);
  for (traversal t : kAllStrategies) {
    auto result = run_with(neg, 0, t);
    EXPECT_FALSE(result.negative_cycle) << traversal_name(t);
    EXPECT_EQ(result.distances, expect) << traversal_name(t);
  }
}

TEST(BellmanFord, TracedRoundsFollowTheDirectionRule) {
  // Every round appends one trace round: the pulled ones as "dense", by the
  // paper's rule, and the rest as edge_map's sparse rounds. Stats describe
  // the last round.
  auto g = gen::add_random_weights(gen::grid3d_graph(16), 1, 20, 3);
  obs::query_trace trace;
  edge_map_stats stats;
  edge_map_options opts;
  opts.stats = &stats;
  apps::bellman_ford_result result;
  {
    obs::trace_scope scope(&trace);
    result = apps::bellman_ford(g, 0, opts);
  }
  EXPECT_EQ(result.distances, baseline::dijkstra(g, 0));
  auto rounds = trace.rounds();
  ASSERT_EQ(rounds.size(), result.num_rounds);
  size_t dense = 0;
  for (const auto& r : rounds) {
    const std::string dir = r.direction;
    dense += dir == "dense";
    EXPECT_EQ(r.threshold, g.num_edges() / 20);
    EXPECT_EQ(dir == "dense", r.frontier_size + r.frontier_edges > r.threshold)
        << "round " << r.index;
    EXPECT_TRUE(dir == "dense" || dir == "sparse") << dir;
  }
  EXPECT_GT(dense, 0u);
  EXPECT_LT(dense, rounds.size());
  EXPECT_EQ(stats.frontier_size, rounds.back().frontier_size);
  EXPECT_EQ(stats.frontier_edges, rounds.back().frontier_edges);

  // Forced dense pulls every round, and stats says so.
  opts.strategy = traversal::dense;
  EXPECT_EQ(apps::bellman_ford(g, 0, opts).distances, result.distances);
  EXPECT_EQ(stats.used, traversal::dense);
}

TEST(BellmanFord, OutOfRangeSourceThrows) {
  auto g = random_weighted(6, 1);
  EXPECT_THROW(apps::bellman_ford(g, g.num_vertices()), std::invalid_argument);
}

TEST(DeltaStepping, RejectsNegativeWeightsAndBadDelta) {
  std::vector<weighted_edge> edges = {{0, 1, -1}};
  auto g = wgraph::from_edges(2, edges, {});
  EXPECT_THROW(apps::delta_stepping(g, 0, 1), std::invalid_argument);
  auto ok = wgraph::from_edges(2, {{0, 1, 1}}, {});
  EXPECT_THROW(apps::delta_stepping(ok, 0, 0), std::invalid_argument);
  EXPECT_THROW(apps::delta_stepping(ok, 5, 1), std::invalid_argument);
}

TEST(DeltaStepping, GridGraphAllDeltas) {
  auto g = gen::add_random_weights(gen::grid3d_graph(6), 1, 9, 2);
  auto expect = baseline::dijkstra(g, 0);
  for (int64_t delta : {1, 3, 10, 1000}) {
    EXPECT_EQ(apps::delta_stepping(g, 0, delta).distances, expect)
        << "delta " << delta;
  }
}

TEST(DeltaStepping, LargeDeltaDegeneratesToFewBuckets) {
  auto g = random_weighted(8, 9);
  auto huge = apps::delta_stepping(g, 0, 1 << 30);
  auto fine = apps::delta_stepping(g, 0, 1);
  EXPECT_EQ(huge.distances, fine.distances);
  EXPECT_LE(huge.num_buckets_processed, fine.num_buckets_processed);
}

TEST(WeightedBfs, IsExactlyUnitDeltaStepping) {
  auto g = random_weighted(8, 21, 1, 4);  // small integer weights: wBFS regime
  auto wbfs = apps::weighted_bfs(g, 0);
  EXPECT_EQ(wbfs.distances, baseline::dijkstra(g, 0));
  EXPECT_EQ(wbfs.distances, apps::delta_stepping(g, 0, 1).distances);
}

TEST(DeltaStepping, DisconnectedStaysInfinite) {
  auto g = wgraph::from_edges(3, {{0, 1, 2}}, {.symmetrize = true});
  auto result = apps::delta_stepping(g, 0, 1);
  EXPECT_EQ(result.distances[2], kInfiniteDistance);
}
