// Tests for graph statistics/validation helpers and the edge_map
// reduce/count API.
#include "graph/stats.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "ligra/edge_map.h"

using namespace ligra;

TEST(Stats, DegreeStatsOnKnownGraphs) {
  auto star = gen::star_graph(10);
  auto s = compute_degree_stats(star);
  EXPECT_EQ(s.max_degree, 9u);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.isolated_vertices, 0u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 18.0 / 10);

  auto g = graph::from_edges(5, {{0, 1}}, {.symmetrize = true});
  auto s2 = compute_degree_stats(g);
  EXPECT_EQ(s2.isolated_vertices, 3u);
  EXPECT_EQ(s2.min_degree, 0u);
}

TEST(Stats, EmptyGraphStats) {
  graph g;
  auto s = compute_degree_stats(g);
  EXPECT_EQ(s.max_degree, 0u);
  EXPECT_EQ(s.isolated_vertices, 0u);
}

TEST(Stats, SymmetryDetection) {
  EXPECT_TRUE(edges_are_symmetric(gen::cycle_graph(10)));
  // A directed rMat is (almost surely) not edge-symmetric.
  EXPECT_FALSE(edges_are_symmetric(gen::rmat_digraph(10, 1 << 12, 1)));
  // A hand-built directed graph whose edge set happens to be symmetric.
  auto g = graph::from_edges(2, {{0, 1}, {1, 0}}, {});
  EXPECT_FALSE(g.symmetric());       // built as directed...
  EXPECT_TRUE(edges_are_symmetric(g));  // ...but structurally symmetric
}

TEST(Stats, SelfLoopDetection) {
  EXPECT_TRUE(has_no_self_loops(gen::cycle_graph(5)));
  auto g = graph::from_edges(3, {{0, 0}, {1, 2}}, {.remove_self_loops = false});
  EXPECT_FALSE(has_no_self_loops(g));
}

TEST(Stats, ValidateAcceptsBuiltGraphs) {
  EXPECT_TRUE(validate_graph(gen::rmat_graph(10, 1 << 12, 1)));
  EXPECT_TRUE(validate_graph(gen::rmat_digraph(10, 1 << 12, 2)));
  EXPECT_TRUE(validate_graph(gen::add_random_weights(gen::grid3d_graph(5), 1, 9)));
  EXPECT_TRUE(validate_graph(graph{}));
}

// --- edge_map_reduce / edge_map_count ----------------------------------------

TEST(EdgeMapReduce, CountsFrontierEdges) {
  auto g = gen::cycle_graph(100);
  vertex_subset some(100, std::vector<vertex_id>{0, 10, 20});
  // Every vertex has out-degree 2.
  auto total = edge_map_count(
      g, some, [](vertex_id, vertex_id, empty_weight) { return true; });
  EXPECT_EQ(total, 6u);
}

TEST(EdgeMapReduce, SumsWeights) {
  std::vector<weighted_edge> edges = {{0, 1, 3}, {0, 2, 4}, {1, 2, 5}};
  auto g = wgraph::from_edges(3, edges, {});
  vertex_subset frontier(3, std::vector<vertex_id>{0, 1});
  int64_t sum = edge_map_reduce(
      g, frontier,
      [](vertex_id, vertex_id, int32_t w) { return static_cast<int64_t>(w); },
      int64_t{0}, [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(sum, 12);  // 3 + 4 + 5
}

TEST(EdgeMapReduce, DenseAndSparseAgree) {
  auto g = gen::rmat_graph(10, 1 << 12, 5);
  std::vector<vertex_id> ids;
  for (vertex_id v = 0; v < g.num_vertices(); v += 3) ids.push_back(v);
  vertex_subset sparse(g.num_vertices(), ids);
  vertex_subset dense(g.num_vertices(), ids);
  dense.to_bitmap();
  auto pred = [](vertex_id u, vertex_id v, empty_weight) { return u < v; };
  EXPECT_EQ(edge_map_count(g, sparse, pred), edge_map_count(g, dense, pred));
}

TEST(EdgeMapReduce, CutEdgesOfAPartition) {
  // Count edges crossing an even/odd vertex partition on a cycle: all of
  // them for even n.
  auto g = gen::cycle_graph(50);
  vertex_subset all = vertex_subset::all(50);
  auto cut = edge_map_count(g, all, [](vertex_id u, vertex_id v, empty_weight) {
    return (u % 2) != (v % 2);
  });
  EXPECT_EQ(cut, g.num_edges());
}

TEST(EdgeMapReduce, MismatchedUniverseThrows) {
  auto g = gen::cycle_graph(10);
  vertex_subset wrong(5, vertex_id{0});
  EXPECT_THROW(edge_map_count(
                   g, wrong, [](vertex_id, vertex_id, empty_weight) { return true; }),
               std::invalid_argument);
}

TEST(EdgeMapReduce, EmptyFrontierIsIdentity) {
  auto g = gen::cycle_graph(10);
  vertex_subset empty(10);
  EXPECT_EQ(edge_map_count(
                g, empty, [](vertex_id, vertex_id, empty_weight) { return true; }),
            0u);
}
