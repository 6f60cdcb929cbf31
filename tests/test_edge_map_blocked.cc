// Tests for the edge-balanced blocked sparse kernel, the bitmap frontier
// representation, and round-scratch reuse (DESIGN.md S8).
//
// Properties checked:
//   * blocked sparse == bitmap dense == dense_forward == sequential oracle,
//     on rMat (power-law) and uniform random graphs, with and without
//     remove_duplicates / produce_output;
//   * multi-round blocked BFS matches baseline::bfs_levels;
//   * sparse <-> bitmap round-trips preserve size and membership;
//   * a hub frontier splits across > 1 block (stats.blocks);
//   * steady-state rounds reuse the scratch without reallocating (stable
//     buffer data() pointers) and leave the winner array fully reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "baseline/serial.h"
#include "graph/generators.h"
#include "ligra/edge_map.h"
#include "ligra/vertex_subset.h"
#include "parallel/atomics.h"
#include "util/rng.h"

using namespace ligra;

namespace {

struct mark_f {
  uint8_t* marked;
  bool update(vertex_id, vertex_id v) const {
    if (!marked[v]) {
      marked[v] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v) const {
    return compare_and_swap(&marked[v], uint8_t{0}, uint8_t{1});
  }
  bool cond(vertex_id v) const { return atomic_load(&marked[v]) == 0; }
};

// Returns true for every edge: the output needs remove_duplicates to be a
// set, which makes it the dedup stress functor.
struct always_f {
  bool update(vertex_id, vertex_id) const { return true; }
  bool update_atomic(vertex_id, vertex_id) const { return true; }
  bool cond(vertex_id) const { return true; }
};

std::vector<vertex_id> oracle_step(const graph& g,
                                   const std::vector<vertex_id>& frontier,
                                   const std::vector<uint8_t>& marked) {
  std::set<vertex_id> out;
  for (vertex_id u : frontier)
    for (vertex_id v : g.out_neighbors(u))
      if (!marked[v]) out.insert(v);
  return {out.begin(), out.end()};
}

std::vector<vertex_id> run_mark_step(const graph& g,
                                     const std::vector<vertex_id>& frontier,
                                     std::vector<uint8_t> marked,
                                     const edge_map_options& base_opts,
                                     traversal strategy) {
  vertex_subset vs(g.num_vertices(), frontier);
  edge_map_options opts = base_opts;
  opts.strategy = strategy;
  auto out = edge_map(g, vs, mark_f{marked.data()}, opts);
  return out.to_sorted_vector();
}

// BFS levels via edge_map with the given options; compared against the
// sequential baseline.
std::vector<int64_t> edge_map_bfs_levels(const graph& g, vertex_id source,
                                         edge_map_options opts) {
  std::vector<int64_t> level(g.num_vertices(), -1);
  level[source] = 0;
  struct level_f {
    int64_t* level;
    int64_t round;
    bool update(vertex_id, vertex_id v) const {
      if (level[v] == -1) {
        level[v] = round;
        return true;
      }
      return false;
    }
    bool update_atomic(vertex_id, vertex_id v) const {
      return compare_and_swap(&level[v], int64_t{-1}, round);
    }
    bool cond(vertex_id v) const { return atomic_load(&level[v]) == -1; }
  };
  vertex_subset frontier(g.num_vertices(), source);
  int64_t round = 0;
  while (!frontier.empty()) {
    round++;
    frontier = edge_map(g, frontier, level_f{level.data(), round}, opts);
  }
  return level;
}

}  // namespace

// ---------------------------------------------------------------------------
// Single-step oracle equivalence on power-law and uniform graphs.

class EdgeMapBlockedRandomGraphs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdgeMapBlockedRandomGraphs, BlockedMatchesOracleAndLegacy) {
  uint64_t seed = GetParam();
  for (const graph& g : {gen::rmat_graph(10, 1 << 13, seed),
                         gen::random_graph(1 << 10, 8, seed + 50)}) {
    const vertex_id n = g.num_vertices();
    rng r(seed * 31 + 1);
    std::vector<uint8_t> marked(n, 0);
    std::vector<vertex_id> frontier;
    for (vertex_id v = 0; v < n; v++) {
      if (r.uniform(v) < 0.2) {
        marked[v] = 1;
        if (r.uniform(v + n) < 0.5) frontier.push_back(v);
      }
    }
    auto expect = oracle_step(g, frontier, marked);

    edge_map_options blocked;
    for (bool dedup : {false, true}) {
      blocked.remove_duplicates = dedup;
      EXPECT_EQ(run_mark_step(g, frontier, marked, blocked, traversal::sparse),
                expect)
          << "blocked sparse, dedup=" << dedup;
    }
    // Bitmap-consuming dense traversals against the same oracle.
    EXPECT_EQ(run_mark_step(g, frontier, marked, blocked, traversal::dense),
              expect);
    EXPECT_EQ(
        run_mark_step(g, frontier, marked, blocked, traversal::dense_forward),
        expect);
  }
}

TEST_P(EdgeMapBlockedRandomGraphs, MultiRoundBfsMatchesBaseline) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(10, 1 << 13, seed + 7);
  auto expect = baseline::bfs_levels(g, 0);

  edge_map_options blocked_sparse;
  blocked_sparse.strategy = traversal::sparse;
  EXPECT_EQ(edge_map_bfs_levels(g, 0, blocked_sparse), expect);

  edge_map_options dense;
  dense.strategy = traversal::dense;
  EXPECT_EQ(edge_map_bfs_levels(g, 0, dense), expect);

  edge_map_options fwd;
  fwd.strategy = traversal::dense_forward;
  EXPECT_EQ(edge_map_bfs_levels(g, 0, fwd), expect);

  edge_map_options hybrid;  // automatic, with an explicit scratch
  edge_map_scratch scratch;
  hybrid.scratch = &scratch;
  EXPECT_EQ(edge_map_bfs_levels(g, 0, hybrid), expect);
}

TEST_P(EdgeMapBlockedRandomGraphs, DedupOutputIsASet) {
  uint64_t seed = GetParam();
  auto g = gen::rmat_graph(9, 1 << 12, seed + 13);
  std::vector<vertex_id> frontier;
  for (vertex_id v = 0; v < g.num_vertices(); v += 3) frontier.push_back(v);
  vertex_subset vs(g.num_vertices(), frontier);
  edge_map_options opts;
  opts.strategy = traversal::sparse;
  opts.remove_duplicates = true;
  auto out = edge_map(g, vs, always_f{}, opts);
  auto ids = out.to_sorted_vector();
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // Dedup output == set of out-neighbors of the frontier.
  std::set<vertex_id> expect;
  for (vertex_id u : frontier)
    for (vertex_id v : g.out_neighbors(u)) expect.insert(v);
  EXPECT_EQ(ids, std::vector<vertex_id>(expect.begin(), expect.end()));
}

TEST_P(EdgeMapBlockedRandomGraphs, NoOutputAppliesUpdates) {
  uint64_t seed = GetParam();
  auto g = gen::random_graph(1 << 9, 6, seed + 23);
  const vertex_id n = g.num_vertices();
  std::vector<vertex_id> frontier;
  for (vertex_id v = 0; v < n; v += 5) frontier.push_back(v);

  std::vector<uint8_t> with(n, 0), without(n, 0);
  {
    vertex_subset vs(n, frontier);
    edge_map_options opts;
    opts.strategy = traversal::sparse;
    edge_map(g, vs, mark_f{with.data()}, opts);
  }
  {
    vertex_subset vs(n, frontier);
    edge_map_options opts;
    opts.strategy = traversal::sparse;
    opts.produce_output = false;
    edge_map(g, vs, mark_f{without.data()}, opts);
  }
  EXPECT_EQ(with, without);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeMapBlockedRandomGraphs,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Bitmap representation round-trips.

TEST(EdgeMapBlockedBitmap, RoundTripsPreserveSizeAndMembership) {
  const vertex_id n = 1000;  // not a multiple of 64: tail word exercised
  rng r(42);
  std::vector<vertex_id> ids;
  for (vertex_id v = 0; v < n; v++)
    if (r.uniform(v) < 0.3) ids.push_back(v);

  vertex_subset vs(n, ids);
  const size_t m = vs.size();
  auto sorted = vs.to_sorted_vector();

  // sparse -> bitmap -> sparse -> bitmap -> sparse, checking after every
  // hop.
  vs.to_bitmap();
  ASSERT_TRUE(vs.is_bitmap());
  EXPECT_EQ(vs.size(), m);
  EXPECT_EQ(vs.to_sorted_vector(), sorted);
  for (vertex_id v : ids) EXPECT_TRUE(vs.contains(v));

  vs.to_sparse();
  ASSERT_TRUE(vs.is_sparse());
  EXPECT_EQ(vs.size(), m);
  EXPECT_EQ(vs.to_sorted_vector(), sorted);

  vs.to_bitmap();
  ASSERT_TRUE(vs.is_bitmap());
  EXPECT_EQ(vs.size(), m);
  EXPECT_EQ(vs.to_sorted_vector(), sorted);
  vs.to_sparse();
  EXPECT_EQ(vs.to_sorted_vector(), sorted);
}

TEST(EdgeMapBlockedBitmap, FromBitmapMasksTailAndCounts) {
  const vertex_id n = 70;  // 2 words, 6 valid bits in the tail word
  std::vector<uint64_t> words(vertex_subset::num_bitmap_words(n), ~uint64_t{0});
  auto vs = vertex_subset::from_bitmap(n, std::move(words));
  EXPECT_EQ(vs.size(), static_cast<size_t>(n));  // tail bits masked off
  EXPECT_TRUE(vs.contains(69));
  EXPECT_FALSE(vs.contains(70));
  size_t seen = 0;
  vs.for_each([&](vertex_id) { write_add(&seen, size_t{1}); });
  EXPECT_EQ(seen, static_cast<size_t>(n));
}

TEST(EdgeMapBlockedBitmap, DenseTraversalReturnsBitmap) {
  auto g = gen::rmat_graph(9, 1 << 12, 4);
  std::vector<uint8_t> marked(g.num_vertices(), 0);
  vertex_subset all = vertex_subset::all(g.num_vertices());
  edge_map_options opts;
  opts.strategy = traversal::dense;
  auto out = edge_map(g, all, mark_f{marked.data()}, opts);
  EXPECT_TRUE(out.is_bitmap());
  // And the bitmap output feeds straight back into every strategy.
  std::vector<uint8_t> marked2(marked);
  auto out2 = edge_map(g, out, mark_f{marked2.data()});
  EXPECT_EQ(out2.universe_size(), g.num_vertices());
}

// ---------------------------------------------------------------------------
// Block accounting and scratch reuse.

TEST(EdgeMapBlocked, HubFrontierSplitsAcrossBlocks) {
  // Star center: one frontier vertex with n-1 out-edges. With n-1 well
  // above kEdgeBlockSize, the single hub must span multiple blocks.
  const vertex_id n = 3 * kEdgeBlockSize;
  auto g = gen::star_graph(n);
  std::vector<uint8_t> marked(n, 0);
  marked[0] = 1;
  vertex_subset frontier(n, vertex_id{0});
  edge_map_stats stats;
  edge_map_options opts;
  opts.strategy = traversal::sparse;
  opts.stats = &stats;
  auto out = edge_map(g, frontier, mark_f{marked.data()}, opts);
  EXPECT_EQ(out.size(), static_cast<size_t>(n - 1));
  EXPECT_GE(stats.blocks, 3u);
  EXPECT_GT(stats.scratch_bytes, 0u);
}

TEST(EdgeMapBlocked, SteadyStateRoundsReuseScratchBuffers) {
  // Warm-up BFS sizes the scratch to the largest round; a second BFS over
  // the same graph must then leave every scratch buffer's data pointer (and
  // capacity) untouched — i.e. steady-state rounds allocate no traversal
  // working memory.
  auto g = gen::rmat_graph(11, 1 << 14, 6);
  edge_map_scratch scratch;
  edge_map_options opts;
  opts.strategy = traversal::sparse;  // every round through the blocked kernel
  opts.remove_duplicates = true;      // winner array exercised too
  opts.scratch = &scratch;
  auto warm = edge_map_bfs_levels(g, 0, opts);

  const edge_id* offsets_ptr = scratch.offsets.data();
  const edge_id* counts_ptr = scratch.block_counts.data();
  const vertex_id* buffer_ptr = scratch.block_buffer.data();
  const edge_id* winner_ptr = scratch.winner.data();
  const size_t bytes = scratch.bytes();
  ASSERT_GT(bytes, 0u);

  auto again = edge_map_bfs_levels(g, 0, opts);
  EXPECT_EQ(again, warm);
  EXPECT_EQ(scratch.offsets.data(), offsets_ptr);
  EXPECT_EQ(scratch.block_counts.data(), counts_ptr);
  EXPECT_EQ(scratch.block_buffer.data(), buffer_ptr);
  EXPECT_EQ(scratch.winner.data(), winner_ptr);
  EXPECT_EQ(scratch.bytes(), bytes);
}

TEST(EdgeMapBlocked, WinnerArrayIsResetAfterDedupRound) {
  auto g = gen::rmat_graph(9, 1 << 12, 8);
  std::vector<vertex_id> frontier;
  for (vertex_id v = 0; v < g.num_vertices(); v += 2) frontier.push_back(v);
  vertex_subset vs(g.num_vertices(), frontier);
  edge_map_scratch scratch;
  edge_map_options opts;
  opts.strategy = traversal::sparse;
  opts.remove_duplicates = true;
  opts.scratch = &scratch;
  auto out = edge_map(g, vs, always_f{}, opts);
  EXPECT_FALSE(out.empty());
  for (edge_id w : scratch.winner) EXPECT_EQ(w, kNoEdge);
}

TEST(EdgeMapBlocked, ScratchScopeInstallsAndNests) {
  EXPECT_EQ(current_edge_map_scratch(), nullptr);
  edge_map_scratch outer, inner;
  {
    edge_map_scratch_scope a(&outer);
    EXPECT_EQ(current_edge_map_scratch(), &outer);
    {
      edge_map_scratch_scope b(&inner);
      EXPECT_EQ(current_edge_map_scratch(), &inner);
    }
    EXPECT_EQ(current_edge_map_scratch(), &outer);

    // An edge_map run under the scope must use the installed scratch.
    auto g = gen::rmat_graph(9, 1 << 12, 9);
    std::vector<uint8_t> marked(g.num_vertices(), 0);
    vertex_subset frontier(g.num_vertices(), vertex_id{0});
    edge_map_options opts;
    opts.strategy = traversal::sparse;
    edge_map(g, frontier, mark_f{marked.data()}, opts);
    EXPECT_GT(outer.bytes(), 0u);
  }
  EXPECT_EQ(current_edge_map_scratch(), nullptr);
}

TEST(EdgeMapBlocked, StatsReportScratchBytesWithExplicitScratch) {
  auto g = gen::rmat_graph(9, 1 << 12, 10);
  edge_map_scratch scratch;
  std::vector<uint8_t> marked(g.num_vertices(), 0);
  vertex_subset frontier(g.num_vertices(), vertex_id{0});
  edge_map_stats stats;
  edge_map_options opts;
  opts.strategy = traversal::sparse;
  opts.scratch = &scratch;
  opts.stats = &stats;
  edge_map(g, frontier, mark_f{marked.data()}, opts);
  EXPECT_EQ(stats.scratch_bytes, scratch.bytes());
  EXPECT_GE(stats.blocks, 1u);
}
