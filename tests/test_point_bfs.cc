// Tests for the bidirectional point-BFS kernel (ligra/point_bfs.h): on
// every input it must answer exactly what a full BFS does — the distance
// equals bfs_levels(g, s)[t] for hundreds of pairs on rMat, uniform, torus
// and directed rMat graphs, and on a mutable graph after each of a series
// of update batches — plus s == t, unreachable targets, range checks,
// polling, and a scratch reused across a stamp wrap-around.
#include "ligra/point_bfs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/bfs.h"
#include "dynamic/mutable_graph.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace ligra;
namespace dyn = ligra::dynamic;

namespace {

constexpr size_t kSources = 25;
constexpr size_t kTargetsPerSource = 10;  // 250 pairs per input

// Checks point_bfs(view, s, t) against bfs_levels(reference, s)[t] for
// kSources x kTargetsPerSource pairs drawn from `seed`, all through one
// scratch; returns how many of them were reachable.
template <class G>
size_t expect_matches_full_bfs(const G& view, const graph& reference,
                               uint64_t seed, point_bfs_scratch* scratch) {
  const vertex_id n = reference.num_vertices();
  rng r(seed);
  size_t reachable = 0;
  for (size_t i = 0; i < kSources; i++) {
    const auto s = static_cast<vertex_id>(r.bounded(2 * i, n));
    const auto levels = apps::bfs_levels(reference, s);
    for (size_t k = 0; k < kTargetsPerSource; k++) {
      const auto t = static_cast<vertex_id>(
          r.bounded(1000 + i * kTargetsPerSource + k, n));
      EXPECT_EQ(point_bfs(view, s, t, {}, scratch), levels[t])
          << "s=" << s << " t=" << t;
      if (levels[t] >= 0) reachable++;
    }
  }
  return reachable;
}

size_t expect_matches_full_bfs(const graph& g, uint64_t seed) {
  point_bfs_scratch scratch;
  return expect_matches_full_bfs(g, g, seed, &scratch);
}

// The traversal directions of every round a trace captured.
std::set<std::string> directions(const obs::query_trace& trace) {
  std::set<std::string> out;
  for (const auto& round : trace.rounds()) out.insert(round.direction);
  return out;
}

}  // namespace

TEST(PointBfs, MatchesFullBfsOnRmat) {
  const graph g = gen::rmat_graph(11, edge_id{16} << 11, /*seed=*/3);
  EXPECT_GT(expect_matches_full_bfs(g, 101), 100u);
}

TEST(PointBfs, MatchesFullBfsOnUniform) {
  const graph g = gen::random_graph(2000, 6, /*seed=*/5);
  EXPECT_GT(expect_matches_full_bfs(g, 103), 200u);
}

TEST(PointBfs, MatchesFullBfsOnTorus) {
  // High diameter: many rounds per side, and the sides meet mid-grid.
  const graph g = gen::grid3d_graph(12);
  EXPECT_EQ(expect_matches_full_bfs(g, 107), kSources * kTargetsPerSource);
}

TEST(PointBfs, MatchesFullBfsOnDirectedRmat) {
  // The backward side walks in-edges through reversed_graph; a wrong
  // direction shows as asymmetric distances. The trace proves both the
  // sparse (push) and dense (pull) kernels ran.
  const graph g = gen::rmat_digraph(11, edge_id{8} << 11, /*seed=*/7);
  ASSERT_FALSE(g.symmetric());
  obs::query_trace trace;
  size_t reachable = 0;
  {
    obs::trace_scope tracing(&trace);
    reachable = expect_matches_full_bfs(g, 109);
  }
  EXPECT_GT(reachable, 50u);
  const auto dirs = directions(trace);
  EXPECT_TRUE(dirs.count("sparse")) << trace.to_json();
  EXPECT_TRUE(dirs.count("dense")) << trace.to_json();
}

TEST(PointBfs, DirectedPathIsOneWay) {
  const graph g =
      graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, {.symmetrize = false});
  ASSERT_FALSE(g.symmetric());
  EXPECT_EQ(point_bfs(g, 0, 3), 3);
  EXPECT_EQ(point_bfs(g, 1, 3), 2);
  EXPECT_EQ(point_bfs(g, 3, 0), -1);
  EXPECT_EQ(point_bfs(g, 2, 1), -1);
}

TEST(PointBfs, MatchesFullBfsOnMutableGraphAcrossBatches) {
  graph g0 = gen::rmat_graph(10, edge_id{8} << 10, /*seed=*/11);
  const vertex_id n = g0.num_vertices();
  dyn::mutable_graph mg(std::move(g0));
  point_bfs_scratch scratch;  // one scratch across every epoch
  rng r(13);
  uint64_t draw = 0;
  for (uint64_t b = 0; b < 8; b++) {
    // Inserts between uniform vertices, deletes of existing edges.
    dyn::update_batch batch;
    for (int i = 0; i < 60; i++, draw += 2)
      batch.inserts.emplace_back(static_cast<vertex_id>(r.bounded(draw, n)),
                                 static_cast<vertex_id>(r.bounded(draw + 1, n)));
    for (int i = 0; i < 40; i++) {
      const auto u = static_cast<vertex_id>(r.bounded(draw++, n));
      if (mg.out_degree(u) == 0) continue;
      const uint64_t pick = r.bounded(draw++, mg.out_degree(u));
      mg.decode_out(u, [&](vertex_id v, empty_weight, size_t j) {
        if (j != pick) return true;
        batch.deletes.emplace_back(u, v);
        return false;
      });
    }
    std::erase_if(batch.inserts, [&](const edge& ie) {
      for (const edge& de : batch.deletes)
        if (std::minmax(ie.u, ie.v) == std::minmax(de.u, de.v)) return true;
      return false;
    });
    mg = mg.apply(std::move(batch)).next;
    ASSERT_GT(mg.delta_edges(), 0u) << "batch " << b;
    const graph materialized = mg.materialize();
    EXPECT_GT(expect_matches_full_bfs(mg, materialized, 200 + b, &scratch),
              50u)
        << "batch " << b;
  }
}

TEST(PointBfs, SourceEqualsTargetIsZero) {
  const graph g = gen::rmat_graph(8, 1 << 10, /*seed=*/17);
  for (vertex_id v : {vertex_id{0}, vertex_id{5}, g.num_vertices() - 1})
    EXPECT_EQ(point_bfs(g, v, v), 0);
}

TEST(PointBfs, UnreachableTargetIsMinusOne) {
  // Two disjoint triangles: every cross pair is unreachable, whichever
  // side empties first.
  const graph g = graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}},
      {.symmetrize = true});
  point_bfs_scratch scratch;
  for (vertex_id s = 0; s < 3; s++)
    for (vertex_id t = 3; t < 6; t++) {
      EXPECT_EQ(point_bfs(g, s, t, {}, &scratch), -1);
      EXPECT_EQ(point_bfs(g, t, s, {}, &scratch), -1);
    }
  EXPECT_EQ(point_bfs(g, 0, 2, {}, &scratch), 1);
}

TEST(PointBfs, OutOfRangeVertexThrowsInvalidArgument) {
  const graph g = gen::rmat_graph(8, 1 << 10, /*seed=*/19);
  const vertex_id n = g.num_vertices();
  EXPECT_THROW(point_bfs(g, n, 0), std::invalid_argument);
  EXPECT_THROW(point_bfs(g, 0, n), std::invalid_argument);
  EXPECT_THROW(point_bfs(g, n, n), std::invalid_argument);
  const dyn::mutable_graph mg(gen::rmat_graph(8, 1 << 10, /*seed=*/19));
  EXPECT_THROW(point_bfs(mg, 0, n + 7), std::invalid_argument);
}

TEST(PointBfs, ThrowingPollStopsTheSearch) {
  // A torus keeps both sides going for many rounds: the search must stop
  // at the poll that throws, and the scratch must still answer exactly.
  const graph g = gen::grid3d_graph(10);
  const vertex_id far = g.num_vertices() / 2 + 5;
  point_bfs_scratch scratch;
  int polls = 0;
  auto poll = [&] {
    if (++polls == 3) throw std::runtime_error("stop");
  };
  EXPECT_THROW(point_bfs(g, 0, far, poll, &scratch), std::runtime_error);
  EXPECT_EQ(polls, 3);
  int calls = 0;
  const int64_t d = point_bfs(g, 0, far, [&] { calls++; }, &scratch);
  EXPECT_EQ(d, apps::bfs_levels(g, 0)[far]);
  EXPECT_GE(calls, 3);  // polled once per round
}

TEST(PointBfs, ScratchStaysExactAcrossStampWrapAround) {
  const graph g = gen::rmat_graph(10, edge_id{8} << 10, /*seed=*/23);
  point_bfs_scratch scratch;
  // Stamps 1..250 leave marks all over both arrays.
  expect_matches_full_bfs(g, g, 301, &scratch);
  // Jump to the end of the stamp range: the next searches run at the last
  // stamps, then the stamp wraps and the arrays are cleared.
  scratch.stamp = std::numeric_limits<uint32_t>::max() - 3;
  // After the wrap the stamps are ones the first searches' marks carry.
  expect_matches_full_bfs(g, g, 302, &scratch);
  EXPECT_LT(scratch.stamp, 300u) << "the stamp never wrapped";
}
