// Tests for the bit-parallel multi-source BFS primitive
// (ligra/multi_bfs.h): the batched path must be *bit-identical* to running
// one sequential BFS per source — per-pair distances equal bfs_levels, the
// sweep's per-vertex last-reached round equals the max per-source
// distance — across rMat, uniform random, directed rMat and torus graphs,
// under every forced traversal strategy, plus the per-round trace, argument
// validation, early-exit, polling, and scratch-reuse behavior. The torus
// mixes sparse (edge_map) rounds with dense ones (the driver's OR pull), and
// the directed rMat makes the pull's in-edge reads visible.
#include "ligra/multi_bfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/bfs.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "util/rng.h"

using namespace ligra;

namespace {

// Distinct sources drawn deterministically from `seed`.
std::vector<vertex_id> pick_sources(const graph& g, size_t count,
                                    uint64_t seed) {
  rng r(seed);
  std::vector<uint8_t> used(g.num_vertices(), 0);
  std::vector<vertex_id> sources;
  // The draw counter advances every attempt (bounded() is a pure hash of
  // it, so re-drawing the same counter would loop forever on a collision).
  for (uint64_t i = 0; sources.size() < count; i++) {
    auto v = static_cast<vertex_id>(r.bounded(i, g.num_vertices()));
    if (!used[v]) {
      used[v] = 1;
      sources.push_back(v);
    }
  }
  return sources;
}

// The property at the heart of the batching PR: one 64-wide bit-parallel
// traversal returns exactly the distances 64 sequential BFS runs would.
void expect_batched_matches_sequential(const graph& g, uint64_t seed) {
  auto sources = pick_sources(g, 64, seed);
  // One watch per (source slot, target): every source watches a handful of
  // targets, including itself and unreachable-ish candidates.
  rng r(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<multi_bfs_pair> pairs;
  for (uint32_t slot = 0; slot < sources.size(); slot++) {
    pairs.push_back({slot, sources[slot]});  // self: distance 0
    for (int t = 0; t < 4; t++)
      pairs.push_back(
          {slot, static_cast<vertex_id>(r.bounded(t, g.num_vertices()))});
  }
  auto dist = multi_bfs_distances(g, sources, pairs);

  for (uint32_t slot = 0; slot < sources.size(); slot++) {
    auto levels = apps::bfs_levels(g, sources[slot]);
    for (size_t i = 0; i < pairs.size(); i++) {
      if (pairs[i].source_slot != slot) continue;
      EXPECT_EQ(dist[i], levels[pairs[i].target])
          << "source " << sources[slot] << " target " << pairs[i].target;
    }
  }
}

// Per-vertex max over one sequential BFS per source (-1 if none reaches).
std::vector<int64_t> max_levels(const graph& g,
                                const std::vector<vertex_id>& sources) {
  std::vector<int64_t> expected(g.num_vertices(), -1);
  for (vertex_id s : sources) {
    auto levels = apps::bfs_levels(g, s);
    for (vertex_id v = 0; v < g.num_vertices(); v++)
      expected[v] = std::max(expected[v], levels[v]);
  }
  return expected;
}

multi_bfs_result sweep_with(const graph& g,
                            const std::vector<vertex_id>& sources,
                            traversal strategy) {
  multi_bfs_options opts;
  opts.edge_map.strategy = strategy;
  return multi_bfs_sweep(g, sources, opts);
}

// A sweep under an installed trace, returning its round events.
std::vector<obs::trace_round> traced_rounds(
    const graph& g, const std::vector<vertex_id>& sources, traversal strategy,
    multi_bfs_result* out) {
  obs::query_trace trace;
  obs::trace_scope scope(&trace);
  *out = sweep_with(g, sources, strategy);
  return trace.rounds();
}

}  // namespace

TEST(MultiBfs, DistancesMatchSequentialBfsRmat) {
  for (int scale = 10; scale <= 12; scale++)
    expect_batched_matches_sequential(
        gen::rmat_graph(scale, edge_id{8} << scale, /*seed=*/scale), scale);
}

TEST(MultiBfs, DistancesMatchSequentialBfsUniform) {
  for (int scale = 10; scale <= 12; scale++)
    expect_batched_matches_sequential(
        gen::random_graph(vertex_id{1} << scale, 8, /*seed=*/scale), scale);
}

TEST(MultiBfs, DistancesMatchSequentialBfsTorus) {
  expect_batched_matches_sequential(gen::grid3d_graph(16), 4);
}

TEST(MultiBfs, SweepLastReachedIsMaxPerSourceDistance) {
  auto g = gen::rmat_graph(10, 1 << 13, 3);
  auto sources = pick_sources(g, 64, 3);
  auto sweep = multi_bfs_sweep(g, sources);
  ASSERT_EQ(sweep.num_sources, 64u);
  EXPECT_EQ(sweep.last_reached, max_levels(g, sources));
}

TEST(MultiBfs, SweepMatchesPerSourceBfsOnTorus) {
  // 16^3 torus: a few sources start sparse, the middle rounds go dense, and
  // a vertex holding all k bits stops pulling before the sweep ends.
  auto g = gen::grid3d_graph(16);
  for (size_t k : {64u, 7u}) {
    auto sources = pick_sources(g, k, 100 + k);
    auto sweep = multi_bfs_sweep(g, sources);
    EXPECT_EQ(sweep.last_reached, max_levels(g, sources)) << "k " << k;
  }
}

TEST(MultiBfs, SweepMatchesPerSourceBfsOnDigraph) {
  // Directed rMat: in- and out-edges differ, so a pull that read out-edges
  // would propagate bits backwards along edges.
  auto g = gen::rmat_digraph(12, edge_id{8} << 12, 9);
  ASSERT_FALSE(g.symmetric());
  for (size_t k : {64u, 5u}) {
    auto sources = pick_sources(g, k, 200 + k);
    auto expected = max_levels(g, sources);
    for (traversal t : {traversal::automatic, traversal::dense})
      EXPECT_EQ(sweep_with(g, sources, t).last_reached, expected)
          << "k " << k << " strategy " << traversal_name(t);
  }
}

TEST(MultiBfs, ForcedStrategiesAgree) {
  // Forced sparse runs edge_map's push kernel on every round; dense runs
  // the OR pull on every round; dense_forward is edge_map's push over a
  // bitmap; automatic mixes sparse and pull rounds. All four must give the
  // same rounds and per-vertex results, and automatic's traced frontiers
  // must be forced sparse's, round for round.
  for (const graph& g : {gen::grid3d_graph(16),
                         gen::rmat_digraph(11, edge_id{8} << 11, 5)}) {
    auto sources = pick_sources(g, 64, 7);
    multi_bfs_result sparse, automatic;
    auto sparse_rounds =
        traced_rounds(g, sources, traversal::sparse, &sparse);
    auto auto_rounds =
        traced_rounds(g, sources, traversal::automatic, &automatic);
    EXPECT_EQ(automatic.last_reached, sparse.last_reached);
    EXPECT_EQ(automatic.num_rounds, sparse.num_rounds);
    ASSERT_EQ(auto_rounds.size(), sparse_rounds.size());
    for (size_t i = 0; i < auto_rounds.size(); i++) {
      EXPECT_EQ(auto_rounds[i].frontier_size, sparse_rounds[i].frontier_size)
          << "round " << i + 1;
      EXPECT_EQ(auto_rounds[i].frontier_edges,
                sparse_rounds[i].frontier_edges)
          << "round " << i + 1;
    }
    for (traversal t : {traversal::dense, traversal::dense_forward}) {
      auto forced = sweep_with(g, sources, t);
      EXPECT_EQ(forced.last_reached, sparse.last_reached)
          << traversal_name(t);
      EXPECT_EQ(forced.num_rounds, sparse.num_rounds) << traversal_name(t);
    }
  }
}

TEST(MultiBfs, TracedTorusSweepRecordsEveryRound) {
  auto g = gen::grid3d_graph(16);
  multi_bfs_result sweep;
  auto rounds = traced_rounds(g, pick_sources(g, 64, 11),
                              traversal::automatic, &sweep);
  ASSERT_EQ(rounds.size(), static_cast<size_t>(sweep.num_rounds));
  size_t sparse = 0, dense = 0;
  for (const auto& r : rounds) {
    const std::string dir = r.direction;
    sparse += dir == "sparse";
    dense += dir == "dense";
    EXPECT_EQ(r.threshold, g.num_edges() / 20);
    // The paper's rule picked each round's direction.
    EXPECT_EQ(dir == "dense", r.frontier_size + r.frontier_edges > r.threshold)
        << "round " << r.index;
  }
  EXPECT_GT(sparse, 0u);
  EXPECT_GT(dense, 0u);
  EXPECT_EQ(sparse + dense, rounds.size());
}

TEST(MultiBfs, FewerThanSixtyFourSourcesWork) {
  auto g = gen::random_graph(512, 6, 11);
  for (size_t k : {1u, 2u, 7u, 33u}) {
    auto sources = pick_sources(g, k, k);
    std::vector<multi_bfs_pair> pairs;
    for (uint32_t slot = 0; slot < k; slot++)
      pairs.push_back({slot, static_cast<vertex_id>((131 * slot) % 512)});
    auto dist = multi_bfs_distances(g, sources, pairs);
    for (uint32_t slot = 0; slot < k; slot++) {
      auto levels = apps::bfs_levels(g, sources[slot]);
      EXPECT_EQ(dist[slot], levels[pairs[slot].target]);
    }
  }
}

TEST(MultiBfs, UnreachableTargetsReturnMinusOne) {
  // Two disjoint cycles: vertices [0,8) and [8,16) never meet.
  std::vector<edge> edges;
  for (vertex_id v = 0; v < 8; v++)
    edges.push_back({v, static_cast<vertex_id>((v + 1) % 8)});
  for (vertex_id v = 8; v < 16; v++)
    edges.push_back({v, static_cast<vertex_id>(8 + ((v - 8 + 1) % 8))});
  auto g = graph::from_edges(16, edges, {.symmetrize = true});
  auto dist = multi_bfs_distances(g, {0, 9}, {{0, 12}, {1, 3}, {1, 12}});
  EXPECT_EQ(dist[0], -1);  // 0 cannot reach the second cycle
  EXPECT_EQ(dist[1], -1);  // 9 cannot reach the first cycle
  EXPECT_EQ(dist[2], 3);   // 9 -> 12 within its cycle
}

TEST(MultiBfs, SelfPairsResolveWithoutTraversal) {
  auto g = gen::cycle_graph(32);
  // Every pair is source == target: resolved at round 0; rounds stay 0
  // because the driver is never entered.
  auto dist = multi_bfs_distances(g, {3, 17}, {{0, 3}, {1, 17}});
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 0);
}

TEST(MultiBfs, ValidationRejectsBadArguments) {
  auto g = gen::cycle_graph(16);
  EXPECT_THROW(multi_bfs_sweep(g, {}), std::invalid_argument);
  EXPECT_THROW(multi_bfs_sweep(g, std::vector<vertex_id>(65, 0)),
               std::invalid_argument);
  EXPECT_THROW(multi_bfs_sweep(g, {1, 1}), std::invalid_argument);
  EXPECT_THROW(multi_bfs_sweep(g, {99}), std::invalid_argument);
  EXPECT_THROW(multi_bfs_distances(g, {1}, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW(multi_bfs_distances(g, {1}, {{0, 99}}), std::invalid_argument);
}

TEST(MultiBfs, PollThrowAbortsTraversal) {
  auto g = gen::path_graph(64);
  multi_bfs_options opts;
  int polls = 0;
  opts.poll = [&] {
    if (++polls == 3) throw std::runtime_error("stop");
  };
  EXPECT_THROW(multi_bfs_sweep(g, {0}, opts), std::runtime_error);
  EXPECT_EQ(polls, 3);
}

TEST(MultiBfs, DistancesStopOnceAllPairsResolve) {
  // Path graph, target 3 hops out: the driver must not walk all 256
  // vertices once the only watch resolves.
  auto g = gen::path_graph(256);
  multi_bfs_options opts;
  int polls = 0;  // one per round, before its traversal
  opts.poll = [&] { polls++; };
  auto dist = multi_bfs_distances(g, {0}, {{0, 3}}, opts);
  EXPECT_EQ(dist[0], 3);
  EXPECT_EQ(polls, 3);
}

TEST(MultiBfs, ScratchReuseAcrossRunsIsClean) {
  auto g1 = gen::rmat_graph(10, 1 << 13, 5);
  auto g2 = gen::random_graph(300, 4, 6);  // different (smaller) universe
  multi_bfs_scratch scratch;
  multi_bfs_options opts;
  opts.scratch = &scratch;
  auto s1 = multi_bfs_sweep(g1, pick_sources(g1, 64, 1), opts);
  auto s2 = multi_bfs_sweep(g2, pick_sources(g2, 16, 2), opts);
  auto fresh = multi_bfs_sweep(g2, pick_sources(g2, 16, 2));
  EXPECT_EQ(s2.last_reached, fresh.last_reached);
  EXPECT_EQ(s2.num_rounds, fresh.num_rounds);
  EXPECT_GT(s1.num_rounds, 0);
}
