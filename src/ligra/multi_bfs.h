// Bit-parallel multi-source BFS — the paper's Figure 6 (Radii) traversal
// extracted into a reusable primitive.
//
// Up to 64 simultaneous breadth-first searches share one pass over the
// graph: search i's visited set is bit i of a per-vertex uint64_t, and one
// edge relaxation propagates the whole union `visited[v] | visited[u]` at
// once. Every cache line an edge_map round touches is amortized across the
// full batch — the parallelism is word-level, not thread-level.
//
// Two entry points share the driver:
//   * multi_bfs_sweep — per-vertex "last round my bit set grew" fold, the
//     Radii/eccentricity estimator semantics (a vertex's estimate is the
//     furthest sampled source that reached it).
//   * multi_bfs_distances — batched point queries: per (source slot,
//     target) pair, the round the source's bit first set on the target,
//     i.e. the exact BFS hop distance. Stops as soon as every pair is
//     resolved. (The engine answers a single point query with
//     ligra/point_bfs.h instead, which reads far fewer edges.)
//
// Each round decides its direction by the paper's rule (|U| + outdeg(U) >
// m / threshold_denominator) unless a strategy is forced. A dense round
// pulls through the kernel PageRank and Bellman-Ford share
// (pull_if_dense, ligra/pull.h): every vertex not yet holding all k source
// bits ORs in the sets of *all* its in-neighbours, with no frontier test and
// no atomics — exact because a vertex's set only grows, so a non-frontier
// in-neighbour has nothing new to give (DESIGN.md §5.9). Sparse rounds,
// dense_forward, and automatic under prefer_dense_forward run the standard
// edge_map kernel with push_options of the caller's options. Every round
// appends one trace event and fills edge_map_options::stats, pull rounds
// as "dense". The driver polls an optional cancel hook at round boundaries
// and reuses caller-provided working vectors across runs via
// multi_bfs_scratch.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "ligra/edge_map.h"

namespace ligra {

// Reusable per-run working memory: three n-sized vectors a steady-state
// caller (one sweep after another, as eccentricity runs them) allocates
// once. Reset per run by the driver; contents are meaningless between runs.
struct multi_bfs_scratch {
  std::vector<uint64_t> visited;
  std::vector<uint64_t> next_visited;
  std::vector<int64_t> last_reached;
};

struct multi_bfs_options {
  // Traversal knobs (strategy, threshold, round scratch, stats) — same
  // pass-through the apps take. Pull rounds use only the strategy,
  // prefer_dense_forward, the threshold and stats; edge_map rounds use all
  // of them.
  edge_map_options edge_map;
  // Cancel/deadline polling site, called once per round before the
  // traversal. Throwing aborts the whole run (the exception propagates).
  std::function<void()> poll;
  // Optional working-memory reuse (see multi_bfs_scratch).
  multi_bfs_scratch* scratch = nullptr;
};

struct multi_bfs_result {
  // last_reached[v] = last round in which v's bit set grew: 0 for sources,
  // -1 for vertices no search reached. This is exactly the Radii estimate
  // (max over sampled searches of their distance to v).
  std::vector<int64_t> last_reached;
  int64_t num_rounds = 0;
  size_t num_sources = 0;
};

// One watched point query: hop distance from sources[source_slot] to
// target.
struct multi_bfs_pair {
  uint32_t source_slot = 0;
  vertex_id target = 0;
};

// Simultaneous BFS from `sources` (distinct, 1..64 of them — throws
// std::invalid_argument otherwise, or on an out-of-range vertex), folding
// per-vertex last-reached rounds. Runs until the shared frontier empties.
multi_bfs_result multi_bfs_sweep(const graph& g,
                                 const std::vector<vertex_id>& sources,
                                 const multi_bfs_options& opts = {});

// Batched point distances: out[i] = BFS hop distance from
// sources[pairs[i].source_slot] to pairs[i].target, or -1 when
// unreachable. Identical to running one bfs per pair, but in a single
// traversal; stops as soon as every pair is resolved. Throws
// std::invalid_argument on bad sources (as above), a slot >=
// sources.size(), or an out-of-range target.
std::vector<int64_t> multi_bfs_distances(
    const graph& g, const std::vector<vertex_id>& sources,
    const std::vector<multi_bfs_pair>& pairs,
    const multi_bfs_options& opts = {});

}  // namespace ligra
