// Thin value-returning query adapters over the applications. The
// concurrent query engine (src/engine/) executes the sssp and triangle
// ones; it answers bfs with one bidirectional search (ligra/point_bfs.h)
// and cc, coreness and top-k from per-epoch arrays (graph_entry), and
// these adapters stay as the reference for those. Each
// adapter maps (graph, params) to a compact answer instead of a full
// per-vertex result vector, validates its parameters, and throws
// std::invalid_argument on out-of-range vertices so engine futures carry
// diagnosable errors.
//
// Every adapter takes an optional engine::cancel_token and polls it at
// round boundaries of the underlying app (deadline/cancellation latency is
// one round, so Ligra's inner kernels stay branch-free). A triggered token
// surfaces as engine::cancelled_error / engine::deadline_exceeded_error.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/cancel.h"
#include "graph/graph.h"

namespace ligra::apps {

// Hop distance from `source` to `target` (BFS); -1 if unreachable.
int64_t bfs_hop_distance(const graph& g, vertex_id source, vertex_id target,
                         const engine::cancel_token& cancel = {});

// Shortest-path weight from `source` to `target` (Bellman-Ford, so negative
// weights are fine); -1 if unreachable. Throws std::runtime_error if the
// graph has a negative cycle.
int64_t sssp_distance(const wgraph& g, vertex_id source, vertex_id target,
                      const engine::cancel_token& cancel = {});

// The k highest-ranked vertices as (vertex, rank) pairs, rank descending,
// ties broken by vertex id. k is clamped to num_vertices.
std::vector<std::pair<vertex_id, double>> pagerank_topk(
    const graph& g, size_t k, const engine::cancel_token& cancel = {});

// pagerank_topk's extraction phase over an arbitrary rank vector — rank
// descending, ties broken by vertex id, k clamped to rank.size(). Exposed
// so the engine can serve top-k straight from an epoch's ranks
// (graph_entry::ranks()) without rerunning PageRank.
std::vector<std::pair<vertex_id, double>> topk_ranks(
    const std::vector<double>& rank, size_t k);

// Connected-component label of `v` (smallest vertex id in v's component).
// Requires a symmetric graph.
vertex_id component_id(const graph& g, vertex_id v,
                       const engine::cancel_token& cancel = {});

// Coreness of `v` (largest k such that v is in the k-core). Requires a
// symmetric graph.
vertex_id vertex_coreness(const graph& g, vertex_id v,
                          const engine::cancel_token& cancel = {});

// Exact triangle count. Requires a symmetric graph.
uint64_t count_triangles(const graph& g,
                         const engine::cancel_token& cancel = {});

}  // namespace ligra::apps
