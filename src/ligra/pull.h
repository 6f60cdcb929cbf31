// pull_if_dense — a dense round as a plain reduction over in-neighbours,
// shared by the apps whose dense rounds need no frontier test: PageRank,
// Bellman-Ford and multi-BFS (DESIGN.md §5.9).
//
// edge_map's dense kernel (paper §3, edgeMapDense) tests every in-edge's
// source for frontier membership and calls F.update on the members. An app
// may drop that test when a non-frontier in-neighbour has nothing new to
// give: either its update is monotone and every vertex pushed its current
// state in the round after it last changed (multi-BFS's OR, Bellman-Ford's
// min-plus), or the frontier is every vertex (PageRank). Such a round is a
// reduction: one task per 64-vertex output word calls gather(v) for each of
// its vertices in order; gather computes v's new state from all of v's
// in-edges and returns whether v joins the output. Each vertex belongs to
// one task, so nothing is atomic, and gather must read only state that no
// task writes during the round (double-buffer what it lowers or grows).
//
// The direction is the paper's rule, as edge_map applies it: a round pulls
// when traversal::dense is forced, or under automatic without
// prefer_dense_forward when |U| + outdeg(U) > m / threshold_denominator.
// Any other round runs edge_map with push_options(opts), which forces sparse
// where the rule already decided, so edge_map's own dense kernel never runs
// for these apps. A pulled round fills edge_map_options::stats and appends
// one "dense" round to the installed trace, as edge_map does.
//
// Cost: deciding reads a sparse frontier's out-degrees, and edge_map builds
// its degree prefix again when the round pushes, O(|U|) per sparse round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ligra/edge_map.h"
#include "ligra/vertex_subset.h"
#include "obs/trace.h"
#include "parallel/primitives.h"
#include "util/timer.h"

namespace ligra {

// Runs the round over `frontier` as a pull when the rule picks dense and
// returns its output as a bitmap subset. Returns std::nullopt, having read
// at most the frontier's out-degrees, when the round should run edge_map
// with push_options(opts) instead.
template <class G, class Gather>
std::optional<vertex_subset> pull_if_dense(const G& g,
                                           const vertex_subset& frontier,
                                           Gather&& gather,
                                           const edge_map_options& opts) {
  if (frontier.universe_size() != g.num_vertices())
    throw std::invalid_argument(
        "pull_if_dense: frontier universe != graph size");
  if (opts.strategy != traversal::dense &&
      (opts.strategy != traversal::automatic || opts.prefer_dense_forward))
    return std::nullopt;
  const uint64_t threshold =
      g.num_edges() / std::max<uint64_t>(1, opts.threshold_denominator);
  const edge_id frontier_edges = frontier.out_degree_sum(g);
  if (opts.strategy == traversal::automatic &&
      frontier.size() + frontier_edges <= threshold)
    return std::nullopt;

  obs::query_trace* trace = obs::current_trace();
  monotonic_time t0{};
  if (trace != nullptr) t0 = mono_now();
  const vertex_id n = g.num_vertices();
  std::vector<uint64_t> words(vertex_subset::num_bitmap_words(n), 0);
  parallel::parallel_for(0, words.size(), [&](size_t wi) {
    const size_t lo = wi * 64;
    const size_t hi = std::min<size_t>(n, lo + 64);
    uint64_t word = 0;
    for (size_t v = lo; v < hi; v++)
      if (gather(static_cast<vertex_id>(v))) word |= uint64_t{1} << (v - lo);
    words[wi] = word;
  });
  vertex_subset out = vertex_subset::from_bitmap(n, std::move(words));
  if (opts.stats != nullptr)
    *opts.stats = {frontier.size(), frontier_edges, traversal::dense, 0, 0};
  if (trace != nullptr)
    trace->add_round(traversal_name(traversal::dense), frontier.size(),
                     frontier_edges, threshold, micros_since(t0));
  return out;
}

// The edge_map options for a round pull_if_dense declined: forced sparse
// where the rule decided (automatic without prefer_dense_forward), the
// caller's own otherwise (sparse, dense_forward, or automatic under
// prefer_dense_forward).
inline edge_map_options push_options(edge_map_options opts) {
  if (opts.strategy == traversal::automatic && !opts.prefer_dense_forward)
    opts.strategy = traversal::sparse;
  return opts;
}

}  // namespace ligra
