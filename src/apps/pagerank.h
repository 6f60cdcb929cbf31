// PageRank (paper §4.5) in two variants:
//
//   * pagerank       — classic synchronous power iteration: every vertex
//                      pulls rank mass from all in-neighbors every round.
//                      The frontier is the full vertex set, so a round is a
//                      plain sum over in-neighbors with no frontier test
//                      (pull_if_dense, ligra/pull.h), in the same order, and
//                      with the same ranks, as edge_map's dense kernel.
//                      Forced sparse or dense_forward, or
//                      prefer_dense_forward, runs edge_map instead.
//   * pagerank_delta — the paper's optimized variant: only vertices whose
//                      rank changed by more than a tolerance propagate
//                      their *change* (delta), so the active set — and the
//                      per-round work — shrinks as the iteration converges.
//                      Experiment F4 reproduces the paper's claim that this
//                      reaches comparable rank values substantially faster.
//
// Following the paper, rank mass from zero-out-degree vertices is dropped
// (no dangling redistribution), so ranks sum to < 1 on graphs with sinks;
// both variants and the serial baseline share this convention, making them
// directly comparable.
#pragma once

#include <functional>
#include <vector>

#include "graph/graph.h"
#include "ligra/edge_map.h"

namespace ligra::apps {

struct pagerank_options {
  double damping = 0.85;
  // Stop when the L1 change across a round drops below this.
  double tolerance = 1e-7;
  size_t max_iterations = 100;
  edge_map_options edge_map;
  // Runs once per iteration and may throw to abort — the query engine's
  // cancellation hook.
  std::function<void()> poll;
};

struct pagerank_delta_options {
  double damping = 0.85;
  double tolerance = 1e-7;  // global L1 target, as in pagerank_options
  // A vertex stays active while |delta| > local_tolerance * rank.
  double local_tolerance = 0.01;
  size_t max_iterations = 100;
  edge_map_options edge_map;
  // Runs once per iteration and may throw to abort.
  std::function<void()> poll;
};

struct pagerank_result {
  std::vector<double> rank;
  size_t num_iterations = 0;
  double final_residual = 0.0;        // L1 change of the last round
  std::vector<size_t> active_history; // active set size per round (F4)
};

pagerank_result pagerank(const graph& g, const pagerank_options& opts = {});
pagerank_result pagerank_delta(const graph& g,
                               const pagerank_delta_options& opts = {});

}  // namespace ligra::apps
