// Incremental recompute over the mutable graph view (docs/DYNAMIC.md).
//
// After a batch publishes, the engine does not rerun its analytics from
// scratch: `components_inc` and `pagerank_delta_inc` start from the
// previous epoch's converged state and seed their frontiers from only the
// endpoints the batch actually touched, so the per-batch work scales with
// the size and impact of the batch rather than the graph. Both run the
// standard Ligra kernels (edge_map / vertex_filter) directly over the
// base+delta view — no materialization.
//
//   * components_inc — insert endpoints seed min-label propagation (merges
//     only ever lower labels). For each effective delete, a bounded
//     bidirectional BFS in the new view proves most deletions harmless
//     (the endpoints remain connected through a short alternate path);
//     only when the probe is inconclusive is the deleted edge's old
//     component conservatively reset to self-labels and re-propagated.
//     Exact: results equal full label propagation on the merged graph.
//   * pagerank_delta_inc — warm-starts from the old ranks and computes the
//     exact round-0 residual by retracting each touched vertex's old
//     contribution (over its *old* adjacency) and adding its new one, then
//     runs the standard PageRank-delta propagation to convergence.
//     Approximate in the same sense pagerank_delta is: converges to within
//     the configured tolerances of the true fixpoint.
//
// `inc_state` is the per-epoch converged state the engine's registry keeps
// alongside each mutable graph entry. Point BFS on the live view is
// ligra::point_bfs (ligra/point_bfs.h), shared with static graphs.
#pragma once

#include <functional>
#include <vector>

#include "apps/components.h"
#include "apps/pagerank.h"
#include "dynamic/mutable_graph.h"
#include "graph/graph.h"
#include "ligra/edge_map.h"

namespace ligra::dynamic {

// Converged analytics carried from epoch to epoch by the engine registry.
struct inc_state {
  std::vector<vertex_id> cc_labels;
  size_t cc_components = 0;
  std::vector<double> pr_rank;
};

// PageRank-delta settings used for epoch-state maintenance: tight enough
// that chained incremental refreshes stay close to the true fixpoint
// (looser settings would accumulate truncation error across batches).
apps::pagerank_delta_options maintenance_pr_options();

// Incremental connected components. `labels` are the converged labels of
// the pre-batch view; `inserted`/`deleted` the batch's effective canonical
// edges (dynamic::applied). Throws std::invalid_argument on a label
// array of the wrong size.
apps::components_result components_inc(
    const mutable_graph& g, std::vector<vertex_id> labels,
    const std::vector<edge>& inserted, const std::vector<edge>& deleted,
    const edge_map_options& opts = {},
    const std::function<void()>& poll = {});

// Incremental PageRank-delta. `g_old` is the pre-batch view (needed to
// retract the old contributions of touched vertices), `rank` its converged
// ranks.
apps::pagerank_result pagerank_delta_inc(
    const mutable_graph& g_new, const mutable_graph& g_old,
    std::vector<double> rank, const std::vector<edge>& inserted,
    const std::vector<edge>& deleted,
    const apps::pagerank_delta_options& opts = maintenance_pr_options());

}  // namespace ligra::dynamic
