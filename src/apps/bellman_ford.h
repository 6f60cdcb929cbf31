// Bellman-Ford single-source shortest paths (paper §4.6): frontier-based
// relaxation on a weighted graph. Each round relaxes the out-edges of the
// vertices whose distance improved last round. A sparse round pushes
// through edge_map: `write_min` makes the relaxation atomic, and a
// per-round visited flag keeps the output frontier duplicate-free. A dense
// round pulls (pull_if_dense, ligra/pull.h): each vertex takes the minimum
// over all its in-edges from reached vertices, with no frontier test,
// reading last round's distances and publishing its own after the round.
// Handles negative edge weights; detects negative cycles after n rounds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "ligra/edge_map.h"

namespace ligra::apps {

// Distances are int64 so that n * max|weight| cannot overflow.
inline constexpr int64_t kInfiniteDistance =
    std::numeric_limits<int64_t>::max() / 4;

struct bellman_ford_result {
  // distances[v] = shortest-path weight from source, kInfiniteDistance if
  // unreachable. Meaningless if negative_cycle is true.
  std::vector<int64_t> distances;
  bool negative_cycle = false;
  size_t num_rounds = 0;
};

// `poll` (if set) runs once per relaxation round and may throw to abort —
// the query engine's cancellation hook.
bellman_ford_result bellman_ford(const wgraph& g, vertex_id source,
                                 const edge_map_options& opts = {},
                                 const std::function<void()>& poll = {});

}  // namespace ligra::apps
