#include "apps/bellman_ford.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "ligra/pull.h"
#include "ligra/vertex_map.h"
#include "parallel/atomics.h"

namespace ligra::apps {

namespace {

struct bf_f {
  int64_t* dist;
  uint8_t* visited;  // reset between rounds; dedups the output frontier

  // edge_map calls update only from its dense kernel, which bellman_ford
  // never reaches (dense rounds pull); delegate to keep one body.
  bool update(vertex_id u, vertex_id v, int32_t w) const {
    return update_atomic(u, v, w);
  }
  // dist[u] may be lowered concurrently (a frontier vertex can also be a
  // relaxation target), so source reads go through atomic_load; a stale
  // read is just a weaker relaxation, corrected in a later round.
  bool update_atomic(vertex_id u, vertex_id v, int32_t w) const {
    int64_t nd = atomic_load(&dist[u]) + w;
    if (write_min(&dist[v], nd))
      return compare_and_swap(&visited[v], uint8_t{0}, uint8_t{1});
    return false;
  }
  bool cond(vertex_id) const { return true; }
};

}  // namespace

bellman_ford_result bellman_ford(const wgraph& g, vertex_id source,
                                 const edge_map_options& opts,
                                 const std::function<void()>& poll) {
  if (source >= g.num_vertices())
    throw std::invalid_argument("bellman_ford: source out of range");
  const vertex_id n = g.num_vertices();
  bellman_ford_result result;
  std::vector<int64_t>& dist = result.distances;
  dist.assign(n, kInfiniteDistance);
  dist[source] = 0;
  std::vector<uint8_t> visited(n, 0);
  std::vector<int64_t> low(n);

  // A dense round pulls: low[v] = min(dist[v], dist[u] + w over v's
  // in-edges from reached u). A frontier u is pulled directly, and a
  // non-frontier u relaxed its out-edges in the round after it last
  // changed, so it has nothing new to give: the round lowers exactly what
  // pushing from the frontier would. It reads only dist and publishes low
  // after the round, so a round is deterministic (Jacobi-style: without a
  // negative cycle every distance settles within n - 1 rounds). The guard
  // keeps an unreachable u from lowering v across a negative weight.
  auto pull_dist = [&](vertex_id v) {
    int64_t best = dist[v];
    g.decode_in(v, [&](vertex_id u, int32_t w, size_t) {
      const int64_t du = dist[u];
      best = std::min(best,
                      du < kInfiniteDistance ? du + w : kInfiniteDistance);
      return true;
    });
    low[v] = best;
    return best < dist[v];
  };
  // One traversal scratch for every sparse round.
  edge_map_scratch scratch;
  edge_map_options push = push_options(opts);
  if (push.scratch == nullptr) push.scratch = &scratch;

  vertex_subset frontier(n, source);
  while (!frontier.empty()) {
    if (poll) poll();
    if (result.num_rounds++ == n) {
      result.negative_cycle = true;
      return result;
    }
    if (auto pulled = pull_if_dense(g, frontier, pull_dist, opts)) {
      frontier = std::move(*pulled);
      vertex_map(frontier, [&](vertex_id v) { dist[v] = low[v]; });
    } else {
      frontier = edge_map(g, frontier, bf_f{dist.data(), visited.data()}, push);
      vertex_map(frontier, [&](vertex_id v) { visited[v] = 0; });
    }
  }
  return result;
}

}  // namespace ligra::apps
