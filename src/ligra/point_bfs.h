// point_bfs — one point-to-point hop distance by bidirectional search
// (docs/ENGINE.md "Point BFS").
//
// Two ordinary edge_map frontiers grow toward each other: the forward side
// from s over out-edges, the backward side from t over in-edges (through
// reversed_graph, a zero-copy transpose view; a symmetric graph is its own
// reverse). Each round expands the side whose frontier has fewer
// out-edges, and every round is a plain direction-optimizing edge_map, so
// a wide middle round still goes dense. On low-diameter graphs the two
// balls meet after reading a small fraction of m; balanced bidirectional
// BFS is sublinear in m on power-law random graphs (Borassi & Natale,
// KADABRA, ESA 2016).
//
// Termination: before a round no vertex is visited by both sides, so
// d(s, t) > la + lb, the two frontier levels. The first round that
// reaches a vertex v the other side has visited therefore finds d(s, t)
// exactly: every such v has la[v] + lb[v] = la + lb counted after the
// round (a smaller level on the other side would contradict the bound),
// so the minimum over the meeting vertices needs no per-vertex levels.
// A side whose frontier empties proves t unreachable.
//
// Visited state is a pair of epoch-stamped mark arrays in a
// point_bfs_scratch: a search claims a fresh stamp, so marks left by
// earlier searches read as unvisited and a search costs the edges it
// reads, not an O(n) clear. The query executor keeps one scratch per
// dispatcher; callers without one get a local scratch per search.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "ligra/edge_map.h"
#include "ligra/vertex_subset.h"
#include "parallel/atomics.h"

namespace ligra {

// Reusable visited state: one stamp per vertex per side. A vertex is
// visited by a side when its mark holds the running search's stamp. The
// arrays are refilled only when they grow or the stamp wraps. One scratch
// serves one search at a time.
struct point_bfs_scratch {
  std::vector<uint32_t> fwd;
  std::vector<uint32_t> bwd;
  // The last search's stamp; marks start at 0, so 0 is never handed out.
  uint32_t stamp = 0;

  // Claims a fresh stamp for a search over n vertices.
  uint32_t begin(vertex_id n) {
    if (fwd.size() < n || stamp == std::numeric_limits<uint32_t>::max()) {
      fwd.assign(n, 0);
      bwd.assign(n, 0);
      stamp = 0;
    }
    return ++stamp;
  }
};

// G seen through its transpose: out-edges are G's in-edges and vice versa.
// Satisfies the edge_map graph concept without copying anything.
template <class G>
class reversed_graph {
 public:
  using weight_type = typename G::weight_type;

  explicit reversed_graph(const G& g) : g_(&g) {}

  vertex_id num_vertices() const { return g_->num_vertices(); }
  edge_id num_edges() const { return g_->num_edges(); }
  size_t out_degree(vertex_id v) const { return g_->in_degree(v); }

  template <class F>
  void decode_out(vertex_id v, F&& f) const {
    g_->decode_in(v, std::forward<F>(f));
  }
  template <class F>
  void decode_in(vertex_id v, F&& f) const {
    g_->decode_out(v, std::forward<F>(f));
  }

 private:
  const G* g_;
};

namespace detail {

// One side's BFS round: claim each newly reached vertex under this
// search's stamp, and raise `met` when the other side already holds it.
// The other side's marks are read-only during the round, and the CAS
// winner is unique, so the output is duplicate-free.
struct point_bfs_step {
  uint32_t* mine;
  const uint32_t* other;
  uint32_t stamp;
  uint8_t* met;

  bool update(vertex_id, vertex_id v) const {
    if (mine[v] == stamp) return false;
    mine[v] = stamp;
    if (other[v] == stamp) atomic_store(met, uint8_t{1});
    return true;
  }
  bool update_atomic(vertex_id, vertex_id v) const {
    const uint32_t old = atomic_load(&mine[v]);
    if (old == stamp || !compare_and_swap(&mine[v], old, stamp)) return false;
    if (other[v] == stamp) atomic_store(met, uint8_t{1});
    return true;
  }
  bool cond(vertex_id v) const { return atomic_load(&mine[v]) != stamp; }
};

template <class GF, class GB>
int64_t point_bfs_search(const GF& fwd_graph, const GB& bwd_graph,
                         vertex_id s, vertex_id t,
                         const std::function<void()>& poll,
                         point_bfs_scratch& scr) {
  const vertex_id n = fwd_graph.num_vertices();
  const uint32_t stamp = scr.begin(n);
  scr.fwd[s] = stamp;
  scr.bwd[t] = stamp;
  vertex_subset fa(n, s), fb(n, t);
  edge_id ea = fwd_graph.out_degree(s), eb = bwd_graph.out_degree(t);
  int64_t la = 0, lb = 0;  // the frontiers' levels
  uint8_t met = 0;
  // One edge_map round on a side; its frontier's out-edges are summed only
  // when the search goes on.
  auto expand = [&](const auto& g, vertex_subset& frontier, edge_id& edges,
                    int64_t& level, uint32_t* mine, const uint32_t* other) {
    frontier = edge_map(g, frontier, point_bfs_step{mine, other, stamp, &met});
    level++;
    if (!met) edges = frontier.out_degree_sum(g);
  };
  while (!fa.empty() && !fb.empty()) {
    if (poll) poll();
    if (ea <= eb) {
      expand(fwd_graph, fa, ea, la, scr.fwd.data(), scr.bwd.data());
    } else {
      expand(bwd_graph, fb, eb, lb, scr.bwd.data(), scr.fwd.data());
    }
    if (met) return la + lb;
  }
  return -1;
}

}  // namespace detail

// Hop distance from s to t: 0 when s == t, -1 when t is unreachable.
// Throws std::invalid_argument on an out-of-range vertex. `poll` runs
// before every round (throwing stops the search); `scratch` may be null.
// A directed G must expose in_degree/decode_in (graph_t does); a G
// without them, such as dynamic::mutable_graph, must be symmetric.
template <class G>
int64_t point_bfs(const G& g, vertex_id s, vertex_id t,
                  const std::function<void()>& poll = {},
                  point_bfs_scratch* scratch = nullptr) {
  const vertex_id n = g.num_vertices();
  auto check = [n](const char* what, vertex_id v) {
    if (v >= n)
      throw std::invalid_argument(std::string("point_bfs ") + what +
                                  ": vertex " + std::to_string(v) +
                                  " out of range [0, " + std::to_string(n) +
                                  ")");
  };
  check("source", s);
  check("target", t);
  if (s == t) return 0;
  point_bfs_scratch local;
  point_bfs_scratch& scr = scratch != nullptr ? *scratch : local;
  if constexpr (requires { g.in_degree(s); }) {
    if (!g.symmetric())
      return detail::point_bfs_search(g, reversed_graph<G>(g), s, t, poll,
                                      scr);
  }
  return detail::point_bfs_search(g, g, s, t, poll, scr);
}

}  // namespace ligra
