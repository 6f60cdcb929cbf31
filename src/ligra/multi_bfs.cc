#include "ligra/multi_bfs.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "ligra/pull.h"
#include "ligra/vertex_map.h"
#include "obs/trace.h"
#include "parallel/atomics.h"

namespace ligra {

namespace {

// Multi-BFS update (paper Figure 6) for the rounds edge_map runs: propagate
// the union of source bits; a vertex joins the output frontier the first
// time its bit set grows in a round. `last_reached` doubles as the
// per-round duplicate filter: at most one updater per round wins the CAS to
// the current round number.
struct multi_bfs_f {
  const uint64_t* visited;
  uint64_t* next_visited;
  int64_t* last_reached;
  int64_t round;

  // edge_map calls update only from its dense kernel, which the driver never
  // reaches (dense rounds pull); delegate to keep one body.
  bool update(vertex_id u, vertex_id v) const { return update_atomic(u, v); }
  bool update_atomic(vertex_id u, vertex_id v) const {
    uint64_t to_write = visited[v] | visited[u];
    if (visited[v] != to_write) {
      write_or(&next_visited[v], to_write);
      int64_t old = atomic_load(&last_reached[v]);
      if (old != round) return compare_and_swap(&last_reached[v], old, round);
    }
    return false;
  }
  bool cond(vertex_id) const { return true; }
};

void check_sources(const std::vector<vertex_id>& sources, vertex_id n) {
  if (sources.empty() || sources.size() > 64)
    throw std::invalid_argument("multi_bfs: " + std::to_string(sources.size()) +
                                " sources (must be 1..64)");
  for (size_t i = 0; i < sources.size(); i++) {
    if (sources[i] >= n)
      throw std::invalid_argument(
          "multi_bfs: source " + std::to_string(sources[i]) +
          " out of range [0, " + std::to_string(n) + ")");
    for (size_t k = 0; k < i; k++)
      if (sources[k] == sources[i])
        throw std::invalid_argument("multi_bfs: duplicate source " +
                                    std::to_string(sources[i]));
  }
}

// Shared driver: seeds one bit per source, runs rounds until the frontier
// empties or `after_round(round, visited)` returns false, calling it with
// the freshly-published bit sets. A dense round pulls (ligra/pull.h); every
// other round runs edge_map with push_options of the caller's options. The
// returned result's last_reached is moved out of the scratch when one was
// provided, so scratch callers must not rely on it afterwards — they get the
// vectors back (capacity intact) on the next run.
template <typename AfterRound>
multi_bfs_result drive(const graph& g, const std::vector<vertex_id>& sources,
                       const multi_bfs_options& opts, AfterRound after_round) {
  const vertex_id n = g.num_vertices();
  check_sources(sources, n);

  multi_bfs_scratch local;
  multi_bfs_scratch& s = opts.scratch != nullptr ? *opts.scratch : local;
  s.visited.assign(n, 0);
  s.next_visited.assign(n, 0);
  s.last_reached.assign(n, -1);

  // One trace span covers the whole batched traversal and names its width,
  // so a retained trace shows which rounds were shared across how many
  // searches. Free when no trace is installed.
  obs::query_trace* trace = obs::current_trace();
  size_t span = 0;
  if (trace != nullptr)
    span = trace->begin_span("multi_bfs[width=" +
                             std::to_string(sources.size()) + "]");

  for (size_t i = 0; i < sources.size(); i++) {
    vertex_id v = sources[i];
    s.visited[v] |= uint64_t{1} << i;
    s.next_visited[v] = s.visited[v];
    s.last_reached[v] = 0;
  }
  const uint64_t full = sources.size() == 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << sources.size()) - 1;
  uint64_t* visited = s.visited.data();
  uint64_t* next_visited = s.next_visited.data();
  int64_t* last_reached = s.last_reached.data();

  // A dense round as a branch-free pull (the bottom-up step of MS-BFS, Then
  // et al., PVLDB 2014): v's new set is the OR of its own set and *every*
  // in-neighbour's set. This is exact because after round r >= 1 every edge
  // (u, v) has visited_r[v] ⊇ visited_{r-1}[u]: a frontier u was pulled
  // directly, and a non-frontier u did not change. So a non-frontier
  // in-neighbour adds nothing, and the round's output equals edge_map's. A
  // vertex holding every source's bit (`full`) cannot grow and is skipped.
  int64_t round = 0;
  auto or_in = [&](vertex_id v) {
    if (visited[v] == full) return false;
    uint64_t acc = visited[v];
    for (vertex_id u : g.in_neighbors(v)) acc |= visited[u];
    if (acc == visited[v]) return false;
    next_visited[v] = acc;
    last_reached[v] = round;
    return true;
  };
  const edge_map_options push = push_options(opts.edge_map);

  vertex_subset frontier(n, std::vector<vertex_id>(sources));
  while (!frontier.empty()) {
    if (opts.poll) opts.poll();
    round++;
    vertex_subset next;
    if (auto pulled = pull_if_dense(g, frontier, or_in, opts.edge_map))
      next = std::move(*pulled);
    else
      next = edge_map(g, frontier,
                      multi_bfs_f{visited, next_visited, last_reached, round},
                      push);
    // Publish this round's unions for the next round.
    vertex_map(next, [&](vertex_id v) { visited[v] = next_visited[v]; });
    frontier = std::move(next);
    if (!after_round(round, visited)) break;
  }

  if (trace != nullptr) trace->end_span(span);
  multi_bfs_result result;
  result.last_reached = std::move(s.last_reached);
  result.num_rounds = round;
  result.num_sources = sources.size();
  return result;
}

}  // namespace

multi_bfs_result multi_bfs_sweep(const graph& g,
                                 const std::vector<vertex_id>& sources,
                                 const multi_bfs_options& opts) {
  return drive(g, sources, opts,
               [](int64_t, const uint64_t*) { return true; });
}

std::vector<int64_t> multi_bfs_distances(
    const graph& g, const std::vector<vertex_id>& sources,
    const std::vector<multi_bfs_pair>& pairs,
    const multi_bfs_options& opts) {
  const vertex_id n = g.num_vertices();
  for (const auto& p : pairs) {
    if (p.source_slot >= sources.size())
      throw std::invalid_argument(
          "multi_bfs_distances: source slot " + std::to_string(p.source_slot) +
          " out of range [0, " + std::to_string(sources.size()) + ")");
    if (p.target >= n)
      throw std::invalid_argument(
          "multi_bfs_distances: target " + std::to_string(p.target) +
          " out of range [0, " + std::to_string(n) + ")");
  }

  std::vector<int64_t> dist(pairs.size(), -1);
  // Round 0: a pair whose target *is* its source is already resolved.
  size_t pending = 0;
  for (size_t i = 0; i < pairs.size(); i++) {
    if (sources[pairs[i].source_slot] == pairs[i].target)
      dist[i] = 0;
    else
      pending++;
  }

  auto watch = [&](int64_t round, const uint64_t* visited) {
    for (size_t i = 0; i < pairs.size(); i++) {
      if (dist[i] >= 0) continue;
      if ((visited[pairs[i].target] >> pairs[i].source_slot) & 1) {
        dist[i] = round;
        pending--;
      }
    }
    return pending > 0;  // every pair resolved: stop traversing
  };
  if (pending > 0)
    drive(g, sources, opts, watch);
  else
    check_sources(sources, n);  // validate even when no traversal is needed
  return dist;
}

}  // namespace ligra
