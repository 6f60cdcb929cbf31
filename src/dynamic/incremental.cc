#include "dynamic/incremental.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "ligra/vertex_map.h"
#include "ligra/vertex_subset.h"
#include "parallel/atomics.h"
#include "parallel/primitives.h"

namespace ligra::dynamic {

namespace {

// Min-label propagation functor — the paper's CC update (apps/components.cc)
// over the mutable view; prev_labels keeps the output duplicate-free.
struct cc_inc_f {
  vertex_id* labels;
  const vertex_id* prev_labels;

  bool update(vertex_id u, vertex_id v) const {
    vertex_id incoming = atomic_load(&labels[u]);
    vertex_id orig = atomic_load(&labels[v]);
    if (incoming < orig) {
      atomic_store(&labels[v], incoming);
      return orig == prev_labels[v];
    }
    return false;
  }
  bool update_atomic(vertex_id u, vertex_id v) const {
    vertex_id incoming = atomic_load(&labels[u]);
    vertex_id orig = atomic_load(&labels[v]);
    if (write_min(&labels[v], incoming)) return orig == prev_labels[v];
    return false;
  }
  bool cond(vertex_id) const { return true; }
};

// Rank-mass accumulation: ngh_sum[v] += contribution[u] (apps/pagerank.cc).
// The first arrival at v wins the `seen` CAS and puts v in the output
// frontier, so each round folds only the vertices that actually received
// mass — per-round work stays proportional to the perturbation's reach
// instead of O(n).
struct pr_inc_f {
  const double* contribution;
  double* ngh_sum;
  uint8_t* seen;

  bool update(vertex_id u, vertex_id v) const {
    ngh_sum[v] += contribution[u];
    if (seen[v]) return false;
    seen[v] = 1;
    return true;
  }
  bool update_atomic(vertex_id u, vertex_id v) const {
    write_add(&ngh_sum[v], contribution[u]);
    return compare_and_swap(&seen[v], uint8_t{0}, uint8_t{1});
  }
  bool cond(vertex_id) const { return true; }
};

// Conservative probe: true proves u and v are still connected in the new
// view, so the deletion split nothing. A bounded bidirectional BFS —
// shared-neighbor checks alone fail on almost every deletion in
// triangle-free graphs (grids, sparse random graphs) even though a short
// alternate path nearly always exists; alternating expansions find any
// path of length <= 2 * kProbeRounds. Visits are capped per side so a hub
// endpoint can't make one delete expensive (past the cap a vertex's
// adjacency is still scanned for a meet, just not enqueued); a false
// negative merely causes an unnecessary (but correct) reset. An exhausted
// side is a definitive split: its whole component fit under the cap and
// never met the other side.
// Per-thread probe scratch: an epoch-stamped mark array gives the
// bidirectional search O(1) membership with no per-probe clearing (stale
// epochs read as unseen). Thread-local because probes run under
// parallel_for; each probe executes start-to-finish on one worker.
struct probe_scratch {
  std::vector<uint32_t> mark;
  uint32_t epoch = 0;
};

probe_scratch& probe_tls(vertex_id n) {
  thread_local probe_scratch s;
  if (s.mark.size() < n) {
    s.mark.assign(n, 0);
    s.epoch = 0;
  }
  if (s.epoch >= UINT32_MAX - 2) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 0;
  }
  return s;
}

// What one delete probe learned. `connected` is proof the endpoints are
// still in one component. `split` is also proof: one side's BFS exhausted
// without meeting the other or being capped, so `piece` is that endpoint's
// ENTIRE component in the new view. Only `unknown` (caps hit, rounds spent)
// forces the conservative component reset.
struct probe_outcome {
  enum kind_t : uint8_t { connected, split, unknown } kind = unknown;
  std::vector<vertex_id> piece;
};

probe_outcome probe_deleted_edge(const mutable_graph& g, vertex_id u,
                                 vertex_id v) {
  constexpr size_t kVisitCap = 512;    // marked vertices per side
  constexpr size_t kScanCap = 4096;    // adjacency entries scanned per vertex
  constexpr int kProbeRounds = 3;      // expansions per side
  constexpr size_t kHubDegree = 1024;  // past this, probe around, not through
  probe_scratch& ps = probe_tls(g.num_vertices());
  ps.epoch += 2;
  const uint32_t tag[2] = {ps.epoch, ps.epoch + 1};
  ps.mark[u] = tag[0];
  ps.mark[v] = tag[1];
  const vertex_id root[2] = {u, v};
  std::vector<vertex_id> frontier[2] = {{u}, {v}};
  std::vector<vertex_id> members[2] = {{u}, {v}};
  bool capped[2] = {false, false};
  // Pending scan cost per side — expansions always take the cheaper side,
  // so a hub endpoint is only scanned once the other side got nowhere.
  size_t cost[2] = {std::min(g.out_degree(u), kScanCap),
                    std::min(g.out_degree(v), kScanCap)};
  for (int round = 0; round < 2 * kProbeRounds; round++) {
    int s = cost[0] <= cost[1] ? 0 : 1;
    if (frontier[s].empty()) {
      if (!capped[s]) return {probe_outcome::split, std::move(members[s])};
      s ^= 1;
    }
    if (frontier[s].empty()) {
      if (!capped[s]) return {probe_outcome::split, std::move(members[s])};
      return {};
    }
    // When the opposite endpoint is a hub, check each vertex we enqueue for
    // direct adjacency to it (binary search in the *small* adjacency): one
    // extra level of reach toward the hub without ever scanning its list.
    const bool hub_other = g.out_degree(root[s ^ 1]) > kHubDegree;
    bool met = false;
    std::vector<vertex_id> next;
    size_t next_cost = 0;
    for (vertex_id x : frontier[s]) {
      size_t scanned = 0;
      g.decode_out(x, [&](vertex_id w, empty_weight, size_t) {
        const uint32_t mw = ps.mark[w];
        if (mw == tag[s ^ 1]) {
          met = true;  // reached by both sides: still connected
          return false;
        }
        if (mw != tag[s]) {
          if (members[s].size() + next.size() >= kVisitCap) {
            capped[s] = true;
          } else {
            if (hub_other && g.has_edge(w, root[s ^ 1])) {
              met = true;
              return false;
            }
            ps.mark[w] = tag[s];
            next.push_back(w);
            next_cost += std::min(g.out_degree(w), kScanCap);
          }
        }
        if (++scanned < kScanCap) return true;
        capped[s] = true;
        return false;
      });
      if (met) return {probe_outcome::connected, {}};
    }
    members[s].insert(members[s].end(), next.begin(), next.end());
    frontier[s] = std::move(next);
    cost[s] = next_cost;
  }
  // One last exhaustion check: the final expansion may have emptied a side.
  for (int s = 0; s < 2; s++)
    if (frontier[s].empty() && !capped[s])
      return {probe_outcome::split, std::move(members[s])};
  return {};
}

}  // namespace

apps::pagerank_delta_options maintenance_pr_options() {
  apps::pagerank_delta_options opts;
  opts.tolerance = 1e-10;
  opts.local_tolerance = 1e-4;
  opts.max_iterations = 200;
  return opts;
}

apps::components_result components_inc(const mutable_graph& g,
                                       std::vector<vertex_id> labels,
                                       const std::vector<edge>& inserted,
                                       const std::vector<edge>& deleted,
                                       const edge_map_options& opts,
                                       const std::function<void()>& poll) {
  const vertex_id n = g.num_vertices();
  if (labels.size() != n)
    throw std::invalid_argument("components_inc: labels size != num_vertices");
  apps::components_result result;
  result.labels = std::move(labels);

  std::vector<vertex_id> seeds;
  seeds.reserve(2 * (inserted.size() + deleted.size()));
  for (const edge& e : inserted) {
    seeds.push_back(e.u);
    seeds.push_back(e.v);
  }

  // Deletions: endpoints of a deleted edge were in the same component, so
  // both carried the same label. A proven-connected probe changes nothing.
  // A proven split hands back one side's entire new-view component: if the
  // old component's min id is outside the piece, relabel just the piece
  // (the remainder keeps the old label, which is still its min); if the min
  // is inside — or the probe was inconclusive — reset the whole old
  // component (components partition the vertices, so the reset is exactly
  // the set of vertices whose label may now be stale) and let propagation
  // re-derive its pieces.
  std::vector<probe_outcome> outcome(deleted.size());
  parallel::parallel_for(0, deleted.size(), [&](size_t i) {
    outcome[i] = probe_deleted_edge(g, deleted[i].u, deleted[i].v);
  });
  std::vector<uint8_t> affected;
  auto mark_affected = [&](vertex_id lbl) {
    if (affected.empty()) affected.assign(n, 0);
    affected[lbl] = 1;
  };
  for (size_t i = 0; i < deleted.size(); i++) {
    switch (outcome[i].kind) {
      case probe_outcome::connected:
        break;
      case probe_outcome::split: {
        // Every member currently carries one shared label: pieces are full
        // components, and earlier relabels in this loop replaced full
        // components too, so the piece is either untouched or already
        // consistent.
        const std::vector<vertex_id>& piece = outcome[i].piece;
        const vertex_id mn =
            *std::min_element(piece.begin(), piece.end());
        if (result.labels[piece.front()] == mn) {
          // The old min sits inside the piece (or the piece was already
          // relabeled): the remainder's min is unknown, so reset by label.
          mark_affected(mn);
        } else {
          for (vertex_id w : piece) result.labels[w] = mn;
        }
        break;
      }
      case probe_outcome::unknown:
        mark_affected(result.labels[deleted[i].u]);
        mark_affected(result.labels[deleted[i].v]);
        break;
    }
  }
  if (!affected.empty()) {
    auto reset = parallel::pack_index<vertex_id>(
        n, [&](size_t v) { return affected[result.labels[v]] != 0; });
    parallel::parallel_for(0, reset.size(), [&](size_t i) {
      result.labels[reset[i]] = reset[i];
    });
    seeds.insert(seeds.end(), reset.begin(), reset.end());
  }

  vertex_subset frontier = vertex_subset::from_unsorted_ids(n, std::move(seeds));
  std::vector<vertex_id> prev(result.labels);
  edge_map_scratch scratch;
  edge_map_options round_opts = opts;
  if (round_opts.scratch == nullptr) round_opts.scratch = &scratch;
  while (!frontier.empty()) {
    if (poll) poll();
    result.num_rounds++;
    vertex_map(frontier, [&](vertex_id v) { prev[v] = result.labels[v]; });
    frontier = edge_map(g, frontier,
                        cc_inc_f{result.labels.data(), prev.data()},
                        round_opts);
  }
  result.num_components = parallel::count_if_index(
      n, [&](size_t v) { return result.labels[v] == v; });
  return result;
}

apps::pagerank_result pagerank_delta_inc(
    const mutable_graph& g_new, const mutable_graph& g_old,
    std::vector<double> rank, const std::vector<edge>& inserted,
    const std::vector<edge>& deleted,
    const apps::pagerank_delta_options& opts) {
  const vertex_id n = g_new.num_vertices();
  if (g_old.num_vertices() != n)
    throw std::invalid_argument("pagerank_delta_inc: view sizes differ");
  if (rank.size() != n)
    throw std::invalid_argument("pagerank_delta_inc: rank size != n");
  apps::pagerank_result result;
  result.rank = std::move(rank);
  if (n == 0) return result;
  std::vector<double>& r = result.rank;
  std::vector<double> delta(n, 0.0), ngh_sum(n, 0.0), contribution(n, 0.0);

  // Touched vertices: both endpoints of every effective edge change (the
  // graph is symmetric, so each endpoint's out-adjacency and degree moved).
  std::vector<vertex_id> touched;
  touched.reserve(2 * (inserted.size() + deleted.size()));
  for (const edge& e : inserted) {
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  for (const edge& e : deleted) {
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  parallel::sort_inplace(touched);
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Round 0 — exact residual correction: untouched vertices contribute
  // exactly what they did at the old fixpoint, so only touched vertices'
  // contributions need retracting (old adjacency/degree) and re-adding
  // (new adjacency/degree).
  parallel::parallel_for(0, touched.size(), [&](size_t i) {
    const vertex_id u = touched[i];
    const size_t dn = g_new.out_degree(u);
    const size_t dold = g_old.out_degree(u);
    const double cn = dn == 0 ? 0.0 : r[u] / static_cast<double>(dn);
    const double co = dold == 0 ? 0.0 : r[u] / static_cast<double>(dold);
    if (cn != 0.0) {
      g_new.decode_out(u, [&](vertex_id w, empty_weight, size_t) {
        write_add(&ngh_sum[w], cn);
        return true;
      });
    }
    if (co != 0.0) {
      g_old.decode_out(u, [&](vertex_id w, empty_weight, size_t) {
        write_add(&ngh_sum[w], -co);
        return true;
      });
    }
  });

  // Fold only the vertices that received mass this round (everywhere else
  // delta is identically zero): apply the damped update, measure the
  // residual, clear the round's scratch, and keep the members still above
  // the local tolerance as the next active set. `received` is
  // duplicate-free, so each member is folded exactly once.
  std::vector<uint8_t> seen(n, 0);
  auto fold_round = [&](const vertex_subset& received) {
    double residual = 0.0;
    vertex_subset next = vertex_filter(received, [&](vertex_id v) -> bool {
      delta[v] = opts.damping * ngh_sum[v];
      r[v] += delta[v];
      ngh_sum[v] = 0.0;
      seen[v] = 0;
      write_add(&residual, std::fabs(delta[v]));
      return std::fabs(delta[v]) > opts.local_tolerance * r[v];
    });
    result.final_residual = residual;
    result.active_history.push_back(next.size());
    return next;
  };

  auto received0 = parallel::pack_index<vertex_id>(
      n, [&](size_t v) { return ngh_sum[v] != 0.0; });
  vertex_subset frontier = fold_round(
      vertex_subset::from_unsorted_ids(n, std::move(received0)));
  edge_map_scratch scratch;
  edge_map_options em_opts = opts.edge_map;
  if (em_opts.scratch == nullptr) em_opts.scratch = &scratch;
  while (!frontier.empty() && result.final_residual >= opts.tolerance &&
         result.num_iterations < opts.max_iterations) {
    if (opts.poll) opts.poll();
    result.num_iterations++;
    vertex_map(frontier, [&](vertex_id v) {
      const size_t d = g_new.out_degree(v);
      contribution[v] = d == 0 ? 0.0 : delta[v] / static_cast<double>(d);
    });
    vertex_subset received =
        edge_map(g_new, frontier,
                 pr_inc_f{contribution.data(), ngh_sum.data(), seen.data()},
                 em_opts);
    frontier = fold_round(received);
  }
  return result;
}

}  // namespace ligra::dynamic
