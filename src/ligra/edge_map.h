// edge_map — Ligra's central operation (paper §3, DESIGN.md S8).
//
//   edge_map(G, U, F) applies F to the out-edges (u, v) of the frontier U
//   whose targets satisfy F.cond(v), and returns the subset of targets for
//   which F's update returned true.
//
// Three traversal strategies, selected automatically by the paper's
// threshold |U| + outdeg(U) > m / 20:
//
//   * sparse ("push", edgeMapSparse): iterate the out-edges of frontier
//     members; updates race on targets, so F::update_atomic is used.
//     Work O(|U| + outdeg(U)). The kernel is *edge-balanced and blocked*
//     (Dhulipala-Blelloch-Shun style): the frontier's edge range is cut
//     into kEdgeBlockSize-edge blocks located by binary search into the
//     degree prefix-sum array, one scheduler task per block, survivors
//     written to a per-block local buffer and compacted with one scan +
//     scatter. A skewed frontier (one hub + thousands of leaves) therefore
//     splits the hub across blocks instead of serializing on it, and no
//     outdeg(U)-sized sentinel array is ever allocated or re-scanned.
//   * dense ("pull", edgeMapDense): for every vertex v with cond(v),
//     scan v's in-edges for frontier members; only one thread touches v, so
//     the plain F::update runs and the scan breaks as soon as cond(v)
//     flips false (the early exit that makes BFS bottom-up cheap).
//     Work O(n + m) worst case but with no atomics and early exit. The
//     frontier is consumed as a Beamer-style bitmap (1 bit per vertex).
//   * dense_forward (edgeMapDenseForward): push over the out-edges of a
//     dense frontier — avoids the sparse output compaction at large
//     frontiers but needs atomics and has no early exit. Iterates the
//     frontier bitmap word-by-word, dismissing 64 absent vertices per zero
//     word. Offered as an explicit mode and exercised by ablation A1.
//
// Scratch reuse: every round needs a degree prefix array, block buffers,
// and (with remove_duplicates) a winner array. These live in an
// edge_map_scratch that is reused across rounds — via opts.scratch, an
// installed edge_map_scratch_scope (how the query executor gives each
// dispatcher its own), or a per-call local as a fallback. In steady state
// (scratch capacity warmed up by the largest round) edge_map performs no
// heap allocation beyond the returned frontier itself. The degree prefix
// is computed once per round and shared between the m/20 threshold
// decision and the sparse kernel's block layout.
//
// The update functor F provides:
//     bool update(vertex_id u, vertex_id v [, W w])         // non-racing
//     bool update_atomic(vertex_id u, vertex_id v [, W w])  // racing
//     bool cond(vertex_id v)
// The weight parameter is optional — unweighted algorithms keep the paper's
// two-argument signature; detection is by overload resolution.
//
// edge_map is generic over any graph type G exposing
//     num_vertices(), num_edges(), out_degree(v),
//     decode_out(v, f), decode_in(v, f), weight_type
// — satisfied by graph_t<W> and by compress::compressed_graph (Ligra+).
// Graphs additionally exposing decode_out_range(v, jlo, jhi, f) (the CSR
// types) get O(block) work per block even when a hub straddles many
// blocks; others fall back to a skip-decode.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "ligra/vertex_subset.h"
#include "obs/trace.h"
#include "parallel/atomics.h"
#include "parallel/primitives.h"
#include "util/timer.h"

namespace ligra {

// Which traversal edge_map used / should use.
enum class traversal : uint8_t { automatic, sparse, dense, dense_forward };

// Human-readable traversal name (benches, traces).
inline const char* traversal_name(traversal t) {
  switch (t) {
    case traversal::automatic: return "auto";
    case traversal::sparse: return "sparse";
    case traversal::dense: return "dense";
    case traversal::dense_forward: return "dense-fwd";
  }
  return "?";
}

// Edges per block of the blocked sparse kernel. Large enough that per-block
// scheduling and compaction overheads vanish against the edge work, small
// enough that one hub vertex fans out across many tasks.
inline constexpr size_t kEdgeBlockSize = 4096;

// Sentinel "no edge index" value (winner slot unclaimed).
inline constexpr edge_id kNoEdge = std::numeric_limits<edge_id>::max();

// Per-call statistics, filled when edge_map_options::stats is set. The
// frontier-trace experiment (F1) records one entry per BFS iteration.
struct edge_map_stats {
  size_t frontier_size = 0;    // |U|
  edge_id frontier_edges = 0;  // outdeg(U)
  traversal used = traversal::automatic;
  size_t blocks = 0;           // edge blocks processed (sparse only)
  size_t scratch_bytes = 0;    // capacity of the scratch used this call
};

// Reusable per-round working memory. One scratch serves one edge_map call
// at a time; reusing it across rounds makes steady-state traversal
// allocation-free (buffers only ever grow, so their data pointers are
// stable once the largest round has been seen — asserted by the
// scratch-reuse test). Ownership options, in resolution order:
//   1. edge_map_options::scratch (apps that run multi-round loops),
//   2. an installed edge_map_scratch_scope (the query executor installs
//      one per dispatcher around each query body),
//   3. a per-call local (correct, but allocates every round).
struct edge_map_scratch {
  // Exclusive degree prefix of the current sparse frontier (k+1 entries);
  // offsets[k] = outdeg(U). Shared between the traversal decision and the
  // sparse kernel's block layout.
  std::vector<edge_id> offsets;
  // Per-block survivor counts (nblocks+1; scanned in place into offsets).
  std::vector<edge_id> block_counts;
  // Per-block survivor buffers, kEdgeBlockSize apart.
  std::vector<vertex_id> block_buffer;
  // remove_duplicates winner array, kNoEdge-filled, one entry per vertex.
  // After each round only the touched entries (= the round's output ids)
  // are reset, so the O(n) fill happens once per scratch lifetime.
  std::vector<edge_id> winner;

  void ensure_winner(size_t n) {
    if (winner.size() < n) winner.assign(n, kNoEdge);
  }

  size_t bytes() const {
    return offsets.capacity() * sizeof(edge_id) +
           block_counts.capacity() * sizeof(edge_id) +
           block_buffer.capacity() * sizeof(vertex_id) +
           winner.capacity() * sizeof(edge_id);
  }
};

namespace detail {
// Thread-local scratch installation (same delivery pattern as obs::trace:
// whoever owns the scratch installs it on the thread that runs the rounds;
// edge_map pays one TLS load per round when resolving).
inline thread_local edge_map_scratch* tl_scratch = nullptr;
}  // namespace detail

// The scratch installed on this thread, or nullptr.
inline edge_map_scratch* current_edge_map_scratch() {
  return detail::tl_scratch;
}

// Installs `s` as the current scratch for this scope (nullptr suspends).
// Restores the previous scratch on destruction, so scopes nest — an inner
// scope's rounds never see a half-used outer scratch.
class edge_map_scratch_scope {
 public:
  explicit edge_map_scratch_scope(edge_map_scratch* s)
      : prev_(detail::tl_scratch) {
    detail::tl_scratch = s;
  }
  ~edge_map_scratch_scope() { detail::tl_scratch = prev_; }
  edge_map_scratch_scope(const edge_map_scratch_scope&) = delete;
  edge_map_scratch_scope& operator=(const edge_map_scratch_scope&) = delete;

 private:
  edge_map_scratch* prev_;
};

struct edge_map_options {
  traversal strategy = traversal::automatic;
  // Dense when |U| + outdeg(U) > m / threshold_denominator (paper: 20).
  uint64_t threshold_denominator = 20;
  // When `automatic` picks a dense traversal, use dense_forward instead of
  // the pull-based dense (Ligra's per-graph option).
  bool prefer_dense_forward = false;
  // Deduplicate the sparse output (needed when update_atomic may return
  // true more than once per target). Uses the scratch-resident winner
  // array; only touched entries are reset per round.
  bool remove_duplicates = false;
  // When false, edge_map skips building the output subset (Ligra's
  // edgeMap with no output — e.g. PageRank, which writes into dense
  // arrays and never looks at the returned frontier).
  bool produce_output = true;
  // Round-scratch override; see edge_map_scratch for resolution order.
  edge_map_scratch* scratch = nullptr;
  edge_map_stats* stats = nullptr;
};

namespace detail {

template <class F, class W>
bool call_update(F& f, vertex_id u, vertex_id v, W w) {
  if constexpr (requires(F& g) { g.update(u, v, w); }) {
    return f.update(u, v, w);
  } else {
    (void)w;
    return f.update(u, v);
  }
}

template <class F, class W>
bool call_update_atomic(F& f, vertex_id u, vertex_id v, W w) {
  if constexpr (requires(F& g) { g.update_atomic(u, v, w); }) {
    return f.update_atomic(u, v, w);
  } else {
    (void)w;
    return f.update_atomic(u, v);
  }
}

// decode_out restricted to edge indices [jlo, jhi): direct indexing when
// the graph supports it (CSR), skip-decode otherwise (compressed CSR).
template <class W, class G, class F>
void decode_out_range(const G& g, vertex_id u, size_t jlo, size_t jhi,
                      F&& f) {
  if constexpr (requires { g.decode_out_range(u, jlo, jhi, f); }) {
    g.decode_out_range(u, jlo, jhi, f);
  } else {
    g.decode_out(u, [&](vertex_id v, W w, size_t j) {
      if (j < jlo) return true;
      if (j >= jhi) return false;
      return f(v, w, j);
    });
  }
}

// Builds the exclusive degree prefix of `ids` into scr.offsets (k+1
// entries); returns outdeg(U) = offsets[k]. Computed once per round and
// shared between the m/20 threshold and the sparse kernel.
template <class G>
edge_id build_degree_prefix(const G& g, const std::vector<vertex_id>& ids,
                            edge_map_scratch& scr) {
  const size_t k = ids.size();
  scr.offsets.resize(k + 1);
  parallel::parallel_for(0, k, [&](size_t i) {
    scr.offsets[i] = g.out_degree(ids[i]);
  });
  scr.offsets[k] = 0;
  return parallel::scan_add_inplace(scr.offsets.data(), k + 1);
}

// Edge-balanced blocked sparse (push) traversal. Precondition: scr.offsets
// holds the frontier's degree prefix (build_degree_prefix). Each block of
// kEdgeBlockSize consecutive edges is one scheduler task: it locates its
// first vertex by binary search into the prefix, applies F to its edge
// slice, and appends survivors to its private buffer; one scan + scatter
// compacts the buffers into the output.
template <class G, class F>
vertex_subset edge_map_sparse_blocked(const G& g,
                                      const std::vector<vertex_id>& frontier,
                                      F& f, const edge_map_options& opts,
                                      edge_map_scratch& scr,
                                      size_t& blocks_used) {
  using W = typename G::weight_type;
  const size_t k = frontier.size();
  const vertex_id n = g.num_vertices();
  const edge_id total = scr.offsets[k];
  const size_t nblocks =
      static_cast<size_t>((total + kEdgeBlockSize - 1) / kEdgeBlockSize);
  blocks_used = nblocks;
  if (nblocks == 0) return vertex_subset(n);
  const bool produce = opts.produce_output;
  const bool dedup = produce && opts.remove_duplicates;
  if (dedup) scr.ensure_winner(n);
  if (produce) {
    scr.block_counts.resize(nblocks + 1);
    scr.block_buffer.resize(nblocks * kEdgeBlockSize);
  }
  const edge_id* offsets = scr.offsets.data();
  parallel::parallel_for(
      0, nblocks,
      [&](size_t b) {
        const edge_id lo = static_cast<edge_id>(b) * kEdgeBlockSize;
        const edge_id hi = std::min<edge_id>(lo + kEdgeBlockSize, total);
        // First vertex whose edge range contains lo (zero-degree runs in
        // the prefix are skipped by choosing the *last* index <= lo).
        size_t i = parallel::binary_search_leq(offsets, k + 1, lo);
        vertex_id* buf =
            produce ? scr.block_buffer.data() + b * kEdgeBlockSize : nullptr;
        size_t cnt = 0;
        edge_id pos = lo;
        while (pos < hi) {
          while (offsets[i + 1] <= pos) i++;  // advance past exhausted ranges
          const vertex_id u = frontier[i];
          const size_t jlo = static_cast<size_t>(pos - offsets[i]);
          const size_t jhi = static_cast<size_t>(
              std::min<edge_id>(offsets[i + 1], hi) - offsets[i]);
          decode_out_range<W>(g, u, jlo, jhi,
                              [&](vertex_id v, W w, size_t) {
                                if (f.cond(v) &&
                                    call_update_atomic(f, u, v, w)) {
                                  if (produce &&
                                      (!dedup ||
                                       compare_and_swap(&scr.winner[v], kNoEdge,
                                                        pos)))
                                    buf[cnt++] = v;
                                }
                                return true;
                              });
          pos = offsets[i] + jhi;
        }
        if (produce) scr.block_counts[b] = static_cast<edge_id>(cnt);
      },
      1);
  if (!produce) return vertex_subset(n);
  scr.block_counts[nblocks] = 0;
  const edge_id out_total =
      parallel::scan_add_inplace(scr.block_counts.data(), nblocks + 1);
  std::vector<vertex_id> out(out_total);
  parallel::scatter_blocks(scr.block_buffer.data(), kEdgeBlockSize,
                           scr.block_counts.data(), nblocks, out.data());
  if (dedup) {
    // Winners are exactly the output ids: reset only those entries.
    parallel::parallel_for(0, out.size(),
                           [&](size_t s) { scr.winner[out[s]] = kNoEdge; });
  }
  return vertex_subset(n, std::move(out));
}

// Dense (pull) traversal: scan in-edges of every vertex passing cond. The
// frontier is a bitmap — one bit load per in-edge candidate instead of a
// byte — and the output is written bit-wise (atomic OR; distinct targets
// sharing a word may race).
template <class G, class F>
vertex_subset edge_map_dense(const G& g, const std::vector<uint64_t>& frontier,
                             F& f, const edge_map_options& opts) {
  using W = typename G::weight_type;
  const vertex_id n = g.num_vertices();
  std::vector<uint64_t> next;
  if (opts.produce_output) next.assign(vertex_subset::num_bitmap_words(n), 0);
  parallel::parallel_for(0, n, [&](size_t vi) {
    auto v = static_cast<vertex_id>(vi);
    if (!f.cond(v)) return;
    g.decode_in(v, [&](vertex_id u, W w, size_t) {
      if (((frontier[u >> 6] >> (u & 63)) & 1) && call_update(f, u, v, w)) {
        if (opts.produce_output)
          write_or(&next[vi >> 6], uint64_t{1} << (vi & 63));
      }
      return f.cond(v);  // early exit: stop once v's state is settled
    });
  });
  if (!opts.produce_output) return vertex_subset(n);
  return vertex_subset::from_bitmap(n, std::move(next));
}

// Dense-forward traversal: push over out-edges of a dense frontier,
// iterated word-by-word over the bitmap — a zero word dismisses 64
// vertices with a single load.
template <class G, class F>
vertex_subset edge_map_dense_forward(const G& g,
                                     const std::vector<uint64_t>& frontier,
                                     F& f, const edge_map_options& opts) {
  using W = typename G::weight_type;
  const vertex_id n = g.num_vertices();
  const size_t nwords = vertex_subset::num_bitmap_words(n);
  std::vector<uint64_t> next;
  if (opts.produce_output) next.assign(nwords, 0);
  parallel::parallel_for(0, nwords, [&](size_t wi) {
    uint64_t word = frontier[wi];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      const auto u = static_cast<vertex_id>(wi * 64 + static_cast<size_t>(b));
      g.decode_out(u, [&](vertex_id v, W w, size_t) {
        if (f.cond(v) && call_update_atomic(f, u, v, w)) {
          // Racing ORs of the same bit are fine via atomic fetch_or.
          if (opts.produce_output)
            write_or(&next[v >> 6], uint64_t{1} << (v & 63));
        }
        return true;
      });
    }
  });
  if (!opts.produce_output) return vertex_subset(n);
  return vertex_subset::from_bitmap(n, std::move(next));
}

}  // namespace detail

// Applies F over the out-edges of `frontier` and returns the new frontier.
// `frontier` is taken by mutable reference because the chosen traversal may
// convert its physical representation (sparse<->bitmap) in place;
// membership is never changed.
template <class G, class F>
vertex_subset edge_map(const G& g, vertex_subset& frontier, F f,
                       const edge_map_options& opts = {}) {
  if (frontier.universe_size() != g.num_vertices())
    throw std::invalid_argument("edge_map: frontier universe != graph size");
  // Per-query traversal tracing (docs/OBSERVABILITY.md): when a trace is
  // installed on this thread, every edge_map call appends one round event.
  // Disabled cost: the thread-local load below and a few never-taken
  // branches per round — never per edge.
  obs::query_trace* trace = obs::current_trace();
  // Scratch resolution: explicit option, then the thread's installed
  // scratch, then a per-call local (allocates; the first two do not).
  edge_map_scratch local_scratch;
  edge_map_scratch* scr = opts.scratch != nullptr ? opts.scratch
                          : detail::tl_scratch != nullptr ? detail::tl_scratch
                                                          : &local_scratch;
  traversal mode = opts.strategy;
  const uint64_t threshold =
      g.num_edges() / std::max<uint64_t>(1, opts.threshold_denominator);
  edge_id out_degrees = 0;
  bool have_prefix = false;
  const bool want_degrees = mode == traversal::automatic ||
                            opts.stats != nullptr || trace != nullptr;
  // A sparse frontier's degree prefix doubles as the sparse kernel's block
  // layout — compute it once here whenever the sparse kernel might run,
  // instead of an out_degree_sum for the threshold plus a recomputation
  // inside the kernel.
  const bool sparse_possible =
      mode == traversal::sparse || mode == traversal::automatic;
  if (frontier.is_sparse() && sparse_possible) {
    out_degrees = detail::build_degree_prefix(g, frontier.sparse(), *scr);
    have_prefix = true;
  } else if (want_degrees) {
    out_degrees = frontier.out_degree_sum(g);
  }
  if (mode == traversal::automatic) {
    bool dense = frontier.size() + out_degrees > threshold;
    mode = dense ? (opts.prefer_dense_forward ? traversal::dense_forward
                                              : traversal::dense)
                 : traversal::sparse;
  }
  if (opts.stats != nullptr) {
    opts.stats->frontier_size = frontier.size();
    opts.stats->frontier_edges = out_degrees;
    opts.stats->used = mode;
  }
  const size_t frontier_size = frontier.size();
  size_t blocks_used = 0;
  monotonic_time t0{};
  if (trace != nullptr) t0 = mono_now();
  auto run = [&]() -> vertex_subset {
    switch (mode) {
      case traversal::sparse: {
        frontier.to_sparse();
        // A frontier that arrived as a bitmap has no prefix yet.
        if (!have_prefix)
          detail::build_degree_prefix(g, frontier.sparse(), *scr);
        return detail::edge_map_sparse_blocked(g, frontier.sparse(), f, opts,
                                               *scr, blocks_used);
      }
      case traversal::dense:
        frontier.to_bitmap();
        return detail::edge_map_dense(g, frontier.bitmap(), f, opts);
      case traversal::dense_forward:
        frontier.to_bitmap();
        return detail::edge_map_dense_forward(g, frontier.bitmap(), f, opts);
      case traversal::automatic:
        break;
    }
    throw std::logic_error("edge_map: unreachable");
  };
  vertex_subset out = run();
  if (opts.stats != nullptr) {
    opts.stats->blocks = blocks_used;
    opts.stats->scratch_bytes = scr->bytes();
  }
  if (trace != nullptr) {
    trace->add_round(traversal_name(mode), frontier_size, out_degrees,
                     threshold, micros_since(t0), blocks_used, scr->bytes());
  }
  return out;
}

// Ligra's "edgeMap with no output": applies updates but skips constructing
// the result subset.
template <class G, class F>
void edge_map_no_output(const G& g, vertex_subset& frontier, F f,
                        edge_map_options opts = {}) {
  opts.produce_output = false;
  edge_map(g, frontier, std::move(f), opts);
}

// Reduction over the out-edges of the frontier: returns
//   identity ⊕ f(u, v, w) for every edge (u, v) with u in `frontier`.
// A read-only companion to edge_map for analytics that aggregate over a
// frontier's edges (e.g. counting cut edges, summing weights) without
// mutating vertex state. `op` must be associative and commutative — edge
// visit order is unspecified.
template <class G, class T, class F, class Op>
T edge_map_reduce(const G& g, const vertex_subset& frontier, F&& f,
                  T identity, Op&& op) {
  using W = typename G::weight_type;
  if (frontier.universe_size() != g.num_vertices())
    throw std::invalid_argument(
        "edge_map_reduce: frontier universe != graph size");
  auto per_vertex = [&](vertex_id u) {
    T acc = identity;
    g.decode_out(u, [&](vertex_id v, W w, size_t) {
      acc = op(acc, f(u, v, w));
      return true;
    });
    return acc;
  };
  if (frontier.is_bitmap()) {
    const auto& words = frontier.bitmap();
    return parallel::reduce(
        words.size(),
        [&](size_t wi) {
          T acc = identity;
          uint64_t word = words[wi];
          while (word != 0) {
            const int b = std::countr_zero(word);
            word &= word - 1;
            acc = op(acc, per_vertex(static_cast<vertex_id>(
                              wi * 64 + static_cast<size_t>(b))));
          }
          return acc;
        },
        identity, op);
  }
  const auto& ids = frontier.sparse();
  return parallel::reduce(
      ids.size(), [&](size_t i) { return per_vertex(ids[i]); }, identity, op);
}

// Counts frontier out-edges satisfying `pred(u, v, w)`.
template <class G, class Pred>
edge_id edge_map_count(const G& g, const vertex_subset& frontier,
                       Pred&& pred) {
  using W = typename G::weight_type;
  return edge_map_reduce(
      g, frontier,
      [&](vertex_id u, vertex_id v, W w) -> edge_id {
        return pred(u, v, w) ? 1 : 0;
      },
      edge_id{0}, [](edge_id a, edge_id b) { return a + b; });
}

}  // namespace ligra
