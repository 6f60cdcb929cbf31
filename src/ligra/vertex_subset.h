// vertex_subset — one of Ligra's two core abstractions (DESIGN.md S7).
//
// A subset U of the vertices [0, n) with two physical representations:
//   * sparse — an array of the member ids (order unspecified), good when
//     |U| << n; this is what push-style traversal consumes.
//   * bitmap — a bit per vertex packed into 64-bit words; this is what the
//     dense (pull) and dense_forward traversals consume, and what
//     word-skipping iteration (for_each, vertex_filter) exploits: a zero
//     word dismisses 64 vertices with one load.
//
// The representation converts lazily: edge_map bitmaps or sparsifies its
// input as its traversal strategy requires, and both conversions are
// parallel (pack / atomic scatter). Exactly one representation is
// materialized at a time. The member count |U| is maintained eagerly
// (popcount for bitmaps) so `size()` is O(1) — the hybrid traversal
// decision depends on it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ligra {

class vertex_subset {
 public:
  // Empty subset over universe [0, n).
  explicit vertex_subset(vertex_id n = 0);

  // Singleton {v}; sparse representation.
  vertex_subset(vertex_id n, vertex_id v);

  // From an id list (must all be < n, no duplicates — callers from edge_map
  // guarantee this; validated in debug builds).
  vertex_subset(vertex_id n, std::vector<vertex_id> ids);

  // From an id list in no particular order, possibly with duplicates —
  // e.g. the endpoints touched by an edge-update batch (src/dynamic/),
  // where both ends of many edges repeat. Sorts and dedupes; throws
  // std::invalid_argument on an out-of-range id.
  static vertex_subset from_unsorted_ids(vertex_id n,
                                         std::vector<vertex_id> ids);

  // From bitmap words; words.size() must equal num_bitmap_words(n). Bits at
  // positions >= n in the last word are cleared. |U| is computed eagerly by
  // a parallel popcount.
  static vertex_subset from_bitmap(vertex_id n, std::vector<uint64_t> words);

  // The full subset [0, n), as a bitmap (bits >= n in the last word clear).
  static vertex_subset all(vertex_id n);

  // 64-bit words needed to hold one bit per vertex of [0, n).
  static size_t num_bitmap_words(vertex_id n) {
    return (static_cast<size_t>(n) + 63) / 64;
  }

  vertex_id universe_size() const { return n_; }
  size_t size() const { return m_; }
  bool empty() const { return m_ == 0; }
  bool is_bitmap() const { return bitmap_valid_; }
  bool is_sparse() const { return !bitmap_valid_; }

  // Membership test: O(1) bitmap, O(|U|) sparse (kept for tests and
  // assertions; hot paths convert representation instead).
  bool contains(vertex_id v) const;

  // Representation conversions (no-ops when already in the target form).
  void to_sparse();
  void to_bitmap();

  // Direct access; the requested representation must be materialized
  // (call to_sparse()/to_bitmap() first). Debug-checked.
  const std::vector<vertex_id>& sparse() const;
  const std::vector<uint64_t>& bitmap() const;

  // Member ids in increasing order (always a fresh copy; for tests and
  // output, not hot paths).
  std::vector<vertex_id> to_sorted_vector() const;

  // Applies f(v) to every member in parallel. The bitmap path parallelizes
  // over words and skips zero words.
  template <class F>
  void for_each(F&& f) const {
    if (bitmap_valid_) {
      parallel::parallel_for(0, bitmap_.size(), [&](size_t wi) {
        uint64_t word = bitmap_[wi];
        while (word != 0) {
          const int b = std::countr_zero(word);
          word &= word - 1;
          f(static_cast<vertex_id>(wi * 64 + static_cast<size_t>(b)));
        }
      });
    } else {
      parallel::parallel_for(0, sparse_.size(),
                             [&](size_t i) { f(sparse_[i]); });
    }
  }

  // Sum of out-degrees of the members — the quantity the hybrid edge_map
  // threshold compares against (paper: |U| + outdeg(U) > m / 20).
  template <class G>
  edge_id out_degree_sum(const G& g) const {
    if (bitmap_valid_) {
      return parallel::reduce_add(bitmap_.size(), [&](size_t wi) -> edge_id {
        uint64_t word = bitmap_[wi];
        edge_id sum = 0;
        while (word != 0) {
          const int b = std::countr_zero(word);
          word &= word - 1;
          sum += g.out_degree(
              static_cast<vertex_id>(wi * 64 + static_cast<size_t>(b)));
        }
        return sum;
      });
    }
    return parallel::reduce_add(sparse_.size(), [&](size_t i) -> edge_id {
      return g.out_degree(sparse_[i]);
    });
  }

 private:
  vertex_id n_ = 0;
  size_t m_ = 0;  // |U|
  bool bitmap_valid_ = false;
  std::vector<vertex_id> sparse_;   // valid iff !bitmap_valid_
  std::vector<uint64_t> bitmap_;    // valid iff bitmap_valid_
};

}  // namespace ligra
