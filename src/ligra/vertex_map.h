// vertex_map / vertex_filter — Ligra's per-vertex operations (paper §3).
//
//   vertex_map(U, F)    applies F(v) to every v in U, in parallel.
//   vertex_filter(U, F) additionally returns { v in U : F(v) }.
//
// F must be safe to call concurrently for distinct vertices (each member is
// visited exactly once, so no atomicity is needed for per-vertex state).
#pragma once

#include <bit>

#include "ligra/vertex_subset.h"
#include "parallel/primitives.h"

namespace ligra {

template <class F>
void vertex_map(const vertex_subset& subset, F&& f) {
  subset.for_each([&](vertex_id v) { f(v); });
}

// Returns the members of `subset` for which f(v) is true. The result keeps
// the input's physical representation (sparse stays sparse, bitmap stays
// bitmap) to avoid gratuitous conversions mid-algorithm.
template <class F>
vertex_subset vertex_filter(const vertex_subset& subset, F&& f) {
  const vertex_id n = subset.universe_size();
  if (subset.is_bitmap()) {
    // One thread per word (no races on the output word); zero words are
    // dismissed with a single load.
    const auto& words = subset.bitmap();
    std::vector<uint64_t> out(words.size(), 0);
    parallel::parallel_for(0, words.size(), [&](size_t wi) {
      uint64_t word = words[wi];
      uint64_t keep = 0;
      while (word != 0) {
        const int b = std::countr_zero(word);
        word &= word - 1;
        const auto v =
            static_cast<vertex_id>(wi * 64 + static_cast<size_t>(b));
        if (f(v)) keep |= uint64_t{1} << b;
      }
      out[wi] = keep;
    });
    return vertex_subset::from_bitmap(n, std::move(out));
  }
  const auto& ids = subset.sparse();
  auto out = parallel::pack(
      ids.size(), [&](size_t i) { return ids[i]; },
      [&](size_t i) { return static_cast<bool>(f(ids[i])); });
  return vertex_subset(n, std::move(out));
}

}  // namespace ligra
