#include "ligra/vertex_subset.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "parallel/atomics.h"
#include "parallel/primitives.h"

namespace ligra {

vertex_subset::vertex_subset(vertex_id n) : n_(n), m_(0) {}

vertex_subset::vertex_subset(vertex_id n, vertex_id v) : n_(n), m_(1) {
  if (v >= n) throw std::invalid_argument("vertex_subset: vertex out of range");
  sparse_.push_back(v);
}

vertex_subset::vertex_subset(vertex_id n, std::vector<vertex_id> ids)
    : n_(n), m_(ids.size()), sparse_(std::move(ids)) {
#ifndef NDEBUG
  std::vector<uint8_t> seen(n, 0);
  for (vertex_id v : sparse_) {
    assert(v < n && "vertex_subset: vertex out of range");
    assert(!seen[v] && "vertex_subset: duplicate vertex");
    seen[v] = 1;
  }
#endif
}

vertex_subset vertex_subset::from_unsorted_ids(vertex_id n,
                                               std::vector<vertex_id> ids) {
  for (vertex_id v : ids) {
    if (v >= n)
      throw std::invalid_argument(
          "vertex_subset::from_unsorted_ids: vertex out of range");
  }
  parallel::sort_inplace(ids);
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return vertex_subset(n, std::move(ids));
}

vertex_subset vertex_subset::from_bitmap(vertex_id n,
                                         std::vector<uint64_t> words) {
  if (words.size() != num_bitmap_words(n))
    throw std::invalid_argument("vertex_subset::from_bitmap: words size");
  if (n % 64 != 0 && !words.empty())
    words.back() &= (uint64_t{1} << (n % 64)) - 1;  // clear tail bits >= n
  vertex_subset vs(n);
  vs.bitmap_ = std::move(words);
  vs.bitmap_valid_ = true;
  vs.m_ = parallel::reduce_add(vs.bitmap_.size(), [&](size_t w) -> size_t {
    return static_cast<size_t>(std::popcount(vs.bitmap_[w]));
  });
  return vs;
}

vertex_subset vertex_subset::all(vertex_id n) {
  return from_bitmap(
      n, std::vector<uint64_t>(num_bitmap_words(n), ~uint64_t{0}));
}

bool vertex_subset::contains(vertex_id v) const {
  assert(v < n_);
  if (bitmap_valid_) return (bitmap_[v >> 6] >> (v & 63)) & 1;
  for (vertex_id u : sparse_)
    if (u == v) return true;
  return false;
}

void vertex_subset::to_sparse() {
  if (!bitmap_valid_) return;
  sparse_ = parallel::pack_index<vertex_id>(
      n_, [&](size_t v) { return (bitmap_[v >> 6] >> (v & 63)) & 1; });
  bitmap_valid_ = false;
  bitmap_.clear();
  bitmap_.shrink_to_fit();
}

void vertex_subset::to_bitmap() {
  if (bitmap_valid_) return;
  // Two members may share a word, so set bits atomically.
  bitmap_.assign(num_bitmap_words(n_), 0);
  parallel::parallel_for(0, sparse_.size(), [&](size_t i) {
    const vertex_id v = sparse_[i];
    write_or(&bitmap_[v >> 6], uint64_t{1} << (v & 63));
  });
  sparse_.clear();
  sparse_.shrink_to_fit();
  bitmap_valid_ = true;
}

const std::vector<vertex_id>& vertex_subset::sparse() const {
  assert(!bitmap_valid_ && "vertex_subset: call to_sparse() first");
  return sparse_;
}

const std::vector<uint64_t>& vertex_subset::bitmap() const {
  assert(bitmap_valid_ && "vertex_subset: call to_bitmap() first");
  return bitmap_;
}

std::vector<vertex_id> vertex_subset::to_sorted_vector() const {
  if (bitmap_valid_) {
    return parallel::pack_index<vertex_id>(
        n_, [&](size_t v) { return (bitmap_[v >> 6] >> (v & 63)) & 1; });
  }
  std::vector<vertex_id> ids = sparse_;
  parallel::sort_inplace(ids);
  return ids;
}

}  // namespace ligra
