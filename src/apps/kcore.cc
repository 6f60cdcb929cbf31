#include "apps/kcore.h"

#include <algorithm>
#include <stdexcept>

#include "ligra/bucket.h"
#include "ligra/edge_map.h"
#include "ligra/vertex_map.h"
#include "parallel/atomics.h"
#include "parallel/primitives.h"

namespace ligra::apps {

namespace {

void require_symmetric(const graph& g, const char* who) {
  if (!g.symmetric())
    throw std::invalid_argument(std::string(who) + ": requires a symmetric graph");
}

// Atomically lowers *deg by one but never below `floor` (a neighbor being
// peeled at core k cannot push a survivor's remaining degree below k).
// Returns the new value.
vertex_id decrement_to_floor(vertex_id* deg, vertex_id floor) {
  vertex_id current = atomic_load(deg);
  while (current > floor) {
    if (compare_and_swap(deg, current, current - 1)) return current - 1;
    current = atomic_load(deg);
  }
  return current;
}

}  // namespace

kcore_result kcore(const graph& g, const std::function<void()>& poll) {
  require_symmetric(g, "kcore");
  const vertex_id n = g.num_vertices();
  kcore_result result;
  result.coreness.assign(n, 0);
  if (n == 0) return result;

  std::vector<vertex_id> degree(n);
  std::vector<uint8_t> alive(n, 1);
  parallel::parallel_for(0, n, [&](size_t v) {
    degree[v] = static_cast<vertex_id>(g.out_degree(static_cast<vertex_id>(v)));
  });

  auto get_bucket = [&](uint32_t v) -> uint64_t {
    return alive[v] ? degree[v] : kNullBucket;
  };
  auto buckets = make_buckets(n, get_bucket, /*num_open=*/128);

  // Per-round gather buffers, reused across rounds: `slice` holds each
  // peeled vertex's offset into `gathered`, `kept` how many neighbors it
  // wrote there (then, scanned, its offset into `affected`).
  std::vector<size_t> slice, kept;
  std::vector<uint32_t> gathered, affected;
  size_t finished = 0;
  while (finished < n) {
    if (poll) poll();
    auto popped = buckets.next_bucket();
    if (!popped) break;
    const vertex_id k = static_cast<vertex_id>(popped->bucket);
    const std::vector<uint32_t>& peeled = popped->ids;
    const size_t m = peeled.size();
    result.num_rounds++;
    finished += m;
    if (k > result.max_core) result.max_core = k;

    // Peel: fix coreness, mark dead, decrement live neighbors (clamped at
    // k) and collect them for re-bucketing.
    parallel::parallel_for(0, m, [&](size_t i) {
      vertex_id v = peeled[i];
      result.coreness[v] = k;
      alive[v] = 0;
    });
    // Gather affected neighbors (with duplicates; the bucket structure
    // deduplicates lazily at pop time) into one flat buffer: each peeled
    // vertex owns a slice as long as its degree and writes its surviving
    // neighbors at the slice's front; a pack then joins the slices.
    slice.resize(m);
    kept.resize(m + 1);
    parallel::parallel_for(0, m, [&](size_t i) {
      slice[i] = g.out_degree(peeled[i]);
    });
    gathered.resize(parallel::scan_add_inplace(slice));
    parallel::parallel_for(0, m, [&](size_t i) {
      uint32_t* out = gathered.data() + slice[i];
      size_t count = 0;
      for (vertex_id u : g.out_neighbors(peeled[i])) {
        if (!atomic_load(&alive[u])) continue;
        if (decrement_to_floor(&degree[u], k) >= k) out[count++] = u;
      }
      kept[i] = count;
    });
    kept[m] = 0;
    affected.resize(parallel::scan_add_inplace(kept));
    parallel::parallel_for(0, m, [&](size_t i) {
      std::copy_n(gathered.begin() + static_cast<ptrdiff_t>(slice[i]),
                  kept[i + 1] - kept[i],
                  affected.begin() + static_cast<ptrdiff_t>(kept[i]));
    });
    buckets.update_buckets(affected);
  }
  return result;
}

kcore_result kcore_rounds(const graph& g) {
  require_symmetric(g, "kcore_rounds");
  const vertex_id n = g.num_vertices();
  kcore_result result;
  result.coreness.assign(n, 0);
  if (n == 0) return result;

  std::vector<vertex_id> degree(n);
  std::vector<uint8_t> alive(n, 1);
  parallel::parallel_for(0, n, [&](size_t v) {
    degree[v] = static_cast<vertex_id>(g.out_degree(static_cast<vertex_id>(v)));
  });

  size_t remaining = n;
  vertex_id k = 0;
  while (remaining > 0) {
    // Peel all vertices with remaining degree <= k; if none, raise k.
    auto to_peel = parallel::pack_index<vertex_id>(n, [&](size_t v) {
      return alive[v] && degree[v] <= k;
    });
    result.num_rounds++;
    if (to_peel.empty()) {
      k++;
      continue;
    }
    parallel::parallel_for(0, to_peel.size(), [&](size_t i) {
      vertex_id v = to_peel[i];
      result.coreness[v] = k;
      alive[v] = 0;
    });
    remaining -= to_peel.size();
    parallel::parallel_for(
        0, to_peel.size(),
        [&](size_t i) {
          for (vertex_id u : g.out_neighbors(to_peel[i])) {
            if (atomic_load(&alive[u])) decrement_to_floor(&degree[u], k);
          }
        });
  }
  result.max_core = k;
  return result;
}

}  // namespace ligra::apps
