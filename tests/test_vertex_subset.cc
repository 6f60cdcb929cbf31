// Tests for vertex_subset (DESIGN.md S7): construction, sparse<->bitmap
// conversion fidelity, membership, iteration, and degree sums.
#include "ligra/vertex_subset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "graph/generators.h"
#include "util/rng.h"

using namespace ligra;

TEST(VertexSubset, EmptySubset) {
  vertex_subset vs(10);
  EXPECT_EQ(vs.universe_size(), 10u);
  EXPECT_EQ(vs.size(), 0u);
  EXPECT_TRUE(vs.empty());
  EXPECT_FALSE(vs.contains(3));
}

TEST(VertexSubset, Singleton) {
  vertex_subset vs(10, vertex_id{7});
  EXPECT_EQ(vs.size(), 1u);
  EXPECT_TRUE(vs.contains(7));
  EXPECT_FALSE(vs.contains(6));
  EXPECT_THROW(vertex_subset(10, vertex_id{10}), std::invalid_argument);
}

TEST(VertexSubset, FromIdList) {
  vertex_subset vs(10, std::vector<vertex_id>{2, 5, 9});
  EXPECT_EQ(vs.size(), 3u);
  EXPECT_TRUE(vs.is_sparse());
  EXPECT_TRUE(vs.contains(2));
  EXPECT_TRUE(vs.contains(9));
  EXPECT_FALSE(vs.contains(0));
}

TEST(VertexSubset, FromBitmap) {
  std::vector<uint64_t> words = {0b11001};  // members 0, 3, 4
  auto vs = vertex_subset::from_bitmap(5, words);
  EXPECT_EQ(vs.size(), 3u);
  EXPECT_TRUE(vs.is_bitmap());
  EXPECT_TRUE(vs.contains(0));
  EXPECT_FALSE(vs.contains(1));
  EXPECT_THROW(vertex_subset::from_bitmap(65, words), std::invalid_argument);
}

TEST(VertexSubset, AllSubset) {
  auto vs = vertex_subset::all(6);
  EXPECT_EQ(vs.size(), 6u);
  for (vertex_id v = 0; v < 6; v++) EXPECT_TRUE(vs.contains(v));
}

TEST(VertexSubset, AllIsAMaskedBitmap) {
  for (vertex_id n : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    SCOPED_TRACE(n);
    auto vs = vertex_subset::all(n);
    ASSERT_TRUE(vs.is_bitmap());
    ASSERT_EQ(vs.size(), static_cast<size_t>(n));
    // No bit at or above n: the tail word is masked.
    if (n % 64 != 0) {
      ASSERT_EQ(vs.bitmap().back() >> (n % 64), 0u);
    }

    std::vector<vertex_id> expect(n);
    for (vertex_id v = 0; v < n; v++) expect[v] = v;
    EXPECT_EQ(vs.to_sorted_vector(), expect);

    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> out_of_range{0};
    vs.for_each([&](vertex_id v) {
      if (v < n)
        hits[v].fetch_add(1);
      else
        out_of_range.fetch_add(1);
    });
    ASSERT_EQ(out_of_range.load(), 0);
    for (vertex_id v = 0; v < n; v++) ASSERT_EQ(hits[v].load(), 1) << v;

    auto g = gen::random_graph(n, 4, 17);
    ASSERT_EQ(g.num_vertices(), n);
    EXPECT_EQ(vs.out_degree_sum(g), g.num_edges());
  }
}

TEST(VertexSubset, SparseToDenseAndBack) {
  vertex_subset vs(100, std::vector<vertex_id>{10, 20, 30});
  vs.to_bitmap();
  EXPECT_TRUE(vs.is_bitmap());
  EXPECT_EQ(vs.size(), 3u);
  EXPECT_TRUE(vs.contains(20));
  vs.to_sparse();
  EXPECT_TRUE(vs.is_sparse());
  EXPECT_EQ(vs.size(), 3u);
  auto ids = vs.to_sorted_vector();
  EXPECT_EQ(ids, (std::vector<vertex_id>{10, 20, 30}));
}

TEST(VertexSubset, ConversionsAreIdempotent) {
  vertex_subset vs(50, std::vector<vertex_id>{1, 2, 3});
  vs.to_sparse();  // already sparse: no-op
  EXPECT_EQ(vs.size(), 3u);
  vs.to_bitmap();
  vs.to_bitmap();  // already a bitmap: no-op
  EXPECT_EQ(vs.size(), 3u);
}

TEST(VertexSubset, ForEachVisitsExactlyMembers) {
  const vertex_id n = 1000;
  std::vector<vertex_id> ids;
  for (vertex_id v = 0; v < n; v += 7) ids.push_back(v);
  vertex_subset vs(n, ids);

  for (int pass = 0; pass < 2; pass++) {
    std::vector<std::atomic<int>> hits(n);
    vs.for_each([&](vertex_id v) { hits[v].fetch_add(1); });
    for (vertex_id v = 0; v < n; v++) {
      ASSERT_EQ(hits[v].load(), v % 7 == 0 ? 1 : 0) << "vertex " << v;
    }
    vs.to_bitmap();  // second pass exercises the bitmap path
  }
}

TEST(VertexSubset, ToSortedVectorFromUnsortedSparse) {
  vertex_subset vs(10, std::vector<vertex_id>{9, 1, 5});
  EXPECT_EQ(vs.to_sorted_vector(), (std::vector<vertex_id>{1, 5, 9}));
}

TEST(VertexSubset, OutDegreeSumMatchesManualSum) {
  auto g = gen::rmat_graph(10, 1 << 12, 3);
  std::vector<vertex_id> ids = {0, 5, 100, 500};
  vertex_subset vs(g.num_vertices(), ids);
  edge_id expect = 0;
  for (vertex_id v : ids) expect += g.out_degree(v);
  EXPECT_EQ(vs.out_degree_sum(g), expect);
  vs.to_bitmap();
  EXPECT_EQ(vs.out_degree_sum(g), expect);
}

TEST(VertexSubset, LargeRandomConversionFidelity) {
  const vertex_id n = 100000;
  std::vector<uint64_t> words(vertex_subset::num_bitmap_words(n), 0);
  for (vertex_id v = 0; v < n; v++)
    if (hash64(v) % 5 == 0) words[v >> 6] |= uint64_t{1} << (v & 63);
  auto vs = vertex_subset::from_bitmap(n, words);
  size_t m = vs.size();
  vs.to_sparse();
  EXPECT_EQ(vs.size(), m);
  vs.to_bitmap();
  EXPECT_EQ(vs.size(), m);
  EXPECT_EQ(vs.bitmap(), words);
}

TEST(VertexSubset, EmptyUniverse) {
  vertex_subset vs(0);
  EXPECT_TRUE(vs.empty());
  vs.to_bitmap();
  vs.to_sparse();
  EXPECT_EQ(vs.size(), 0u);
}
