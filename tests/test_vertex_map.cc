// Tests for vertex_map / vertex_filter (paper §3).
#include "ligra/vertex_map.h"

#include <gtest/gtest.h>

#include <atomic>

#include "graph/generators.h"

using namespace ligra;

TEST(VertexMap, AppliesToEveryMemberExactlyOnce) {
  const vertex_id n = 10000;
  std::vector<vertex_id> ids;
  for (vertex_id v = 0; v < n; v += 3) ids.push_back(v);
  vertex_subset vs(n, ids);
  std::vector<std::atomic<int>> hits(n);
  vertex_map(vs, [&](vertex_id v) { hits[v].fetch_add(1); });
  for (vertex_id v = 0; v < n; v++)
    ASSERT_EQ(hits[v].load(), v % 3 == 0 ? 1 : 0);
}

TEST(VertexMap, WorksOnDenseRepresentation) {
  auto vs = vertex_subset::all(1000);
  std::atomic<uint64_t> sum{0};
  vertex_map(vs, [&](vertex_id v) {
    sum.fetch_add(v, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), uint64_t{1000} * 999 / 2);
}

TEST(VertexMap, EmptySubsetNoCalls) {
  vertex_subset vs(100);
  bool called = false;
  vertex_map(vs, [&](vertex_id) { called = true; });
  EXPECT_FALSE(called);
}

TEST(VertexFilter, SparseKeepsMatching) {
  vertex_subset vs(100, std::vector<vertex_id>{1, 2, 3, 4, 5, 6});
  auto evens = vertex_filter(vs, [](vertex_id v) { return v % 2 == 0; });
  EXPECT_EQ(evens.to_sorted_vector(), (std::vector<vertex_id>{2, 4, 6}));
  EXPECT_TRUE(evens.is_sparse());  // representation preserved
}

TEST(VertexFilter, DenseKeepsMatching) {
  auto vs = vertex_subset::all(10);
  auto odds = vertex_filter(vs, [](vertex_id v) { return v % 2 == 1; });
  EXPECT_TRUE(odds.is_bitmap());
  EXPECT_EQ(odds.size(), 5u);
  EXPECT_TRUE(odds.contains(3));
  EXPECT_FALSE(odds.contains(4));
}

TEST(VertexFilter, FilterOfFilterComposes) {
  auto vs = vertex_subset::all(100);
  auto div3 = vertex_filter(vs, [](vertex_id v) { return v % 3 == 0; });
  auto div15 = vertex_filter(div3, [](vertex_id v) { return v % 5 == 0; });
  EXPECT_EQ(div15.size(), 7u);  // 0,15,...,90
}

TEST(VertexFilter, NoneAndAll) {
  vertex_subset vs(50, std::vector<vertex_id>{10, 20});
  EXPECT_TRUE(vertex_filter(vs, [](vertex_id) { return false; }).empty());
  EXPECT_EQ(vertex_filter(vs, [](vertex_id) { return true; }).size(), 2u);
}
