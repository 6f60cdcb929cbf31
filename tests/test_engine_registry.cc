// Tests for the engine graph registry (docs/ENGINE.md): named residency,
// epochs, refcounted handle lifetime across evict/replace, file loading in
// all three formats with auto-detection, and thread-safety under a
// load/get/evict hammer.
#include "engine/registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_io.h"

namespace e = ligra::engine;
using namespace ligra;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void write(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }

 private:
  std::string path_;
};

graph small_graph() { return gen::rmat_graph(8, 1 << 11, /*seed=*/3); }

}  // namespace

TEST(EngineRegistry, AddGetEvict) {
  e::registry reg;
  EXPECT_EQ(reg.size(), 0u);
  auto h = reg.add("g", small_graph());
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.get("g").get(), h.get());
  EXPECT_EQ(h->name(), "g");
  EXPECT_FALSE(h->weighted());
  EXPECT_TRUE(reg.evict("g"));
  EXPECT_FALSE(reg.evict("g"));
  EXPECT_EQ(reg.size(), 0u);
}

TEST(EngineRegistry, GetThrowsTryGetReturnsNull) {
  e::registry reg;
  EXPECT_EQ(reg.try_get("missing"), nullptr);
  EXPECT_THROW(reg.get("missing"), e::not_found_error);
  try {
    reg.get("missing");
  } catch (const e::not_found_error& err) {
    EXPECT_NE(std::string(err.what()).find("missing"), std::string::npos);
  }
}

TEST(EngineRegistry, EpochsAreUniqueAndIncreaseOnReplace) {
  e::registry reg;
  auto h1 = reg.add("a", small_graph());
  auto h2 = reg.add("b", small_graph());
  EXPECT_NE(h1->epoch(), h2->epoch());
  auto h3 = reg.add("a", small_graph());  // replace
  EXPECT_GT(h3->epoch(), h1->epoch());
  EXPECT_EQ(reg.get("a")->epoch(), h3->epoch());
  EXPECT_EQ(reg.size(), 2u);
}

TEST(EngineRegistry, EvictedHandleStaysUsable) {
  e::registry reg;
  auto h = reg.add("g", small_graph());
  vertex_id n = h->structure().num_vertices();
  reg.evict("g");
  // The entry outlives its registry slot as long as the handle is held.
  EXPECT_EQ(h->structure().num_vertices(), n);
  EXPECT_GT(h->structure().num_edges(), 0u);
}

TEST(EngineRegistry, ReplacedHandleKeepsOldGraph) {
  e::registry reg;
  auto old_handle = reg.add("g", gen::path_graph(10));
  reg.add("g", gen::path_graph(500));
  EXPECT_EQ(old_handle->structure().num_vertices(), 10u);
  EXPECT_EQ(reg.get("g")->structure().num_vertices(), 500u);
}

TEST(EngineRegistry, WeightedEntryCarriesStructureAndWeights) {
  e::registry reg;
  wgraph wg = gen::add_random_weights(gen::grid3d_graph(6), 1, 9);
  auto h = reg.add("w", wg);
  EXPECT_TRUE(h->weighted());
  EXPECT_EQ(h->structure().num_vertices(), wg.num_vertices());
  EXPECT_EQ(h->structure().num_edges(), wg.num_edges());
  EXPECT_EQ(h->weights().num_edges(), wg.num_edges());
  // Structure mirrors the weighted adjacency exactly.
  for (vertex_id v = 0; v < 20; v++) {
    auto a = h->structure().out_neighbors(v);
    auto b = h->weights().out_neighbors(v);
    ASSERT_EQ(std::vector<vertex_id>(a.begin(), a.end()),
              std::vector<vertex_id>(b.begin(), b.end()));
  }
}

TEST(EngineRegistry, UnweightedEntryRejectsWeightAccess) {
  e::registry reg;
  auto h = reg.add("g", small_graph());
  EXPECT_THROW(h->weights(), e::engine_error);
}

TEST(EngineRegistry, LoadAdjacencyAutoDetect) {
  TempFile f("reg_adj.txt");
  graph g = gen::rmat_graph(7, 1 << 10);
  io::write_adjacency_graph(f.path(), g);
  e::registry reg;
  auto h = reg.load("g", f.path(), {.symmetric = true});
  EXPECT_EQ(h->structure(), g);
}

TEST(EngineRegistry, LoadBinaryAutoDetect) {
  TempFile f("reg_bin.lgrb");
  graph g = gen::rmat_digraph(7, 1 << 10);
  io::write_binary_graph(f.path(), g);
  e::registry reg;
  auto h = reg.load("g", f.path());
  EXPECT_EQ(h->structure(), g);
}

TEST(EngineRegistry, LoadWeightedEdgeList) {
  TempFile f("reg_edges.txt");
  f.write("# weighted edge list\n0 1 5\n1 2 3\n2 0 7\n");
  e::registry reg;
  auto h = reg.load("g", f.path(), {.weighted = true, .symmetric = true});
  EXPECT_TRUE(h->weighted());
  EXPECT_EQ(h->structure().num_vertices(), 3u);
  EXPECT_EQ(h->structure().num_edges(), 6u);  // symmetrized
}

TEST(EngineRegistry, LoadMissingFileErrorNamesPath) {
  e::registry reg;
  try {
    reg.load("g", "/nonexistent/graph.adj");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("/nonexistent/graph.adj"),
              std::string::npos);
  }
  EXPECT_EQ(reg.size(), 0u);  // failed load registers nothing
}

TEST(EngineRegistry, ListAndMemoryAccounting) {
  e::registry reg;
  reg.add("a", small_graph());
  reg.add("b", gen::add_random_weights(gen::grid3d_graph(5), 1, 4));
  auto infos = reg.list();
  ASSERT_EQ(infos.size(), 2u);
  size_t total = 0;
  for (const auto& info : infos) {
    EXPECT_GT(info.memory_bytes, 0u);
    EXPECT_GT(info.num_edges, 0u);
    total += info.memory_bytes;
  }
  EXPECT_EQ(reg.total_memory_bytes(), total);
}

TEST(EngineRegistry, ConcurrentLoadGetEvictHammer) {
  e::registry reg;
  reg.add("stable", small_graph());
  const int threads = 8, iters = 200;
  std::atomic<int> lookups{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < iters; i++) {
        switch ((t + i) % 4) {
          case 0:
            reg.add("churn", gen::path_graph(16));
            break;
          case 1:
            reg.evict("churn");
            break;
          case 2: {
            if (auto h = reg.try_get("churn")) {
              // Handle remains valid even if evicted concurrently.
              ASSERT_EQ(h->structure().num_vertices(), 16u);
            }
            break;
          }
          default: {
            auto h = reg.try_get("stable");
            ASSERT_NE(h, nullptr);
            ASSERT_GT(h->structure().num_edges(), 0u);
            lookups.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        (void)reg.total_memory_bytes();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GT(lookups.load(), 0);
  EXPECT_NE(reg.try_get("stable"), nullptr);
}
