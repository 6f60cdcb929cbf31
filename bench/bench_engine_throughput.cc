// Engine throughput bench (E1): sustained mixed-query throughput through
// the admission-controlled executor over resident graphs.
//
// Axes:
//   * cold vs warm cache (the repeated-query amortization the engine adds),
//   * concurrency limit sweep.
// The printed table gives the serving-shaped summary (p50/p99/hit rate);
// the google-benchmark timings below it give stable regression numbers.
// The point-BFS section (E2) replays waves of 64 small point-BFS queries
// two ways — through the executor, which answers each with one
// bidirectional search (ligra/point_bfs.h), and as direct full-BFS calls
// (apps::bfs_hop_distance) — and ends with one machine-readable line:
//   POINT_BFS_JSON {"counters":{...},"gauges":{...},"histograms":{...}}
// CI's bench-smoke job asserts the executor's qps over full BFS in
// geometric mean over the inputs (a search reads ~1k edges where a full
// BFS reads them all, so it holds on a single core).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/query_adapters.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ligra;

namespace {

engine::registry& shared_registry() {
  static engine::registry* reg = [] {
    auto* r = new engine::registry();
    r->add("rmat", gen::rmat_graph(/*scale=*/13, /*num_edges=*/1 << 17));
    r->add("grid", gen::add_random_weights(gen::grid3d_graph(/*side=*/16),
                                           1, 16));
    return r;
  }();
  return *reg;
}

// Deterministic mixed workload with parameter repeats (pool of n/64
// distinct vertices) so warm replays exercise the cache.
std::vector<engine::query_request> workload(size_t count) {
  auto infos = shared_registry().list();
  std::sort(infos.begin(), infos.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::vector<engine::query_request> reqs;
  reqs.reserve(count);
  rng r(7);
  for (size_t i = 0; i < count; i++) {
    const auto& info = infos[r[3 * i] % infos.size()];
    vertex_id pool = std::max<vertex_id>(1, info.num_vertices / 64);
    engine::query_request q;
    q.graph = info.name;
    q.source = static_cast<vertex_id>(r[3 * i + 1] % pool);
    q.target = static_cast<vertex_id>(r[3 * i + 2] % pool);
    switch (r[3 * i + 1] % 8) {
      case 0: case 1: case 2:
        q.kind = engine::query_kind::bfs_distance;
        break;
      case 3: case 4:
        q.kind = info.weighted ? engine::query_kind::sssp_distance
                               : engine::query_kind::bfs_distance;
        break;
      case 5: case 6:
        q.kind = engine::query_kind::component_id;
        break;
      default:
        q.kind = engine::query_kind::coreness;
        break;
    }
    reqs.push_back(std::move(q));
  }
  return reqs;
}

double replay_seconds(engine::query_executor& ex,
                      const std::vector<engine::query_request>& reqs) {
  const monotonic_time t0 = mono_now();
  std::vector<std::future<engine::query_result>> futs;
  futs.reserve(reqs.size());
  for (const auto& q : reqs) {
    while (true) {
      try {
        futs.push_back(ex.submit(q));
        break;
      } catch (const engine::rejected_error&) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  for (auto& f : futs) f.get();
  return seconds_since(t0);
}

void print_summary() {
  std::printf("\n=== E1: engine throughput — 1000 mixed queries, 2 resident "
              "graphs ===\n");
  table_printer t({"Config", "cold req/s", "warm req/s", "warm hit rate"});
  auto reqs = workload(1000);
  engine::query_executor ex(shared_registry(), {});
  double cold = replay_seconds(ex, reqs);
  auto cold_hits = ex.stats().cache.hits;
  double warm = replay_seconds(ex, reqs);
  auto snap = ex.stats();
  char hit[32];
  std::snprintf(hit, sizeof(hit), "%.1f%%",
                100.0 * static_cast<double>(snap.cache.hits - cold_hits) /
                    static_cast<double>(reqs.size()));
  t.add_row({"executor",
             format_double(static_cast<double>(reqs.size()) / cold, 0),
             format_double(static_cast<double>(reqs.size()) / warm, 0), hit});
  t.print();
  std::printf("\n");
}

// --- E2: point BFS (docs/ENGINE.md "Point BFS") -----------------------------

// Every E2 number lands here; the POINT_BFS_JSON line is its render_json().
obs::metrics_registry& point_bfs_metrics() {
  static obs::metrics_registry reg;
  return reg;
}

struct arm_result {
  double qps;
  double p99_micros;
};

// Replays `rounds` waves of 64 (source, target) pairs, the same for every
// arm, through `answer`, and publishes the arm's qps gauge and
// wave-relative latency histogram (completion time since the wave
// started).
template <class Answer>
arm_result run_point_bfs_arm(const std::string& input, vertex_id n,
                             const char* arm, size_t rounds,
                             Answer&& answer) {
  const std::string labels =
      std::string("{arm=\"") + arm + "\",input=\"" + input + "\"}";
  auto& lat = point_bfs_metrics().get_histogram(
      "point_bfs_bench_latency_micros" + labels);
  rng r(11);
  std::vector<std::pair<vertex_id, vertex_id>> wave(64);
  const monotonic_time t0 = mono_now();
  for (size_t round = 0; round < rounds; round++) {
    for (size_t i = 0; i < wave.size(); i++) {
      const uint64_t draw = (round * 64 + i) * 2;
      wave[i] = {static_cast<vertex_id>(r[draw] % n),
                 static_cast<vertex_id>(r[draw + 1] % n)};
    }
    const monotonic_time w0 = mono_now();
    answer(wave, [&] {
      lat.record(static_cast<uint64_t>(micros_since(w0)));
    });
  }
  const double qps = static_cast<double>(rounds * wave.size()) /
                     seconds_since(t0);
  point_bfs_metrics()
      .get_gauge("point_bfs_bench_qps" + labels)
      .set(static_cast<int64_t>(qps));
  return {qps, lat.snapshot().p99()};
}

void print_point_bfs_summary() {
  // Scale is pinned to 12, the size CI's speedup floor was measured at.
  constexpr int kScale = 12;
  const vertex_id n = vertex_id{1} << kScale;
  const size_t rounds = 16;
  engine::registry reg;
  reg.add("rmat", gen::rmat_graph(kScale, edge_id{8} << kScale, /*seed=*/9));
  reg.add("unif", gen::random_graph(n, 8, /*seed=*/9));

  std::printf("=== E2: point BFS — %zu waves of 64 point-BFS queries, "
              "scale %d ===\n",
              rounds, kScale);
  table_printer table({"Input", "full BFS q/s", "executor q/s", "speedup",
                       "executor p99 (us)"});
  for (const char* input : {"rmat", "unif"}) {
    // Arm A: 64 submissions per wave through one dispatcher
    // (max_concurrency=1: the honest single-core serving shape) with the
    // result cache off, so every query searches.
    engine::executor_options opts;
    opts.max_concurrency = 1;
    opts.cache_capacity = 0;
    engine::query_executor ex(reg, opts);
    const arm_result executor = run_point_bfs_arm(
        input, n, "executor", rounds, [&](const auto& wave, auto&& done) {
          std::vector<std::future<engine::query_result>> futs;
          futs.reserve(wave.size());
          for (const auto& [s, t] : wave) {
            engine::query_request q;
            q.graph = input;
            q.kind = engine::query_kind::bfs_distance;
            q.source = s;
            q.target = t;
            futs.push_back(ex.submit(q));
          }
          for (auto& f : futs) {
            f.get();
            done();
          }
        });
    // Arm B: the full-BFS reference, called directly on the same pairs.
    const graph& g = reg.get(input)->structure();
    int64_t sink = 0;
    const arm_result full = run_point_bfs_arm(
        input, n, "full_bfs", rounds, [&](const auto& wave, auto&& done) {
          for (const auto& [s, t] : wave) {
            sink += apps::bfs_hop_distance(g, s, t);
            done();
          }
        });
    benchmark::DoNotOptimize(sink);
    const double speedup = executor.qps / full.qps;
    point_bfs_metrics()
        .get_gauge(std::string("point_bfs_bench_speedup_x1000{input=\"") +
                   input + "\"}")
        .set(static_cast<int64_t>(speedup * 1000.0));
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.1fx", speedup);
    table.add_row({input, format_double(full.qps, 0),
                   format_double(executor.qps, 0), sp,
                   format_double(executor.p99_micros, 0)});
  }
  table.print();
  std::printf("\nPOINT_BFS_JSON %s\n\n",
              point_bfs_metrics().render_json().c_str());
}

void BM_EngineThroughput(benchmark::State& state) {
  const size_t batch = 256;
  engine::executor_options opts;
  opts.max_concurrency = static_cast<size_t>(state.range(0));
  opts.cache_capacity = static_cast<size_t>(state.range(1));
  auto reqs = workload(batch);
  engine::query_executor ex(shared_registry(), opts);
  for (auto _ : state) {
    replay_seconds(ex, reqs);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
  auto snap = ex.stats();
  state.counters["hit_rate"] = 100.0 * snap.cache.hit_rate();
}
BENCHMARK(BM_EngineThroughput)
    ->ArgsProduct({{1, 2, 4}, {0, 4096}})
    ->ArgNames({"conc", "cache"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CacheHitLatency(benchmark::State& state) {
  engine::query_executor ex(shared_registry(), {});
  engine::query_request q;
  q.graph = "rmat";
  q.kind = engine::query_kind::bfs_distance;
  q.source = 0;
  q.target = 1;
  ex.run(q);  // populate
  for (auto _ : state) {
    auto r = ex.run(q);
    benchmark::DoNotOptimize(r.value);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheHitLatency);

}  // namespace

int main(int argc, char** argv) {
  print_summary();
  print_point_bfs_summary();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
