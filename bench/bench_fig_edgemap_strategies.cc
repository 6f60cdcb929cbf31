// Experiments F2 + A1 — the edge_map strategy comparison:
//
//   * BFS (and Components) with the traversal forced to sparse-only,
//     dense-only, dense_forward-only, versus the hybrid. Paper shape:
//     hybrid ~ min(sparse, dense) on every input; dense-only loses badly
//     on high-diameter inputs (3d-grid), sparse-only loses on low-diameter
//     skewed inputs (rMat).
//   * The edge-balanced blocked sparse kernel, full-BFS and on an
//     adversarially skewed frontier (one top hub + many leaves) that it
//     splits across blocks. Per-rep times land in histograms and are
//     emitted as one machine-readable EDGEMAP_JSON line (same shape as
//     TABLE2_JSON; validated by the CI bench-smoke job).
//   * A sweep of the hybrid threshold denominator d (dense when
//     |U| + outdeg(U) > m/d). Paper uses d = 20; the sweep shows a flat
//     optimum around it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/bfs.h"
#include "apps/components.h"
#include "bench/inputs.h"
#include "ligra/edge_map.h"
#include "obs/metrics.h"
#include "parallel/atomics.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ligra;

namespace {

// Every timed edge_map/BFS rep lands in a per-(kernel, input) histogram in
// this registry; the EDGEMAP_JSON line at the end is its render_json().
obs::metrics_registry& edgemap_metrics() {
  static obs::metrics_registry reg;
  return reg;
}

double time_bfs(const graph& g, edge_map_options opts) {
  return time_best_of(2, [&] { apps::bfs_options o{opts}; apps::bfs(g, 0, o); });
}

// One adversarially skewed frontier: the highest-degree vertex (the rMat
// hub) plus `leaves` of the lowest-degree vertices. The blocked kernel
// splits the hub across tasks.
std::vector<vertex_id> skewed_frontier(const graph& g, size_t leaves) {
  vertex_id hub = 0;
  for (vertex_id v = 1; v < g.num_vertices(); v++)
    if (g.out_degree(v) > g.out_degree(hub)) hub = v;
  // Leaves: the first `leaves` vertices of at most average degree (on
  // uniform graphs every vertex qualifies; the skew then just isn't there).
  const edge_id avg = g.num_edges() / std::max<vertex_id>(1, g.num_vertices());
  std::vector<vertex_id> ids = {hub};
  for (vertex_id v = 0; v < g.num_vertices() && ids.size() <= leaves; v++)
    if (v != hub && g.out_degree(v) > 0 && g.out_degree(v) <= avg)
      ids.push_back(v);
  return ids;
}

struct mark_f {
  uint8_t* marked;
  bool update(vertex_id, vertex_id v) const {
    if (!marked[v]) {
      marked[v] = 1;
      return true;
    }
    return false;
  }
  bool update_atomic(vertex_id, vertex_id v) const {
    return compare_and_swap(&marked[v], uint8_t{0}, uint8_t{1});
  }
  bool cond(vertex_id v) const { return atomic_load(&marked[v]) == 0; }
};

// Times one sparse edge_map over `ids` (mark reset untimed each rep),
// recording every rep into the named histogram; returns the best seconds.
double time_sparse_step(const graph& g, const std::vector<vertex_id>& ids,
                        const std::string& hist_name, int reps) {
  obs::histogram& h = edgemap_metrics().get_histogram(hist_name);
  edge_map_scratch scratch;
  edge_map_options opts;
  opts.strategy = traversal::sparse;
  opts.scratch = &scratch;
  std::vector<uint8_t> marked(g.num_vertices());
  double best = -1.0;
  for (int r = 0; r < reps; r++) {
    std::fill(marked.begin(), marked.end(), uint8_t{0});
    vertex_subset frontier(g.num_vertices(), ids);
    double s = time_it([&] {
      auto out = edge_map(g, frontier, mark_f{marked.data()}, opts);
      benchmark::DoNotOptimize(out.size());
    });
    h.record(static_cast<uint64_t>(s * 1e6));
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

void print_strategy_table() {
  std::printf("\n=== F2/A1: BFS time (seconds) by edge_map strategy ===\n");
  table_printer t({"Input", "Sparse-only", "Dense-only", "DenseFwd-only",
                   "Hybrid(m/20)"});
  for (const auto& in : bench::table1_inputs()) {
    edge_map_options sparse, dense, fwd, hybrid;
    sparse.strategy = traversal::sparse;
    dense.strategy = traversal::dense;
    fwd.strategy = traversal::dense_forward;
    double tb = time_bfs(in.g, sparse);
    t.add_row({in.name, format_double(tb, 3),
               format_double(time_bfs(in.g, dense), 3),
               format_double(time_bfs(in.g, fwd), 3),
               format_double(time_bfs(in.g, hybrid), 3)});
    edgemap_metrics()
        .get_histogram("bfs_sparse_micros{kernel=\"blocked\",input=\"" +
                       in.name + "\"}")
        .record(static_cast<uint64_t>(tb * 1e6));
  }
  t.print();

  std::printf("\n=== A1: Components time (seconds), dense vs dense_forward "
              "for the saturated rounds ===\n");
  table_printer t2({"Input", "Hybrid(pull dense)", "Hybrid(dense_forward)"});
  for (const auto& in : bench::table1_inputs()) {
    edge_map_options pull, forward;
    forward.prefer_dense_forward = true;
    double a = time_best_of(2, [&] { apps::connected_components(in.g, pull); });
    double b =
        time_best_of(2, [&] { apps::connected_components(in.g, forward); });
    t2.add_row({in.name, format_double(a, 3), format_double(b, 3)});
  }
  t2.print();
}

// The blocked kernel's showcase: a skewed frontier whose edge work is
// dominated by one hub, which blocking spreads across tasks.
void print_skewed_frontier_table() {
  std::printf("\n=== Blocked sparse kernel — one edge_map on a skewed "
              "frontier (seconds) ===\n");
  table_printer t({"Input", "Frontier", "Edges", "Blocked"});
  for (const auto& in : bench::table1_inputs()) {
    auto ids = skewed_frontier(in.g, 4096);
    vertex_subset probe(in.g.num_vertices(), ids);
    edge_id edges = probe.out_degree_sum(in.g);
    double blocked = time_sparse_step(
        in.g, ids,
        "edgemap_sparse_micros{kernel=\"blocked\",input=\"" + in.name + "\"}",
        5);
    t.add_row({in.name, std::to_string(ids.size()), std::to_string(edges),
               format_double(blocked, 6)});
  }
  t.print();
}

void print_threshold_sweep() {
  std::printf("\n=== F2: hybrid threshold sweep — BFS time (seconds) with "
              "dense threshold m/d ===\n");
  std::vector<uint64_t> denominators = {1, 2, 5, 10, 20, 40, 100, 1000};
  std::vector<std::string> header = {"Input"};
  for (auto d : denominators) header.push_back("d=" + std::to_string(d));
  table_printer t(header);
  for (const auto& in : bench::table1_inputs()) {
    std::vector<std::string> row = {in.name};
    for (auto d : denominators) {
      edge_map_options opts;
      opts.threshold_denominator = d;
      row.push_back(format_double(time_bfs(in.g, opts), 3));
    }
    t.add_row(row);
  }
  t.print();
  std::printf("\n");
}

void BM_BfsStrategy(benchmark::State& state, const char* input_name,
                    traversal strategy) {
  const graph& g = bench::input_named(input_name);
  apps::bfs_options opts;
  opts.edge_map.strategy = strategy;
  for (auto _ : state) {
    auto r = apps::bfs(g, 0, opts);
    benchmark::DoNotOptimize(r.num_reached);
  }
}

void register_benchmarks() {
  struct variant {
    const char* name;
    traversal t;
  };
  for (const char* input : {"rMat", "3d-grid"}) {
    for (const variant& v : {variant{"sparse", traversal::sparse},
                             variant{"dense", traversal::dense},
                             variant{"hybrid", traversal::automatic}}) {
      std::string bname = std::string("BFS/") + input + "/" + v.name;
      benchmark::RegisterBenchmark(bname.c_str(), BM_BfsStrategy, input, v.t)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  print_strategy_table();
  print_skewed_frontier_table();
  print_threshold_sweep();
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  // One line, machine-readable: every timed kernel comparison's digest.
  std::printf("EDGEMAP_JSON %s\n\n", edgemap_metrics().render_json().c_str());
  benchmark::Shutdown();
  return 0;
}
