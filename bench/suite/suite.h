// Shared pieces of the repository benchmark (README.md): run settings, the
// metric catalogue, the measurement window, and the helpers every workload
// uses. The program under test is reached only through its public headers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "graph/graph.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace suite {

using ligra::vertex_id;

struct run_config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;  // measured window
  double warmup = 2.0;    // unmeasured lead-in before the window
  bool traced = false;    // also do the traced pass for per-layer metrics
  bool quick = false;     // small graphs and short windows (self-test)
  std::string tmp;        // scratch directory for graph files and the WAL
};

// What one run of one workload produced. `values` holds every metric the
// workload measured, end-to-end and per-layer, by catalogue name. The run
// is correct when no op failed; a wrong answer counts as a failed op.
struct run_output {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> problems;  // first few op errors / oracle misses

  // `count` failed ops or wrong answers, described by `what`.
  void fail(const std::string& what, uint64_t count = 1);
};

// Directions and bounds live in BENCHMARK.json.
struct metric_def {
  const char* name;
  const char* unit;
};
extern const std::vector<metric_def> kEndToEnd;
extern const std::vector<metric_def> kPerLayer;

struct workload_def {
  const char* name;
  run_output (*run)(const run_config&);
};
extern const std::vector<workload_def> kWorkloads;

run_output run_serve_mix(const run_config& cfg);
run_output run_batch_bfs(const run_config& cfg);
run_output run_rw_mutable(const run_config& cfg);
run_output run_analytics_rmat(const run_config& cfg);
run_output run_analytics_grid(const run_config& cfg);

// ---- statistics -------------------------------------------------------------

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

// Histogram of the events recorded between two snapshots of one histogram.
ligra::obs::histogram_snapshot hist_delta(
    const ligra::obs::histogram_snapshot& before,
    const ligra::obs::histogram_snapshot& after);

// ---- measurement window -----------------------------------------------------

// Closed-loop threads run until end(); an op counts when it starts and ends
// inside [begin, end). The clock starts at construction.
class window {
 public:
  window(double warmup_s, double seconds);
  ligra::monotonic_time begin() const { return begin_; }
  ligra::monotonic_time end() const { return end_; }
  double seconds() const { return seconds_; }
  bool over(ligra::monotonic_time t) const { return t >= end_; }
  bool counts(ligra::monotonic_time t0, ligra::monotonic_time t1) const {
    return t0 >= begin_ && t1 < end_;
  }

 private:
  ligra::monotonic_time begin_;
  ligra::monotonic_time end_;
  double seconds_;
};

// ---- inputs -----------------------------------------------------------------

// The graphs do not change with --seed: the seed draws the request streams,
// update batches, sources and samples on them. When the graph changed too,
// the spread across seeds was mostly the spread between rMat draws (one
// draw's k-core ran 15% longer than another's), not the system's.
inline constexpr uint64_t kGraphSeed = 1;

// Writes `g` as an LGRB file under cfg.tmp and returns its path.
std::string write_graph(const run_config& cfg, const std::string& name,
                        const ligra::graph& g);
std::string write_graph(const run_config& cfg, const std::string& name,
                        const ligra::wgraph& g);

// The vertices of g's largest connected component, ascending. Sources are
// drawn from it: a source in a small component makes a trivially cheap
// query, and how many of those a seed happens to draw would otherwise
// dominate the run-to-run spread.
std::vector<vertex_id> giant_component(const ligra::graph& g);

// Zipf(1.0) over `domain`, with ranks scattered by a seeded permutation so
// popular vertices are not the low ids rMat already favours.
class zipf_vertices {
 public:
  zipf_vertices(std::vector<vertex_id> domain, uint64_t seed);
  vertex_id sample(double u) const;  // u uniform in [0, 1)

 private:
  std::vector<double> cdf_;
  std::vector<vertex_id> perm_;
};

// Median of what `once` returns (the seconds one set-up took) over at least
// `min_reps` calls and at least `min_seconds` in total (capped at 200
// calls). Workloads time their set-ups after the measured window: right
// after process start the pool's workers sometimes take a second to join
// in, which tripled the time of the first loads in some runs.
double median_setup_seconds(int min_reps, double min_seconds,
                            const std::function<double()>& once);

// Seconds one registry::load of `path` takes into a fresh registry; the
// entry is freed after the clock stops.
double load_seconds(const std::string& path,
                    const ligra::engine::load_options& lo = {});

// ---- per-layer probes ---------------------------------------------------------

// Work-stealing scheduler counters (steals, parks) read through the stock
// collector.
class scheduler_probe {
 public:
  scheduler_probe();
  void read(uint64_t* steals, uint64_t* parks);

 private:
  ligra::obs::metrics_registry reg_;
};

// Edge_map rounds seen by query_traces, summed per app.
struct round_totals {
  uint64_t runs = 0;
  uint64_t rounds = 0;
  uint64_t dense_rounds = 0;
  uint64_t frontier_edges = 0;
  double round_micros = 0.0;
  double app_micros = 0.0;

  // Runs `body` under a fresh trace, folds its rounds in, and returns its
  // wall time in microseconds.
  double traced(const std::function<void()>& body);
  // ligra.{rounds,dense_round_frac,edge_map_share,edges_per_us}.<app>
  void report(run_output& out, const std::string& app) const;
};

// Oracle helper: the smallest vertex of each vertex's label class, so two
// labelings of the same partition compare equal.
std::vector<vertex_id> canonical_labels(const std::vector<vertex_id>& labels);

// Stores `v` where the optimizer cannot drop the computation behind it.
void keep(int64_t v);

}  // namespace suite
