#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "apps/components.h"
#include "graph/graph_io.h"
#include "obs/collectors.h"
#include "obs/trace.h"
#include "suite.h"
#include "util/rng.h"

namespace suite {

using namespace ligra;

// Every workload reports every end-to-end metric; README.md says what an
// "op" is on each.
const std::vector<metric_def> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"p50_us", "us"},
    {"p99_us", "us"},
    {"bfs_p50_us", "us"},
};

// Per-layer metrics from the traced run. A layer the workload does not pass
// through reads 0 (README.md, "Per-layer metrics").
const std::vector<metric_def> kPerLayer = {
    {"net.client_us.mean", "us"},
    {"net.server_us.mean", "us"},
    {"net.server_us.p99", "us"},
    {"net.outside_server_us.mean", "us"},
    {"net.handoff_us.mean", "us"},
    {"net.codec_ns.request", "ns"},
    {"net.codec_ns.response", "ns"},
    {"net.bytes_per_op", "B"},
    {"engine.queued_us.mean", "us"},
    {"engine.queued_us.p99", "us"},
    {"engine.exec_us.bfs.p50", "us"},
    {"engine.exec_us.cc.p50", "us"},
    {"engine.exec_us.kcore.p50", "us"},
    {"engine.exec_us.pagerank.p50", "us"},
    {"engine.exec_us.update.p50", "us"},
    {"engine.cache.hit_ratio", "frac"},
    {"engine.cache.evictions", "count"},
    {"engine.batch.width_mean", "count"},
    {"engine.batch.wait_us.p50", "us"},
    {"engine.batch.dedup", "count"},
    {"engine.inproc_us.p50", "us"},
    {"engine.inproc_us.p99", "us"},
    {"engine.refused", "count"},
    {"kind.bfs_p99_us", "us"},
    {"kind.cc_p50_us", "us"},
    {"kind.kcore_p50_us", "us"},
    {"kind.pagerank_p50_us", "us"},
    {"kind.update_p99_us", "us"},
    {"apps.bfs_hop_us.p50", "us"},
    {"apps.component_id_us.p50", "us"},
    {"apps.coreness_us.p50", "us"},
    {"apps.pagerank_topk_us.p50", "us"},
    {"apps.bfs_ms", "ms"},
    {"apps.bc_ms", "ms"},
    {"apps.cc_ms", "ms"},
    {"apps.pagerank_ms", "ms"},
    {"apps.radii_ms", "ms"},
    {"apps.bellman_ford_ms", "ms"},
    {"ligra.multi_bfs64_us.p50", "us"},
    {"ligra.rounds.bfs", "count"},
    {"ligra.rounds.bc", "count"},
    {"ligra.rounds.cc", "count"},
    {"ligra.rounds.pagerank", "count"},
    {"ligra.rounds.radii", "count"},
    {"ligra.rounds.bellman_ford", "count"},
    {"ligra.dense_round_frac.bfs", "frac"},
    {"ligra.dense_round_frac.bc", "frac"},
    {"ligra.dense_round_frac.cc", "frac"},
    {"ligra.dense_round_frac.pagerank", "frac"},
    {"ligra.dense_round_frac.radii", "frac"},
    {"ligra.dense_round_frac.bellman_ford", "frac"},
    {"ligra.edge_map_share.bfs", "frac"},
    {"ligra.edge_map_share.bc", "frac"},
    {"ligra.edge_map_share.cc", "frac"},
    {"ligra.edge_map_share.pagerank", "frac"},
    {"ligra.edge_map_share.radii", "frac"},
    {"ligra.edge_map_share.bellman_ford", "frac"},
    {"ligra.edges_per_us.bfs", "1/us"},
    {"ligra.edges_per_us.bc", "1/us"},
    {"ligra.edges_per_us.cc", "1/us"},
    {"ligra.edges_per_us.pagerank", "1/us"},
    {"ligra.edges_per_us.radii", "1/us"},
    {"ligra.edges_per_us.bellman_ford", "1/us"},
    {"dynamic.update_us.p50", "us"},
    {"dynamic.update_us.p99", "us"},
    {"dynamic.update_rtt_us.p50", "us"},
    {"dynamic.wal_append_us.p99", "us"},
    {"dynamic.checkpoint_us.p99", "us"},
    {"dynamic.checkpoints", "count"},
    {"dynamic.epochs", "count"},
    {"dynamic.writer_lag_us.max", "us"},
    {"parallel.steals_per_s", "1/s"},
    {"parallel.parks_per_s", "1/s"},
    {"obs.trace_overhead_frac", "frac"},
};

const std::vector<workload_def> kWorkloads = {
    {"serve_mix", run_serve_mix},
    {"batch_bfs", run_batch_bfs},
    {"rw_mutable", run_rw_mutable},
    {"analytics_rmat", run_analytics_rmat},
    {"analytics_grid", run_analytics_grid},
};

void run_output::fail(const std::string& what, uint64_t count) {
  failed += count;
  if (problems.size() < 8) problems.push_back(what);
}

namespace {
volatile int64_t g_sink = 0;
}  // namespace

void keep(int64_t v) { g_sink = g_sink + v; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

obs::histogram_snapshot hist_delta(const obs::histogram_snapshot& before,
                                   const obs::histogram_snapshot& after) {
  obs::histogram_snapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (size_t i = 0; i < d.buckets.size(); i++) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
    if (d.buckets[i] != 0) d.max = obs::hist_detail::bucket_upper(i);
  }
  d.max = std::min(d.max, after.max);
  return d;
}

window::window(double warmup_s, double seconds) : seconds_(seconds) {
  const auto now = mono_now();
  begin_ = now + std::chrono::duration_cast<monotonic_clock::duration>(
                     std::chrono::duration<double>(warmup_s));
  end_ = begin_ + std::chrono::duration_cast<monotonic_clock::duration>(
                      std::chrono::duration<double>(seconds));
}

std::string write_graph(const run_config& cfg, const std::string& name,
                        const graph& g) {
  const std::string path = cfg.tmp + "/" + name + ".lgrb";
  io::write_binary_graph(path, g);
  return path;
}

std::string write_graph(const run_config& cfg, const std::string& name,
                        const wgraph& g) {
  const std::string path = cfg.tmp + "/" + name + ".lgrb";
  io::write_binary_graph(path, g);
  return path;
}

std::vector<vertex_id> giant_component(const graph& g) {
  const auto labels = apps::connected_components(g).labels;
  std::unordered_map<vertex_id, size_t> size;
  vertex_id giant = labels.empty() ? 0 : labels[0];
  for (vertex_id l : labels)
    if (++size[l] > size[giant]) giant = l;
  std::vector<vertex_id> out;
  for (vertex_id v = 0; v < labels.size(); v++)
    if (labels[v] == giant) out.push_back(v);
  return out;
}

zipf_vertices::zipf_vertices(std::vector<vertex_id> domain, uint64_t seed)
    : cdf_(domain.size()), perm_(std::move(domain)) {
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); r++) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  sequential_rng r(seed);
  for (size_t i = perm_.size(); i > 1; i--)
    std::swap(perm_[i - 1], perm_[r.bounded(i)]);
}

vertex_id zipf_vertices::sample(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  size_t rank = std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                                 perm_.size() - 1);
  return perm_[rank];
}

double median_setup_seconds(int min_reps, double min_seconds,
                            const std::function<double()>& once) {
  std::vector<double> t;
  double total = 0.0;
  while ((static_cast<int>(t.size()) < min_reps || total < min_seconds) &&
         t.size() < 200) {
    t.push_back(once());
    total += t.back();
  }
  return median(t);
}

double load_seconds(const std::string& path, const engine::load_options& lo) {
  engine::registry reg;
  const auto t0 = mono_now();
  const auto entry = reg.load("setup", path, lo);
  return seconds_since(t0);
}

scheduler_probe::scheduler_probe() { obs::install_scheduler_collector(reg_); }

void scheduler_probe::read(uint64_t* steals, uint64_t* parks) {
  reg_.visit([](const std::string&, const obs::counter&) {},
             [&](const std::string& name, const obs::gauge& g) {
               if (name == "scheduler_steals")
                 *steals = static_cast<uint64_t>(g.value());
               if (name == "scheduler_parks")
                 *parks = static_cast<uint64_t>(g.value());
             },
             [](const std::string&, const obs::histogram&) {});
}

double round_totals::traced(const std::function<void()>& body) {
  obs::query_trace trace;
  const auto t0 = mono_now();
  {
    obs::trace_scope scope(&trace);
    body();
  }
  const double micros = micros_since(t0);
  app_micros += micros;
  runs++;
  for (const auto& r : trace.rounds()) {
    rounds++;
    if (std::string_view(r.direction) != "sparse") dense_rounds++;
    frontier_edges += r.frontier_edges;
    round_micros += r.micros;
  }
  return micros;
}

void round_totals::report(run_output& out, const std::string& app) const {
  if (runs == 0) return;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.values["ligra.rounds." + app] =
      ratio(static_cast<double>(rounds), static_cast<double>(runs));
  out.values["ligra.dense_round_frac." + app] =
      ratio(static_cast<double>(dense_rounds), static_cast<double>(rounds));
  out.values["ligra.edge_map_share." + app] = ratio(round_micros, app_micros);
  out.values["ligra.edges_per_us." + app] =
      ratio(static_cast<double>(frontier_edges), round_micros);
}

std::vector<vertex_id> canonical_labels(const std::vector<vertex_id>& labels) {
  std::unordered_map<vertex_id, vertex_id> first;
  std::vector<vertex_id> out(labels.size());
  for (size_t v = 0; v < labels.size(); v++)
    out[v] = first.emplace(labels[v], static_cast<vertex_id>(v)).first->second;
  return out;
}

}  // namespace suite
