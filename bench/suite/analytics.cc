// The two whole-graph analytics workloads (README.md): the paper's six
// applications called directly, with no engine or net code in the way, on a
// low-diameter rMat graph and on a high-diameter 3-d torus.
#include <array>
#include <cmath>

#include "apps/apps.h"
#include "baseline/serial.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "suite.h"
#include "util/rng.h"

namespace suite {

using namespace ligra;

namespace {

constexpr const char* kGraph = "g";
constexpr size_t kNumApps = 6;
constexpr const char* kApps[kNumApps] = {"bfs",      "bc",    "cc",
                                         "pagerank", "radii", "bellman_ford"};
constexpr size_t kBfs = 0;
constexpr size_t kSources = 64;
constexpr size_t kPageRankIterations = 10;

// One op of these workloads: the six apps once each. BFS, BC and
// Bellman-Ford start from `source`; Radii samples with `radii_seed`.
struct job {
  vertex_id source = 0;
  uint64_t radii_seed = 1;
};

// Answers of one job, kept for the oracle.
struct job_answers {
  apps::bfs_result bfs;
  apps::bc_result bc;
  apps::components_result cc;
  apps::pagerank_result pagerank;
  apps::radii_result radii;
  apps::bellman_ford_result bellman_ford;
};

// Runs one job; `timed(app, body)` runs each app and returns its micros.
std::array<double, kNumApps> run_job(
    const graph& g, const wgraph& wg, const job& j, job_answers& a,
    const std::function<double(size_t, const std::function<void()>&)>& timed) {
  apps::pagerank_options pr;
  pr.tolerance = 0.0;  // exactly kPageRankIterations iterations
  pr.max_iterations = kPageRankIterations;
  std::array<double, kNumApps> t{};
  t[0] = timed(0, [&] { a.bfs = apps::bfs(g, j.source); });
  t[1] = timed(1, [&] { a.bc = apps::bc(g, j.source); });
  t[2] = timed(2, [&] { a.cc = apps::connected_components(g); });
  t[3] = timed(3, [&] { a.pagerank = apps::pagerank(g, pr); });
  t[4] = timed(4, [&] { a.radii = apps::radii_estimate(g, j.radii_seed); });
  t[5] = timed(5, [&] { a.bellman_ford = apps::bellman_ford(wg, j.source); });
  keep(static_cast<int64_t>(a.bfs.num_reached + a.cc.num_components));
  return t;
}

double plain_timed(size_t, const std::function<void()>& body) {
  const auto t0 = mono_now();
  body();
  return micros_since(t0);
}

// Seeded sources inside the largest component, so no job is trivially
// short.
std::vector<vertex_id> job_sources(const graph& g, uint64_t seed) {
  const auto giant = giant_component(g);
  const rng r = rng(seed).fork(4000);
  std::vector<vertex_id> out(kSources);
  for (size_t i = 0; i < kSources; i++) out[i] = giant[r.bounded(i, giant.size())];
  return out;
}

void check_job(const graph& g, const wgraph& wg, const job& j,
               const job_answers& a, const std::vector<vertex_id>& probes,
               run_output& out) {
  const vertex_id n = g.num_vertices();
  const vertex_id s = j.source;

  const auto levels = baseline::bfs_levels(g, s);
  bool ok = a.bfs.parents.size() == n;
  for (vertex_id v = 0; ok && v < n; v++) {
    const vertex_id p = a.bfs.parents[v];
    if ((p != kNoVertex) != (levels[v] >= 0)) ok = false;
    else if (p != kNoVertex && v != s)
      ok = levels[p] == levels[v] - 1 && g.has_edge(p, v);
  }
  if (!ok) out.fail("oracle: BFS tree differs from the serial BFS levels");

  const auto dep = baseline::bc(g, s);
  ok = a.bc.dependency.size() == n;
  for (vertex_id v = 0; ok && v < n; v++)
    ok = std::fabs(a.bc.dependency[v] - dep[v]) <=
         1e-6 * std::max(1.0, std::fabs(dep[v]));
  if (!ok) out.fail("oracle: BC dependencies differ from the serial BC");

  if (canonical_labels(a.cc.labels) !=
      canonical_labels(baseline::connected_components(g)))
    out.fail("oracle: CC partition differs from union-find");

  const auto rank =
      baseline::pagerank(g, 0.85, 0.0, kPageRankIterations);
  ok = a.pagerank.rank.size() == n;
  for (vertex_id v = 0; ok && v < n; v++)
    ok = std::fabs(a.pagerank.rank[v] - rank[v]) <= 1e-12 + 1e-6 * rank[v];
  if (!ok) out.fail("oracle: PageRank differs from the serial power method");

  // A radius is the farthest sample's distance, so neighbours differ by at
  // most one and no radius exceeds the vertex's exact eccentricity.
  const auto& r = a.radii.radii;
  ok = r.size() == n;
  for (vertex_id v = 0; ok && v < n; v++)
    for (vertex_id u : g.out_neighbors(v))
      if ((r[u] < 0) != (r[v] < 0) || std::abs(r[u] - r[v]) > 1) ok = false;
  for (vertex_id v : probes) {
    if (!ok) break;
    const auto lv = baseline::bfs_levels(g, v);
    ok = r[v] <= *std::max_element(lv.begin(), lv.end());
  }
  if (!ok) out.fail("oracle: radii violate the distance bounds");

  if (a.bellman_ford.distances != baseline::dijkstra(wg, s))
    out.fail("oracle: Bellman-Ford distances differ from Dijkstra");
}

run_output run_analytics(const run_config& cfg, const graph& generated) {
  run_output out;
  const wgraph weighted = gen::add_random_weights(generated, 1, 20, kGraphSeed);
  const std::string path = write_graph(cfg, cfg.workload, weighted);
  const auto sources = job_sources(generated, cfg.seed);

  engine::registry reg;
  engine::load_options lo;
  lo.weighted = true;
  const auto entry = reg.load(kGraph, path, lo);
  const graph& g = entry->structure();
  const wgraph& wg = entry->weights();
  auto job_of = [&](size_t i) {
    return job{sources[i % sources.size()], cfg.seed * 1000 + i};
  };

  job_answers first, scratch;
  run_job(g, wg, job_of(0), scratch, plain_timed);  // warm-up

  // Jobs start until the window ends; the last may finish after it.
  scheduler_probe sched;
  uint64_t steals0 = 0, parks0 = 0, steals1 = 0, parks1 = 0;
  std::array<std::vector<double>, kNumApps> app_us;
  std::vector<double> job_us;
  sched.read(&steals0, &parks0);
  const window w(0.0, cfg.seconds);
  while (!w.over(mono_now())) {
    const size_t i = job_us.size();
    const auto t = run_job(g, wg, job_of(i), i == 0 ? first : scratch,
                           plain_timed);
    double total = 0.0;
    for (size_t k = 0; k < kNumApps; k++) {
      app_us[k].push_back(t[k]);
      total += t[k];
    }
    job_us.push_back(total);
  }
  const double elapsed = seconds_since(w.begin());
  sched.read(&steals1, &parks1);

  out.attempted = job_us.size();
  out.values["ops_per_s"] = static_cast<double>(job_us.size()) / elapsed;
  out.values["p50_us"] = quantile(job_us, 0.5);
  out.values["p99_us"] = quantile(job_us, 0.99);
  out.values["bfs_p50_us"] = quantile(app_us[kBfs], 0.5);
  out.values["kind.bfs_p99_us"] = quantile(app_us[kBfs], 0.99);
  for (size_t k = 0; k < kNumApps; k++)
    out.values[std::string("apps.") + kApps[k] + "_ms"] =
        median(app_us[k]) / 1000.0;
  out.values["parallel.steals_per_s"] =
      static_cast<double>(steals1 - steals0) / elapsed;
  out.values["parallel.parks_per_s"] =
      static_cast<double>(parks1 - parks0) / elapsed;

  if (cfg.traced) {
    std::array<round_totals, kNumApps> rounds;
    size_t traced_jobs = 0;
    const window tw(0.0, cfg.seconds);
    for (; !tw.over(mono_now()); traced_jobs++)
      run_job(g, wg, job_of(traced_jobs), scratch,
              [&](size_t k, const std::function<void()>& body) {
                return rounds[k].traced(body);
              });
    for (size_t k = 0; k < kNumApps; k++) rounds[k].report(out, kApps[k]);
    out.values["obs.trace_overhead_frac"] =
        1.0 - static_cast<double>(traced_jobs) / seconds_since(tw.begin()) /
                  out.values["ops_per_s"];
  }

  const std::vector<vertex_id> probes(sources.begin(), sources.begin() + 4);
  check_job(generated, weighted, job_of(0), first, probes, out);
  out.values["setup_s"] =
      median_setup_seconds(3, 0.5, [&] { return load_seconds(path, lo); });
  return out;
}

}  // namespace

run_output run_analytics_rmat(const run_config& cfg) {
  const int scale = cfg.quick ? 10 : 18;
  return run_analytics(
      cfg, gen::rmat_graph(scale, edge_id{16} << scale, kGraphSeed));
}

run_output run_analytics_grid(const run_config& cfg) {
  return run_analytics(cfg, gen::grid3d_graph(cfg.quick ? 12 : 64));
}

}  // namespace suite
