// The three serving workloads (README.md): serve_mix (every serving layer,
// over loopback), batch_bfs (the executor's coalescer, in process) and
// rw_mutable (open-loop writes beside closed-loop reads on one mutable
// graph).
#include <array>
#include <cmath>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "apps/query_adapters.h"
#include "baseline/serial.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "ligra/multi_bfs.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "suite.h"
#include "util/rng.h"

namespace suite {

using namespace ligra;
using engine::query_kind;

namespace {

constexpr const char* kGraph = "g";
// Load generators: one thread and one connection each, at most nproc.
constexpr size_t kClients = 4;
constexpr size_t kReaders = 3;
// The oracle checks every 64th measured answer of each thread.
constexpr size_t kCheckEvery = 64;
constexpr size_t kStreamLen = size_t{1} << 16;  // ops per thread, reused cyclically
constexpr size_t kWave = 64;                    // batch_bfs submissions per wave
constexpr double kUpdateRate = 50.0;            // rw_mutable batches per second
constexpr size_t kUpdateInserts = 128;
constexpr size_t kDeleteLag = 8;  // batch b deletes batch b-8's inserts
constexpr size_t kFlightCap = size_t{1} << 19;
// apps.* samples: up to this many cache-missing queries per kind, and no
// more than kSampleSeconds of direct calls per kind.
constexpr size_t kSamplePerKind = 200;
constexpr double kSampleSeconds = 0.5;

size_t kind_index(query_kind k) { return static_cast<size_t>(k); }

struct op_spec {
  query_kind kind = query_kind::bfs_distance;
  vertex_id source = 0;
  vertex_id target = kNoVertex;
  uint32_t k = 10;
};

using stream = std::vector<op_spec>;

struct op_sample {
  uint32_t thread = 0;
  uint32_t index = 0;  // position in the thread's stream
  query_kind kind = query_kind::bfs_distance;
  double micros = 0.0;
  obs::trace_id tid{};
};

struct checked_answer {
  op_spec op;
  engine::query_result result;
};

// What one load-generating thread saw.
struct thread_log {
  std::vector<op_sample> samples;  // ops inside the window
  std::vector<checked_answer> checks;
  uint64_t failed = 0;
  uint64_t ops = 0;  // all completed ops, warm-up included
  std::string first_error;

  void record_failure(const std::exception& e) {
    failed++;
    if (first_error.empty()) first_error = e.what();
  }
};

// Mixed point queries: Zipf(1.0) subjects, uniform BFS targets, top-k with
// k in {10, 20, 30, 40}. `shares` are the cumulative bfs / cc / kcore
// fractions; the rest is pagerank.
stream mix_stream(uint64_t seed, size_t thread, vertex_id n,
                  const zipf_vertices& z, std::array<double, 3> shares) {
  const rng r = rng(seed).fork(1000 + thread);
  stream s(kStreamLen);
  for (size_t i = 0; i < s.size(); i++) {
    op_spec& o = s[i];
    const double u = r.uniform(4 * i);
    o.source = z.sample(r.uniform(4 * i + 1));
    if (u < shares[0]) {
      o.kind = query_kind::bfs_distance;
      o.target = static_cast<vertex_id>(r.bounded(4 * i + 2, n));
    } else if (u < shares[1]) {
      o.kind = query_kind::component_id;
    } else if (u < shares[2]) {
      o.kind = query_kind::coreness;
    } else {
      o.kind = query_kind::pagerank_topk;
      o.source = 0;
      o.k = static_cast<uint32_t>(10 * (1 + r.bounded(4 * i + 3, 4)));
    }
  }
  return s;
}

net::wire_request to_wire(const op_spec& o) {
  net::wire_request q;
  q.graph = kGraph;
  q.kind = o.kind;
  q.source = o.source;
  q.target = o.target;
  q.k = o.k;
  return q;
}

engine::query_request to_request(const op_spec& o) {
  engine::query_request q;
  q.graph = kGraph;
  q.kind = o.kind;
  q.source = o.source;
  q.target = o.target;
  q.k = o.k;
  return q;
}

void sleep_until(monotonic_time t) {
  if (mono_now() < t) std::this_thread::sleep_until(t);
}

// Runs body(i) on n threads while the calling thread calls at_begin() and
// at_end() at the window's edges; joins all threads before returning.
void run_threads(size_t n, const std::function<void(size_t)>& body,
                 const window& w, const std::function<void()>& at_begin,
                 const std::function<void()>& at_end) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; i++) threads.emplace_back(body, i);
  sleep_until(w.begin());
  if (at_begin) at_begin();
  sleep_until(w.end());
  if (at_end) at_end();
  for (auto& t : threads) t.join();
}

// One closed-loop wire client at in-flight 1, over `s` until the window
// ends. Reconnects after a lost connection; gives up if that fails.
void wire_client(uint16_t port, const stream& s, uint32_t thread,
                 const window& w, thread_log& log) {
  net::client c;
  for (uint32_t i = 0;; i++) {
    const auto t0 = mono_now();
    if (w.over(t0)) break;
    const op_spec& op = s[i % s.size()];
    engine::query_result r;
    bool ok = true;
    try {
      if (!c.connected()) c.connect("127.0.0.1", port);
      r = c.run(to_wire(op));
    } catch (const std::exception& e) {
      ok = false;
      log.record_failure(e);
      if (!c.connected() && log.failed > 16) break;
    }
    const auto t1 = mono_now();
    if (ok) log.ops++;
    if (!ok || !w.counts(t0, t1)) continue;
    log.samples.push_back(
        {thread, i, op.kind, micros_between(t0, t1), c.last_trace_id()});
    if (log.samples.size() % kCheckEvery == 0) log.checks.push_back({op, r});
  }
}

struct kind_latencies {
  std::vector<double> all;
  std::array<std::vector<double>, engine::kNumQueryKinds> by_kind;
};

kind_latencies gather(const std::vector<thread_log>& logs) {
  kind_latencies k;
  for (const auto& log : logs)
    for (const auto& s : log.samples) {
      k.all.push_back(s.micros);
      k.by_kind[kind_index(s.kind)].push_back(s.micros);
    }
  return k;
}

// Adds one pass's measured and failed ops to the run's counts; returns the
// pass's completed ops per second.
double count_ops(run_output& out, const std::vector<thread_log>& logs,
                 const window& w) {
  size_t measured = 0;
  for (const auto& log : logs) {
    measured += log.samples.size();
    out.attempted += log.samples.size() + log.failed;
    if (log.failed > 0) out.fail("op failed: " + log.first_error, log.failed);
  }
  return static_cast<double>(measured) / w.seconds();
}

// The end-to-end metrics plus the client-side per-kind latencies of the
// untraced pass.
void report_client(run_output& out, const std::vector<thread_log>& logs,
                   const window& w) {
  out.values["ops_per_s"] = count_ops(out, logs, w);
  const kind_latencies k = gather(logs);
  const auto& bfs = k.by_kind[kind_index(query_kind::bfs_distance)];
  out.values["p50_us"] = quantile(k.all, 0.5);
  out.values["p99_us"] = quantile(k.all, 0.99);
  out.values["bfs_p50_us"] = quantile(bfs, 0.5);
  out.values["kind.bfs_p99_us"] = quantile(bfs, 0.99);
  out.values["kind.cc_p50_us"] =
      quantile(k.by_kind[kind_index(query_kind::component_id)], 0.5);
  out.values["kind.kcore_p50_us"] =
      quantile(k.by_kind[kind_index(query_kind::coreness)], 0.5);
  out.values["kind.pagerank_p50_us"] =
      quantile(k.by_kind[kind_index(query_kind::pagerank_topk)], 0.5);
}

size_t flight_capacity(const std::vector<thread_log>& untraced) {
  size_t ops = 0;
  for (const auto& log : untraced) ops += log.ops;
  return std::min(kFlightCap, ops * 3 / 2 + 4096);
}

// ---- traced-pass accounting ---------------------------------------------------

// Engine and net counters at one instant of a traced pass.
struct engine_marks {
  obs::histogram_snapshot server, batch_width, batch_wait;
  std::array<obs::histogram_snapshot, engine::kNumQueryKinds> exec;
  uint64_t dedup = 0, bytes = 0, requests = 0, refused = 0;
  engine::cache_counters cache;
  uint64_t steals = 0, parks = 0;
};

engine_marks take_marks(engine::query_executor& ex, scheduler_probe& sched) {
  engine_marks m;
  auto& reg = ex.metrics();
  m.server = reg.get_histogram("engine_net_request_micros").snapshot();
  m.batch_width = reg.get_histogram("engine_batch_width").snapshot();
  m.batch_wait = reg.get_histogram("engine_batch_wait_micros").snapshot();
  for (size_t k = 0; k < engine::kNumQueryKinds; k++)
    m.exec[k] = reg.get_histogram(
                       std::string("engine_query_latency_micros{kind=\"") +
                       engine::query_kind_name(static_cast<query_kind>(k)) +
                       "\"}")
                    .snapshot();
  m.dedup = reg.get_counter("engine_batch_dedup_total").value();
  m.bytes = reg.get_counter("engine_net_bytes_total{dir=\"in\"}").value() +
            reg.get_counter("engine_net_bytes_total{dir=\"out\"}").value();
  m.requests = reg.get_counter("engine_net_requests_total").value();
  const auto st = ex.stats();
  m.cache = st.cache;
  m.refused = st.rejected + st.shed + st.cancelled + st.deadline_exceeded;
  sched.read(&m.steals, &m.parks);
  return m;
}

// Flight-recorder entries joined to the client-side samples by trace id.
struct flight_join {
  std::vector<double> queued, exec;
  std::vector<std::pair<const op_sample*, bool>> joined;  // (sample, cache hit)
};

flight_join join_flight(const obs::flight_recorder& fr,
                        const std::vector<thread_log>& logs) {
  const auto entries = fr.snapshot();
  std::unordered_map<uint64_t, const obs::flight_entry*> by_id;
  by_id.reserve(entries.size());
  for (const auto& e : entries) by_id[e.id.lo] = &e;
  flight_join j;
  for (const auto& log : logs)
    for (const auto& s : log.samples) {
      auto it = by_id.find(s.tid.lo);
      if (!s.tid.valid() || it == by_id.end() || it->second->id != s.tid)
        continue;
      j.queued.push_back(it->second->queued_micros);
      j.exec.push_back(it->second->exec_micros);
      j.joined.push_back({&s, it->second->cache_hit});
    }
  return j;
}

void report_engine(run_output& out, const engine_marks& a,
                   const engine_marks& b, const flight_join& j) {
  auto exec_p50 = [&](query_kind k) {
    return hist_delta(a.exec[kind_index(k)], b.exec[kind_index(k)]).p50();
  };
  out.values["engine.queued_us.mean"] = mean(j.queued);
  out.values["engine.queued_us.p99"] = quantile(j.queued, 0.99);
  out.values["engine.exec_us.bfs.p50"] = exec_p50(query_kind::bfs_distance);
  out.values["engine.exec_us.cc.p50"] = exec_p50(query_kind::component_id);
  out.values["engine.exec_us.kcore.p50"] = exec_p50(query_kind::coreness);
  out.values["engine.exec_us.pagerank.p50"] =
      exec_p50(query_kind::pagerank_topk);
  out.values["engine.exec_us.update.p50"] = exec_p50(query_kind::update);
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  out.values["engine.cache.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out.values["engine.cache.evictions"] =
      static_cast<double>(b.cache.evictions - a.cache.evictions);
  out.values["engine.batch.width_mean"] =
      hist_delta(a.batch_width, b.batch_width).mean();
  out.values["engine.batch.wait_us.p50"] =
      hist_delta(a.batch_wait, b.batch_wait).p50();
  out.values["engine.batch.dedup"] = static_cast<double>(b.dedup - a.dedup);
  out.values["engine.refused"] = static_cast<double>(b.refused - a.refused);
}

// Scheduler activity over the untraced window.
void report_parallel(run_output& out, const engine_marks& a,
                     const engine_marks& b, const window& w) {
  out.values["parallel.steals_per_s"] =
      static_cast<double>(b.steals - a.steals) / w.seconds();
  out.values["parallel.parks_per_s"] =
      static_cast<double>(b.parks - a.parks) / w.seconds();
}

// The wire decomposition: client mean = outside + handoff + queued + exec,
// where handoff is what the server holds a request beyond queue and
// execution (completion-thread wait, response build).
void report_net(run_output& out, const engine_marks& a, const engine_marks& b,
                const flight_join& j, const std::vector<thread_log>& logs) {
  const auto server = hist_delta(a.server, b.server);
  const double client = mean(gather(logs).all);
  out.values["net.client_us.mean"] = client;
  out.values["net.server_us.mean"] = server.mean();
  out.values["net.server_us.p99"] = server.p99();
  out.values["net.outside_server_us.mean"] = client - server.mean();
  out.values["net.handoff_us.mean"] =
      server.mean() - mean(j.queued) - mean(j.exec);
  const uint64_t requests = b.requests - a.requests;
  out.values["net.bytes_per_op"] =
      requests > 0 ? static_cast<double>(b.bytes - a.bytes) /
                         static_cast<double>(requests)
                   : 0.0;
}

// Encode + frame parse + decode, per message, on this workload's requests
// and answers.
void report_codec(run_output& out, const std::vector<op_spec>& ops,
                  const std::vector<engine::query_result>& answers) {
  constexpr size_t kIters = 8192;
  int64_t sink = 0;
  auto time_ns = [&](auto&& one) {
    const auto t0 = mono_now();
    for (size_t i = 0; i < kIters; i++) one(i);
    return micros_since(t0) * 1000.0 / static_cast<double>(kIters);
  };
  out.values["net.codec_ns.request"] = time_ns([&](size_t i) {
    auto q = to_wire(ops[i % ops.size()]);
    q.id = i + 1;
    const auto frame = net::encode_request_frame(q);
    size_t used = 0;
    const auto f = net::try_parse_frame(frame.data(), frame.size(), &used);
    sink += static_cast<int64_t>(
        net::decode_request(f->payload, f->payload_len, f->flags).source);
  });
  if (!answers.empty())
    out.values["net.codec_ns.response"] = time_ns([&](size_t i) {
      const auto frame = net::encode_response_frame(
          net::make_response(i + 1, answers[i % answers.size()]));
      size_t used = 0;
      const auto f = net::try_parse_frame(frame.data(), frame.size(), &used);
      sink += net::decode_response(f->payload, f->payload_len, f->flags).value;
    });
  keep(sink);
}

// ---- oracle -------------------------------------------------------------------

// Checks kept answers against the serial baselines on the generated graph.
class point_oracle {
 public:
  explicit point_oracle(const graph& g) : g_(g) {}

  void check(const checked_answer& c, run_output& out) {
    const auto& r = c.result;
    const vertex_id v = c.op.source;
    bool ok = true;
    switch (c.op.kind) {
      case query_kind::bfs_distance: {
        auto it = levels_.find(v);
        if (it == levels_.end())
          it = levels_.emplace(v, baseline::bfs_levels(g_, v)).first;
        ok = r.value == it->second[c.op.target];
        break;
      }
      case query_kind::component_id:
        if (cc_.empty())
          cc_ = canonical_labels(baseline::connected_components(g_));
        ok = r.value == static_cast<int64_t>(cc_[v]);
        break;
      case query_kind::coreness:
        if (core_.empty()) core_ = baseline::kcore(g_);
        ok = r.value == static_cast<int64_t>(core_[v]);
        break;
      case query_kind::pagerank_topk:
        ok = topk_ok(r.topk, c.op.k);
        break;
      default:
        ok = false;
    }
    if (!ok)
      out.fail(std::string("oracle: wrong ") +
               engine::query_kind_name(c.op.kind) + " answer for vertex " +
               std::to_string(v));
  }

 private:
  // Two converged PageRank runs agree to ~1e-6 in L1, so ranks are
  // compared with that slack and the list must be the k best up to it.
  bool topk_ok(const std::vector<std::pair<vertex_id, double>>& top,
               uint32_t k) {
    constexpr double kTol = 2e-6;
    if (rank_.empty()) {
      rank_ = baseline::pagerank(g_);
      sorted_ = rank_;
      std::sort(sorted_.begin(), sorted_.end(), std::greater<>());
    }
    const size_t want = std::min<size_t>(k, rank_.size());
    if (top.size() != want) return false;
    for (size_t i = 0; i < top.size(); i++) {
      const auto [v, rank] = top[i];
      if (v >= rank_.size() || std::fabs(rank - rank_[v]) > kTol) return false;
      if (rank_[v] < sorted_[want - 1] - kTol) return false;
      if (i > 0 && rank > top[i - 1].second) return false;
    }
    return true;
  }

  const graph& g_;
  std::unordered_map<vertex_id, std::vector<int64_t>> levels_;
  std::vector<vertex_id> cc_, core_;
  std::vector<double> rank_, sorted_;
};

void check_answers(const graph& g, const std::vector<thread_log>& logs,
                   run_output& out) {
  point_oracle oracle(g);
  for (const auto& log : logs)
    for (const auto& c : log.checks) oracle.check(c, out);
}

// ---- per-layer probes shared by serve_mix and batch_bfs ----------------------

// Direct adapter calls on the traced pass's cache-missing queries (the
// algorithm floor under engine.exec_us), and traced calls for ligra.*.
void report_apps_sample(run_output& out, const graph& g,
                        const std::vector<stream>& streams,
                        const flight_join& j) {
  std::array<std::vector<op_spec>, engine::kNumQueryKinds> sample;
  for (const auto& [s, hit] : j.joined) {
    if (hit) continue;
    auto& v = sample[kind_index(s->kind)];
    if (v.size() < kSamplePerKind)
      v.push_back(streams[s->thread][s->index % kStreamLen]);
  }
  auto call = [&g](const op_spec& o) -> int64_t {
    switch (o.kind) {
      case query_kind::bfs_distance:
        return apps::bfs_hop_distance(g, o.source, o.target);
      case query_kind::component_id:
        return apps::component_id(g, o.source);
      case query_kind::coreness:
        return apps::vertex_coreness(g, o.source);
      default:
        return static_cast<int64_t>(apps::pagerank_topk(g, o.k).size());
    }
  };
  const std::pair<query_kind, const char*> names[] = {
      {query_kind::bfs_distance, "apps.bfs_hop_us.p50"},
      {query_kind::component_id, "apps.component_id_us.p50"},
      {query_kind::coreness, "apps.coreness_us.p50"},
      {query_kind::pagerank_topk, "apps.pagerank_topk_us.p50"}};
  int64_t sink = 0;
  for (const auto& [kind, name] : names) {
    std::vector<double> t;
    const auto start = mono_now();
    for (const auto& o : sample[kind_index(kind)]) {
      if (t.size() >= 3 && seconds_since(start) > kSampleSeconds) break;
      const auto t0 = mono_now();
      sink += call(o);
      t.push_back(micros_since(t0));
    }
    out.values[name] = median(t);
  }
  const std::pair<query_kind, const char*> traced[] = {
      {query_kind::bfs_distance, "bfs"},
      {query_kind::component_id, "cc"},
      {query_kind::pagerank_topk, "pagerank"}};
  for (const auto& [kind, app] : traced) {
    round_totals rt;
    const auto& v = sample[kind_index(kind)];
    for (size_t i = 0; i < std::min<size_t>(v.size(), 3); i++)
      rt.traced([&] { sink += call(v[i]); });
    rt.report(out, app);
  }
  keep(sink);
}

// Direct multi_bfs_distances on 64 stream pairs at a time; also the traced
// rounds of that kernel when `trace_rounds` (batch_bfs serves BFS with it).
void report_multi_bfs(run_output& out, const graph& g,
                      const std::vector<op_spec>& bfs_ops, bool trace_rounds) {
  std::vector<double> t;
  round_totals rt;
  int64_t sink = 0;
  for (size_t w = 0; w < 16 && (w + 1) * kWave <= bfs_ops.size(); w++) {
    std::vector<vertex_id> sources;
    std::vector<multi_bfs_pair> pairs;
    std::unordered_map<vertex_id, uint32_t> slot;
    for (size_t i = w * kWave; i < (w + 1) * kWave; i++) {
      auto [it, fresh] = slot.emplace(bfs_ops[i].source,
                                      static_cast<uint32_t>(sources.size()));
      if (fresh) sources.push_back(bfs_ops[i].source);
      pairs.push_back({it->second, bfs_ops[i].target});
    }
    const auto t0 = mono_now();
    sink += multi_bfs_distances(g, sources, pairs)[0];
    t.push_back(micros_since(t0));
    if (trace_rounds && w < 4)
      rt.traced([&] { sink += multi_bfs_distances(g, sources, pairs)[0]; });
  }
  out.values["ligra.multi_bfs64_us.p50"] = median(t);
  if (trace_rounds) rt.report(out, "bfs");
  keep(sink);
}

std::vector<op_spec> bfs_ops_of(const std::vector<stream>& streams) {
  std::vector<op_spec> v;
  for (const auto& s : streams)
    for (const auto& o : s)
      if (o.kind == query_kind::bfs_distance) v.push_back(o);
  return v;
}

std::vector<engine::query_result> answers_of(
    const std::vector<thread_log>& logs) {
  std::vector<engine::query_result> v;
  for (const auto& log : logs)
    for (const auto& c : log.checks) v.push_back(c.result);
  return v;
}

graph serving_graph(const run_config& cfg) {
  const int scale = cfg.quick ? 10 : 14;
  return gen::rmat_graph(scale, edge_id{16} << scale, kGraphSeed);
}

}  // namespace

// ---- serve_mix ----------------------------------------------------------------

run_output run_serve_mix(const run_config& cfg) {
  run_output out;
  const graph g = serving_graph(cfg);
  const std::string path = write_graph(cfg, "serve_mix", g);
  engine::registry reg;
  reg.load(kGraph, path);
  const zipf_vertices zipf(giant_component(g), cfg.seed);
  std::vector<stream> streams;
  for (size_t c = 0; c < kClients; c++)
    streams.push_back(
        mix_stream(cfg.seed, c, g.num_vertices(), zipf, {0.5, 0.7, 0.9}));

  scheduler_probe sched;
  auto wire_pass = [&](engine::executor_options eo, engine_marks* a,
                       engine_marks* b) {
    engine::query_executor ex(reg, eo);
    net::server srv(ex);
    srv.start();
    const window w(cfg.warmup, cfg.seconds);
    std::vector<thread_log> logs(kClients);
    run_threads(
        kClients,
        [&](size_t c) {
          wire_client(srv.port(), streams[c], static_cast<uint32_t>(c), w,
                      logs[c]);
        },
        w, [&] { *a = take_marks(ex, sched); },
        [&] { *b = take_marks(ex, sched); });
    srv.stop();
    return std::make_pair(std::move(logs), w);
  };

  engine_marks a, b;
  auto [logs, w] = wire_pass({}, &a, &b);
  report_client(out, logs, w);
  report_parallel(out, a, b, w);

  if (cfg.traced) {
    obs::flight_recorder fr(flight_capacity(logs));
    engine::executor_options eo;
    eo.flightrec = &fr;
    engine_marks ta, tb;
    auto [tlogs, tw] = wire_pass(eo, &ta, &tb);
    const double traced_ops = count_ops(out, tlogs, tw);
    const flight_join j = join_flight(fr, tlogs);
    report_engine(out, ta, tb, j);
    report_net(out, ta, tb, j, tlogs);
    report_codec(out, streams[0], answers_of(logs));
    out.values["obs.trace_overhead_frac"] =
        1.0 - traced_ops / out.values["ops_per_s"];

    // The same streams in process: the wire's whole share is the gap.
    {
      engine::query_executor ex(reg);
      const window iw(cfg.warmup, cfg.seconds / 2);
      std::vector<std::vector<double>> lat(kClients);
      run_threads(
          kClients,
          [&](size_t c) {
            for (size_t i = 0;; i++) {
              const auto t0 = mono_now();
              if (iw.over(t0)) break;
              try {
                ex.submit(to_request(streams[c][i % kStreamLen])).get();
              } catch (const std::exception&) {
                continue;
              }
              const auto t1 = mono_now();
              if (iw.counts(t0, t1)) lat[c].push_back(micros_between(t0, t1));
            }
          },
          iw, nullptr, nullptr);
      std::vector<double> all;
      for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
      out.values["engine.inproc_us.p50"] = quantile(all, 0.5);
      out.values["engine.inproc_us.p99"] = quantile(all, 0.99);
    }
    const graph& loaded = reg.get(kGraph)->structure();
    report_apps_sample(out, loaded, streams, j);
    report_multi_bfs(out, loaded, bfs_ops_of(streams), false);
    check_answers(g, tlogs, out);
  }
  check_answers(g, logs, out);
  out.values["setup_s"] =
      median_setup_seconds(5, 0.5, [&] { return load_seconds(path); });
  return out;
}

// ---- batch_bfs ----------------------------------------------------------------

run_output run_batch_bfs(const run_config& cfg) {
  run_output out;
  const graph g = serving_graph(cfg);
  const std::string path = write_graph(cfg, "batch_bfs", g);
  engine::registry reg;
  reg.load(kGraph, path);
  // Uniform (source, target) pairs: distinct keys, so the cache stays cold.
  std::vector<stream> streams(1, stream(kStreamLen));
  {
    const auto giant = giant_component(g);
    const rng r = rng(cfg.seed).fork(2000);
    for (size_t i = 0; i < kStreamLen; i++) {
      streams[0][i].source = giant[r.bounded(2 * i, giant.size())];
      streams[0][i].target =
          static_cast<vertex_id>(r.bounded(2 * i + 1, g.num_vertices()));
    }
  }
  const stream& pairs = streams[0];

  scheduler_probe sched;
  // One submitter: a wave of 64 submit() calls, then 64 get() calls.
  auto pass = [&](engine::executor_options eo, engine_marks* a,
                  engine_marks* b) {
    engine::query_executor ex(reg, eo);
    const window w(cfg.warmup, cfg.seconds);
    std::vector<thread_log> logs(1);
    run_threads(
        1,
        [&](size_t) {
          thread_log& log = logs[0];
          std::vector<std::future<engine::query_result>> futs(kWave);
          std::vector<monotonic_time> sent(kWave);
          for (size_t base = 0;; base += kWave) {
            if (w.over(mono_now())) break;
            for (size_t i = 0; i < kWave; i++) {
              sent[i] = mono_now();
              try {
                futs[i] =
                    ex.submit(to_request(pairs[(base + i) % kStreamLen]));
              } catch (const std::exception& e) {
                log.record_failure(e);
                futs[i] = {};
              }
            }
            for (size_t i = 0; i < kWave; i++) {
              const auto idx = static_cast<uint32_t>((base + i) % kStreamLen);
              if (!futs[i].valid()) continue;
              engine::query_result r;
              try {
                r = futs[i].get();
              } catch (const std::exception& e) {
                log.record_failure(e);
                continue;
              }
              log.ops++;
              const auto done = mono_now();
              if (!w.counts(sent[i], done)) continue;
              log.samples.push_back({0, idx, query_kind::bfs_distance,
                                     micros_between(sent[i], done), r.tid});
              if (log.samples.size() % kCheckEvery == 0)
                log.checks.push_back({pairs[idx], r});
            }
          }
        },
        w, [&] { *a = take_marks(ex, sched); },
        [&] { *b = take_marks(ex, sched); });
    return std::make_pair(std::move(logs), w);
  };

  engine_marks a, b;
  auto [logs, w] = pass({}, &a, &b);
  report_client(out, logs, w);
  report_parallel(out, a, b, w);

  if (cfg.traced) {
    obs::flight_recorder fr(flight_capacity(logs));
    engine::executor_options eo;
    eo.flightrec = &fr;
    engine_marks ta, tb;
    auto [tlogs, tw] = pass(eo, &ta, &tb);
    const double traced_ops = count_ops(out, tlogs, tw);
    const flight_join j = join_flight(fr, tlogs);
    report_engine(out, ta, tb, j);
    const auto inproc = gather(tlogs).all;
    out.values["engine.inproc_us.p50"] = quantile(inproc, 0.5);
    out.values["engine.inproc_us.p99"] = quantile(inproc, 0.99);
    out.values["obs.trace_overhead_frac"] =
        1.0 - traced_ops / out.values["ops_per_s"];
    const graph& loaded = reg.get(kGraph)->structure();
    report_apps_sample(out, loaded, streams, j);
    report_multi_bfs(out, loaded, pairs, true);
    check_answers(g, tlogs, out);
  }
  check_answers(g, logs, out);
  out.values["setup_s"] =
      median_setup_seconds(5, 0.5, [&] { return load_seconds(path); });
  return out;
}

// ---- rw_mutable ---------------------------------------------------------------

namespace {

// Batch b inserts 128 edges between uniform vertices of `giant` and deletes
// batch b-8's inserts; an insert that names an edge the same batch deletes
// is dropped. Endpoints stay inside the giant component: an insert that
// joined an isolated vertex made its later delete split a component, whose
// relabelling cost made the run-to-run spread a matter of how many such
// edges a seed drew.
std::vector<dynamic::update_batch> update_batches(
    uint64_t seed, const std::vector<vertex_id>& giant, size_t count) {
  const rng r = rng(seed).fork(3000);
  std::vector<dynamic::update_batch> out(count);
  uint64_t draw = 0;
  for (size_t b = 0; b < count; b++) {
    auto& batch = out[b];
    std::unordered_set<uint64_t> deleted;
    if (b >= kDeleteLag) {
      batch.deletes = out[b - kDeleteLag].inserts;
      for (const auto& e : batch.deletes)
        deleted.insert(uint64_t{e.u} << 32 | e.v);
    }
    while (batch.inserts.size() < kUpdateInserts) {
      auto u = giant[r.bounded(draw++, giant.size())];
      auto v = giant[r.bounded(draw++, giant.size())];
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (deleted.count(uint64_t{u} << 32 | v)) continue;
      batch.inserts.push_back({u, v});
    }
  }
  return out;
}

struct writer_log {
  std::vector<double> due_latency;  // receive - due, in-window batches
  std::vector<double> rtt;          // receive - send
  double max_lag = 0.0;             // send - due
  uint64_t acked = 0;               // all acked batches, warm-up included
  uint64_t acked_in_window = 0;
  int64_t last_epoch = 0;
  bool epochs_increasing = true;
  uint64_t failed = 0;
  std::string first_error;
};

// Open loop: batch i is due at start + i / kUpdateRate, whatever the
// previous batch's latency.
void writer(uint16_t port, const std::vector<dynamic::update_batch>& batches,
            size_t& next, const window& w, writer_log& log) {
  net::client c;
  const auto start = mono_now();
  for (size_t i = 0; next < batches.size(); i++, next++) {
    const auto due = start + std::chrono::duration_cast<monotonic_clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / kUpdateRate));
    if (w.over(due)) break;
    sleep_until(due);
    net::wire_request q;
    q.graph = kGraph;
    q.kind = query_kind::update;
    q.updates = batches[next];
    const auto sent = mono_now();
    try {
      if (!c.connected()) c.connect("127.0.0.1", port);
      const auto r = c.run(q);
      log.acked++;
      if (r.value <= log.last_epoch) log.epochs_increasing = false;
      log.last_epoch = r.value;
    } catch (const std::exception& e) {
      log.failed++;
      if (log.first_error.empty()) log.first_error = e.what();
      continue;
    }
    const auto done = mono_now();
    if (!w.counts(due, done)) continue;
    log.acked_in_window++;
    log.due_latency.push_back(micros_between(due, done));
    log.rtt.push_back(micros_between(sent, done));
    log.max_lag = std::max(log.max_lag, micros_between(due, sent));
  }
}

}  // namespace

run_output run_rw_mutable(const run_config& cfg) {
  run_output out;
  const graph g = serving_graph(cfg);
  const std::string path = write_graph(cfg, "rw_mutable", g);
  const std::string wal_dir = cfg.tmp + "/rw_mutable.wal";
  dynamic::durability_options dur;
  dur.wal.fsync = dynamic::fsync_policy::never;  // deployment setting

  auto metrics = std::make_unique<obs::metrics_registry>();
  auto reg = std::make_unique<engine::registry>(metrics.get());
  {
    engine::registry loader;
    reg->add_mutable(kGraph, loader.load(kGraph, path)->structure(), wal_dir,
                     dur);
  }

  const auto giant = giant_component(g);
  const zipf_vertices zipf(giant, cfg.seed);
  // Reads: 70% bfs, 20% cc, 10% top-k. Mutable cc and top-k come from the
  // epoch's state in ~0.1 ms and bfs takes ~0.7 ms; with half the reads
  // fast, the median sat on the edge between the two and jumped from run
  // to run.
  std::vector<stream> streams;
  for (size_t c = 0; c < kReaders; c++)
    streams.push_back(
        mix_stream(cfg.seed, c, g.num_vertices(), zipf, {0.7, 0.9, 0.9}));
  const size_t per_pass =
      static_cast<size_t>((cfg.warmup + cfg.seconds) * kUpdateRate) + 16;
  const auto batches =
      update_batches(cfg.seed, giant, per_pass * (cfg.traced ? 2 : 1));
  size_t next_batch = 0;
  uint64_t acked = 0;
  bool epochs_ok = true;

  scheduler_probe sched;
  auto pass = [&](engine::executor_options eo, engine_marks* a,
                  engine_marks* b) {
    engine::query_executor ex(*reg, eo);
    net::server srv(ex);
    srv.start();
    const window w(cfg.warmup, cfg.seconds);
    std::vector<thread_log> logs(kReaders);
    writer_log wl;
    run_threads(
        kReaders + 1,
        [&](size_t c) {
          if (c == kReaders)
            writer(srv.port(), batches, next_batch, w, wl);
          else
            wire_client(srv.port(), streams[c], static_cast<uint32_t>(c), w,
                        logs[c]);
        },
        w, [&] { *a = take_marks(ex, sched); },
        [&] { *b = take_marks(ex, sched); });
    srv.stop();
    acked += wl.acked;
    epochs_ok = epochs_ok && wl.epochs_increasing;
    out.attempted += wl.acked_in_window + wl.failed;
    if (wl.failed > 0) out.fail("update failed: " + wl.first_error, wl.failed);
    return std::make_tuple(std::move(logs), std::move(wl), w);
  };

  engine_marks a, b;
  auto [logs, wl, w] = pass({}, &a, &b);
  report_client(out, logs, w);
  out.values["kind.update_p99_us"] = quantile(wl.due_latency, 0.99);
  report_parallel(out, a, b, w);

  if (cfg.traced) {
    obs::flight_recorder fr(flight_capacity(logs) +
                            static_cast<size_t>(per_pass));
    engine::executor_options eo;
    eo.flightrec = &fr;
    auto& upd = metrics->get_histogram("engine_graph_update_micros");
    auto& wal = metrics->get_histogram("engine_wal_append_micros");
    auto& ckpt = metrics->get_histogram("engine_checkpoint_write_micros");
    auto& ckpts = metrics->get_counter("engine_checkpoint_writes_total");
    const auto upd0 = upd.snapshot(), wal0 = wal.snapshot(),
               ckpt0 = ckpt.snapshot();
    const uint64_t ckpts0 = ckpts.value();
    engine_marks ta, tb;
    auto [tlogs, twl, tw] = pass(eo, &ta, &tb);
    const double traced_ops = count_ops(out, tlogs, tw);
    const flight_join j = join_flight(fr, tlogs);
    report_engine(out, ta, tb, j);
    report_net(out, ta, tb, j, tlogs);
    report_codec(out, streams[0], answers_of(logs));
    const auto du = hist_delta(upd0, upd.snapshot());
    out.values["dynamic.update_us.p50"] = du.p50();
    out.values["dynamic.update_us.p99"] = du.p99();
    out.values["dynamic.update_rtt_us.p50"] = quantile(twl.rtt, 0.5);
    out.values["dynamic.wal_append_us.p99"] =
        hist_delta(wal0, wal.snapshot()).p99();
    out.values["dynamic.checkpoint_us.p99"] =
        hist_delta(ckpt0, ckpt.snapshot()).p99();
    out.values["dynamic.checkpoints"] =
        static_cast<double>(ckpts.value() - ckpts0);
    out.values["dynamic.epochs"] = static_cast<double>(twl.acked);
    out.values["dynamic.writer_lag_us.max"] = twl.max_lag;
    out.values["obs.trace_overhead_frac"] =
        1.0 - traced_ops / out.values["ops_per_s"];
  }

  // Oracle: the final epoch's incremental labels equal a full recompute,
  // and every acked batch published exactly one epoch.
  const auto entry = reg->get(kGraph);
  if (canonical_labels(entry->inc()->cc_labels) !=
      canonical_labels(baseline::connected_components(entry->structure())))
    out.fail("oracle: incremental cc labels differ from a full recompute");
  uint64_t version = 0;
  for (const auto& info : reg->list())
    if (info.name == kGraph) version = info.version;
  if (version != acked || reg->wal_stats(kGraph).last_seq != acked ||
      !epochs_ok)
    out.fail("oracle: " + std::to_string(acked) + " acked batches but " +
             std::to_string(version) + " published versions");

  // Set-up: the load plus add_mutable, which seeds the durable store and
  // the incremental CC and PageRank state.
  const std::string setup_dir = cfg.tmp + "/setup.wal";
  out.values["setup_s"] = median_setup_seconds(3, 0.5, [&] {
    std::filesystem::remove_all(setup_dir);
    engine::registry fresh;
    const auto t0 = mono_now();
    engine::registry loader;
    fresh.add_mutable(kGraph, loader.load(kGraph, path)->structure(),
                      setup_dir, dur);
    return seconds_since(t0);
  });
  return out;
}

}  // namespace suite
