// Query server driver for the concurrent engine (docs/ENGINE.md): holds
// graphs resident in a registry and replays query workloads through the
// admission-controlled executor, reporting p50/p99 latency, throughput,
// cache hit rate, and rejection counts.
//
// Modes:
//   ./examples/query_server                       # built-in demo workload
//   ./examples/query_server -n 5000 -conc 8       # bigger synthetic replay
//       (-conc N: dispatcher threads, each running the bodies of the
//       queries it dequeues; default one per scheduler worker)
//   ./examples/query_server -requests reqs.txt -load social=g.adj,sym
//   ./examples/query_server -repl -load road=g.bin,weighted
//
// Network modes (docs/NETWORK.md) — the same binary is driver and daemon:
//   ./examples/query_server -listen 7471 -http-port 7472
//       serve the wire protocol on 7471 and GET /metrics + /healthz on
//       7472 until SIGINT/SIGTERM; shutdown stops admissions, drains
//       in-flight queries (bounded by -drain-ms, default 5000), and
//       checkpoints durable mutable graphs before exiting
//   ./examples/query_server -connect 127.0.0.1:7471 -conns 4 -n 1000
//       drive a running daemon over N concurrent client connections with
//       the synthetic mix (-graph picks the target graph, default social);
//       prints queries/sec and latency percentiles
//
// Robustness knobs (docs/ROBUSTNESS.md):
//   -deadline-ms N      per-query deadline on every replayed request
//   -cancel-rate F      cancel this fraction of requests right after submit
//   -low-rate F         mark this fraction low-priority (sheddable)
//   -shed-watermark N   shed low-priority submissions past this queue depth
//   -failpoints SPEC    arm failpoints, e.g. "cache.insert=fail,p=0.1"
//
// Durability knobs (docs/DURABILITY.md):
//   -wal-dir DIR        give every mutable graph a durable store under
//                       DIR/<name>: updates append to a write-ahead log
//                       before publishing, and an existing store is
//                       recovered (checkpoint + WAL replay) instead of
//                       starting fresh
//   -fsync POLICY       WAL fsync policy: always | interval | never
//   -checkpoint-interval N   checkpoint every N applied batches
//
// Observability knobs (docs/OBSERVABILITY.md):
//   -stats-interval S   every S seconds, print per-kind p50/p95/p99 latency
//                       and queue/running depth from the shared registry
//   -metrics-dump FMT   dump the full metrics registry at exit
//                       (FMT = text | json; default text)
//   -log-level L        structured-log threshold: debug|info|warn|error|off
//                       (default info)
//   -log-json           emit log lines as JSON objects instead of text
//   -trace-sample F     sample this fraction of queries server-side: full
//                       trace armed and retained in the trace store
//   -slow-trace-ms N    always retain queries slower than N ms (arms a
//                       trace on every query so slow ones have rounds)
//   In daemon mode the side port also serves GET /traces, /traces/<id>,
//   and /debug/flightrec; SIGUSR1 dumps the flight recorder to stderr.
//
// Request-file / REPL line format (one request per line, '#' comments):
//   <graph> bfs <source> <target>
//   <graph> sssp <source> <target>
//   <graph> pagerank <k>
//   <graph> cc <vertex>
//   <graph> kcore <vertex>
//   <graph> triangles
//   <graph> update <file>            # apply an edge-update batch (file
//   <graph> update +u,v -u,v ...     #   or inline); mutable graphs only
//     batch file lines: "u v" / "+ u v" (insert), "- u v" (delete)
// REPL extras: graphs | stats | metrics | trace <request> | clear-cache |
//              checkpoint <graph> | wal-stats <graph> | help | quit
//
// Load specs accept a `mutable` option (-load feed=g.adj,sym,mutable) to
// register the graph through add_mutable so `update` requests work on it;
// the demo set includes a mutable "feed" graph (docs/DYNAMIC.md).
//
// Every replay runs twice — cold (empty cache) and warm (same requests
// again) — so the cache's effect on p50 is visible directly.
//
// A flag no mode reads (a typo, or a retired option such as -no-pool) is
// refused: the binary prints "unknown flag -X" and exits 2.
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/checkpoint.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/collectors.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "util/cli.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace ligra;

namespace {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

// -wal-dir / -fsync / -checkpoint-interval: when wal_dir is non-empty,
// every mutable graph gets a durable store under wal_dir/<name> —
// recovered if state already exists there, created fresh otherwise.
struct durability_config {
  std::string wal_dir;  // empty = durability off
  dynamic::durability_options dur;
};

// Registers `name` as a mutable graph, durably when configured. `make`
// supplies the base graph only when no durable state exists — on recovery
// the checkpoint + WAL replay reconstruct it instead.
engine::graph_handle add_mutable_graph(engine::registry& reg,
                                       const std::string& name,
                                       const durability_config& dcfg,
                                       const std::function<graph()>& make) {
  if (dcfg.wal_dir.empty()) return reg.add_mutable(name, make());
  const std::string dir = dcfg.wal_dir + "/" + name;
  if (dynamic::durable_store::has_state(dir)) {
    dynamic::recovery_report rep;
    auto h = reg.recover_mutable(name, dir, dcfg.dur, {}, &rep);
    std::printf("recovered '%s' from %s: version %llu (checkpoint seq %llu, "
                "%llu wal records replayed)\n",
                name.c_str(), dir.c_str(),
                static_cast<unsigned long long>(h->dyn()->version()),
                static_cast<unsigned long long>(rep.checkpoint_seq),
                static_cast<unsigned long long>(rep.replayed));
    for (const auto& note : rep.notes)
      std::printf("  recovery note: %s\n", note.c_str());
    return h;
  }
  return reg.add_mutable(name, make(), dir, dcfg.dur);
}

// Parses "name=path[,weighted][,sym][,mutable]" and loads it.
void load_spec(engine::registry& reg, const std::string& spec,
               const durability_config& dcfg) {
  auto eq = spec.find('=');
  if (eq == std::string::npos)
    throw std::runtime_error("bad -load spec (want name=path[,opts]): " + spec);
  std::string name = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);
  engine::load_options opts;
  bool want_mutable = false;
  std::string path;
  std::stringstream ss(rest);
  std::string part;
  bool first = true;
  while (std::getline(ss, part, ',')) {
    if (first) {
      path = part;
      first = false;
    } else if (part == "weighted") {
      opts.weighted = true;
    } else if (part == "sym" || part == "symmetric") {
      opts.symmetric = true;
    } else if (part == "mutable") {
      want_mutable = true;
    } else {
      throw std::runtime_error("unknown -load option: " + part);
    }
  }
  if (want_mutable && opts.weighted)
    throw std::runtime_error(
        "mutable graphs are unweighted (drop 'weighted' from: " + spec + ")");
  auto h = reg.load(name, path, opts);
  if (want_mutable) {
    // Re-register through add_mutable so `update` requests work on it
    // (replaces the just-loaded static entry under the same name). With
    // -wal-dir, existing durable state wins over the file's contents.
    graph base(h->structure());
    h = add_mutable_graph(reg, name, dcfg,
                          [&]() { return std::move(base); });
  }
  std::printf("loaded '%s' from %s: %u vertices, %llu edges%s%s\n",
              name.c_str(), path.c_str(), h->num_vertices(),
              static_cast<unsigned long long>(h->num_edges()),
              h->weighted() ? ", weighted" : "",
              h->is_mutable() ? ", mutable" : "");
}

// One batch file line: "u v" or "+ u v" inserts, "- u v" deletes,
// '#' comments and blank lines skipped.
void read_batch_file(const std::string& path, dynamic::update_batch& batch) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open batch file: " + path);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    lineno++;
    std::stringstream ls(line);
    std::string first;
    if (!(ls >> first) || first[0] == '#') continue;
    bool is_delete = false;
    uint64_t u = 0, v = 0;
    if (first == "+" || first == "-") {
      is_delete = first == "-";
      if (!(ls >> u >> v))
        throw std::runtime_error("bad batch line " + std::to_string(lineno) +
                                 " in " + path + ": " + line);
    } else {
      u = std::stoull(first);
      if (!(ls >> v))
        throw std::runtime_error("bad batch line " + std::to_string(lineno) +
                                 " in " + path + ": " + line);
    }
    edge e{static_cast<vertex_id>(u), static_cast<vertex_id>(v)};
    (is_delete ? batch.deletes : batch.inserts).push_back(e);
  }
}

// Parses one request line; returns false on blank/comment lines.
bool parse_request(const std::string& line, engine::query_request& out) {
  std::stringstream ss(line);
  std::string graph_name, kind;
  if (!(ss >> graph_name)) return false;
  if (graph_name[0] == '#') return false;
  if (!(ss >> kind)) throw std::runtime_error("missing query kind: " + line);
  out = {};
  out.graph = graph_name;
  uint64_t a = 0, b = 0;
  if (kind == "bfs" || kind == "sssp") {
    if (!(ss >> a >> b))
      throw std::runtime_error("want '<graph> " + kind + " <src> <dst>': " + line);
    out.kind = kind == "bfs" ? engine::query_kind::bfs_distance
                             : engine::query_kind::sssp_distance;
    out.source = static_cast<vertex_id>(a);
    out.target = static_cast<vertex_id>(b);
  } else if (kind == "pagerank") {
    if (!(ss >> a)) a = 10;
    out.kind = engine::query_kind::pagerank_topk;
    out.k = static_cast<uint32_t>(a);
  } else if (kind == "cc" || kind == "kcore") {
    if (!(ss >> a))
      throw std::runtime_error("want '<graph> " + kind + " <vertex>': " + line);
    out.kind = kind == "cc" ? engine::query_kind::component_id
                            : engine::query_kind::coreness;
    out.source = static_cast<vertex_id>(a);
  } else if (kind == "triangles") {
    out.kind = engine::query_kind::triangle_count;
  } else if (kind == "update") {
    out.kind = engine::query_kind::update;
    auto batch = std::make_shared<dynamic::update_batch>();
    std::string tok;
    while (ss >> tok) {
      if (tok[0] == '+' || tok[0] == '-') {
        auto comma = tok.find(',');
        if (comma == std::string::npos || comma + 1 >= tok.size())
          throw std::runtime_error("want +u,v (insert) or -u,v (delete): " +
                                   tok);
        edge e{static_cast<vertex_id>(std::stoull(tok.substr(1, comma - 1))),
               static_cast<vertex_id>(std::stoull(tok.substr(comma + 1)))};
        (tok[0] == '+' ? batch->inserts : batch->deletes).push_back(e);
      } else {
        read_batch_file(tok, *batch);
      }
    }
    if (batch->empty())
      throw std::runtime_error(
          "want '<graph> update <file | +u,v -u,v ...>': " + line);
    out.updates = std::move(batch);
  } else {
    throw std::runtime_error("unknown query kind '" + kind + "' in: " + line);
  }
  return true;
}

struct replay_report {
  size_t completed = 0;
  size_t failed = 0;
  size_t cancelled = 0;  // caller-cancelled requests (-cancel-rate)
  size_t deadline = 0;   // requests past their -deadline-ms budget
  size_t shed = 0;       // low-priority submissions shed under load
  size_t retries = 0;    // submissions re-attempted after admission rejection
  double wall_seconds = 0;
  double p50 = 0, p99 = 0;  // end-to-end latency, microseconds
};

// Replays requests through the executor, retrying rejected submissions
// (bounded backpressure -> the client waits, nothing is dropped) and
// honoring shed advice (sleep retry_after, then drop the request — shed
// traffic is droppable by contract). A `cancel_rate` fraction of requests
// is cancelled right after submission to exercise the cancel path. Latency
// is end-to-end: submission attempt to future resolution.
replay_report replay(engine::query_executor& ex,
                     const std::vector<engine::query_request>& requests,
                     double cancel_rate = 0.0) {
  replay_report rep;
  std::vector<std::future<engine::query_result>> futures;
  std::vector<monotonic_time> starts;
  std::vector<engine::cancel_source> sources;  // keep cancelled tokens alive
  futures.reserve(requests.size());
  starts.reserve(requests.size());
  rng cancel_draw(7);
  const monotonic_time wall0 = mono_now();
  for (size_t i = 0; i < requests.size(); i++) {
    engine::query_request req = requests[i];
    bool cancel_this =
        cancel_rate > 0.0 &&
        static_cast<double>(cancel_draw[i] % 10000) < cancel_rate * 10000.0;
    if (cancel_this) {
      sources.emplace_back();
      req.token = sources.back().token();
    }
    const monotonic_time t0 = mono_now();
    while (true) {
      try {
        futures.push_back(ex.submit(req));
        starts.push_back(t0);
        if (cancel_this) sources.back().request_cancel();
        break;
      } catch (...) {
        const engine::outcome o = engine::classify(std::current_exception());
        if (o.status == engine::query_status::shed) {
          rep.shed++;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(o.retry_after_ms));
          break;  // shed low-priority work is dropped, not retried
        }
        if (o.status != engine::query_status::rejected &&
            o.status != engine::query_status::shutting_down)
          throw;
        rep.retries++;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (size_t i = 0; i < futures.size(); i++) {
    try {
      futures[i].get();
      latencies.push_back(micros_since(starts[i]));
      rep.completed++;
    } catch (...) {
      const engine::outcome o = engine::classify(std::current_exception());
      switch (o.status) {
        case engine::query_status::cancelled:
          rep.cancelled++;
          break;
        case engine::query_status::deadline:
          rep.deadline++;
          break;
        default:
          rep.failed++;
          std::fprintf(stderr, "request %zu failed: %s\n", i,
                       o.message.c_str());
      }
    }
  }
  rep.wall_seconds = micros_since(wall0) / 1e6;
  rep.p50 = percentile(latencies, 0.50);
  rep.p99 = percentile(latencies, 0.99);
  return rep;
}

void print_report(const char* label, const replay_report& r,
                  const engine::engine_stats_snapshot& snap) {
  std::printf(
      "%-6s %6zu ok %3zu failed | %8.2f req/s | p50 %9.1f us | p99 %9.1f us "
      "| cache %llu hits / %llu misses (%.1f%%) | rejected-retries %zu\n",
      label, r.completed, r.failed,
      r.wall_seconds > 0 ? static_cast<double>(r.completed) / r.wall_seconds : 0.0,
      r.p50, r.p99, static_cast<unsigned long long>(snap.cache.hits),
      static_cast<unsigned long long>(snap.cache.misses),
      100.0 * snap.cache.hit_rate(), r.retries);
  if (r.cancelled || r.deadline || r.shed)
    std::printf("%-6s %6zu cancelled, %zu deadline-exceeded, %zu shed\n",
                "", r.cancelled, r.deadline, r.shed);
}

// Mixed synthetic workload over the registered graphs: mostly point
// lookups (bfs/cc/kcore/sssp) with some heavier pagerank/triangle queries,
// drawn deterministically with repeated parameters so a warm replay hits.
std::vector<engine::query_request> synth_workload(engine::registry& reg,
                                                  size_t count) {
  auto infos = reg.list();
  std::vector<engine::query_request> reqs;
  reqs.reserve(count);
  rng r(42);
  for (size_t i = 0; i < count; i++) {
    const auto& info = infos[r[2 * i] % infos.size()];
    vertex_id n = info.num_vertices;
    // Draw vertices from a small pool (n/64) so the workload has repeats —
    // the regime where a result cache earns its keep.
    vertex_id pool = std::max<vertex_id>(1, n / 64);
    auto pick = [&](uint64_t salt) {
      return static_cast<vertex_id>(hash64(r[2 * i + 1] ^ salt) % pool);
    };
    engine::query_request q;
    q.graph = info.name;
    switch (r[2 * i + 1] % 10) {
      case 0: case 1: case 2:
        q.kind = engine::query_kind::bfs_distance;
        q.source = pick(1);
        q.target = pick(2);
        break;
      case 3: case 4:
        q.kind = info.weighted ? engine::query_kind::sssp_distance
                               : engine::query_kind::bfs_distance;
        q.source = pick(3);
        q.target = pick(4);
        break;
      case 5: case 6:
        q.kind = engine::query_kind::component_id;
        q.source = pick(5);
        break;
      case 7: case 8:
        q.kind = engine::query_kind::coreness;
        q.source = pick(6);
        break;
      default:
        q.kind = engine::query_kind::pagerank_topk;
        q.k = 5 + static_cast<uint32_t>(r[2 * i + 1] % 3) * 5;
        break;
    }
    reqs.push_back(std::move(q));
  }
  return reqs;
}

void print_stats(engine::query_executor& ex) {
  // Futures resolve just before the dispatcher clears its running count;
  // settle so the snapshot below reads 0 running after a drained replay.
  ex.wait_idle();
  auto s = ex.stats();
  std::printf("submitted %llu, completed %llu, failed %llu, rejected %llu, "
              "cancelled %llu, deadline-exceeded %llu, shed %llu; "
              "queue %zu, running %zu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.cancelled),
              static_cast<unsigned long long>(s.deadline_exceeded),
              static_cast<unsigned long long>(s.shed), s.queue_depth,
              s.running);
  std::printf("cache: %llu hits, %llu misses, %llu evictions (hit rate %.1f%%)\n",
              static_cast<unsigned long long>(s.cache.hits),
              static_cast<unsigned long long>(s.cache.misses),
              static_cast<unsigned long long>(s.cache.evictions),
              100.0 * s.cache.hit_rate());
  if (s.submitted > 0)
    std::printf("admission: shed %.1f%%, rejected %.1f%% of %llu submissions\n",
                100.0 * static_cast<double>(s.shed) /
                    static_cast<double>(s.submitted),
                100.0 * static_cast<double>(s.rejected) /
                    static_cast<double>(s.submitted),
                static_cast<unsigned long long>(s.submitted));
  for (size_t i = 0; i < engine::kNumQueryKinds; i++) {
    const auto& k = s.per_kind[i];
    if (k.count == 0) continue;
    std::printf("  %-10s %6llu executed, mean %9.1f us, p50 %9.1f, "
                "p95 %9.1f, p99 %9.1f, max %9.1f us\n",
                engine::query_kind_name(static_cast<engine::query_kind>(i)),
                static_cast<unsigned long long>(k.count), k.mean_micros(),
                k.p50_micros, k.p95_micros, k.p99_micros,
                static_cast<double>(k.max_micros));
  }
}

// -stats-interval: a background thread that reports per-kind latency
// digests (from the shared metrics registry, via the executor's histogram
// snapshots) and queue/running depth every `seconds` while work is in
// flight. Reports incremental counts since the previous tick so bursts are
// visible.
class periodic_reporter {
 public:
  periodic_reporter(engine::query_executor& ex, double seconds)
      : ex_(ex), seconds_(seconds) {
    if (seconds_ > 0) thread_ = std::thread([this] { loop(); });
  }
  ~periodic_reporter() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

 private:
  void loop() {
    const monotonic_time start = mono_now();
    double next = seconds_;
    uint64_t last_count[engine::kNumQueryKinds] = {};
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (seconds_since(start) < next) continue;
      next += seconds_;
      auto s = ex_.stats();  // histogram-backed p50/p95/p99 per kind
      std::printf("[stats %6.1fs] queue %zu running %zu\n",
                  seconds_since(start), s.queue_depth, s.running);
      for (size_t i = 0; i < engine::kNumQueryKinds; i++) {
        const auto& k = s.per_kind[i];
        if (k.count == 0) continue;
        std::printf("[stats %6.1fs]   %-10s %6llu done (+%llu), p50 %9.1f, "
                    "p95 %9.1f, p99 %9.1f us\n",
                    seconds_since(start),
                    engine::query_kind_name(static_cast<engine::query_kind>(i)),
                    static_cast<unsigned long long>(k.count),
                    static_cast<unsigned long long>(k.count - last_count[i]),
                    k.p50_micros, k.p95_micros, k.p99_micros);
        last_count[i] = k.count;
      }
      std::fflush(stdout);
    }
  }

  engine::query_executor& ex_;
  double seconds_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// SIGINT/SIGTERM land on a self-pipe: the handler only write()s (the one
// async-signal-safe thing worth doing) and the daemon loop does the actual
// drain on a normal thread. A second signal while draining exits hard.
// SIGUSR1 shares the pipe with a distinct byte: the daemon loop dumps the
// flight recorder and keeps serving.
int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_signals_seen{0};

extern "C" void on_shutdown_signal(int) {
  if (g_signals_seen.fetch_add(1) > 0) std::_Exit(130);
  char b = 1;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

extern "C" void on_flightrec_signal(int) {
  char b = 2;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

// -listen daemon mode: serve until SIGINT/SIGTERM, then shut down in
// order — stop the network tier (its own bounded drain), drain the
// executor, checkpoint every durable graph so recovery starts from the
// freshest snapshot instead of a long WAL replay.
int run_daemon(engine::query_executor& ex, const command_line& cli) {
  net::server_options sopts;
  sopts.port = static_cast<uint16_t>(cli.get_int("listen", 0));
  sopts.http_port = static_cast<int>(cli.get_int("http-port", -1));
  sopts.bind_address = cli.has("bind") ? cli.get_string("bind") : "127.0.0.1";
  sopts.max_inflight_per_conn =
      static_cast<size_t>(cli.get_int("max-inflight", 32));
  sopts.drain_deadline =
      std::chrono::milliseconds(cli.get_int("drain-ms", 5000));
  net::server srv(ex, sopts);
  try {
    srv.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start server: %s\n", e.what());
    return 1;
  }
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe() failed\n");
    return 1;
  }
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGUSR1, on_flightrec_signal);

  std::printf("serving queries on %s:%u", sopts.bind_address.c_str(),
              srv.port());
  if (sopts.http_port >= 0)
    std::printf(", /metrics + /healthz + /traces + /debug/flightrec on :%u",
                srv.http_port());
  std::printf(" (SIGINT/SIGTERM to drain and exit, SIGUSR1 to dump the "
              "flight recorder)\n");
  std::fflush(stdout);

  for (;;) {
    char b = 0;
    const ssize_t n = ::read(g_signal_pipe[0], &b, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || b != 2) break;  // byte 1 (or pipe failure): shut down
    // SIGUSR1: dump the flight recorder to stderr and keep serving.
    if (ex.flightrec() != nullptr)
      std::fprintf(stderr, "%s\n", ex.flightrec()->to_json().c_str());
    else
      std::fprintf(stderr, "{\"error\":\"flight recorder not attached\"}\n");
    std::fflush(stderr);
  }

  std::printf("shutdown: draining connections and in-flight queries...\n");
  std::fflush(stdout);
  srv.stop();
  const bool drained =
      ex.drain(std::chrono::milliseconds(cli.get_int("drain-ms", 5000)));
  size_t checkpointed = 0;
  for (const auto& g : ex.graphs().list()) {
    if (!ex.graphs().is_durable(g.name)) continue;
    try {
      ex.graphs().checkpoint(g.name);
      checkpointed++;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint '%s' failed: %s\n", g.name.c_str(),
                   e.what());
    }
  }
  auto s = ex.stats();
  std::printf("shutdown: %s, %llu queries completed this run, "
              "%zu durable graph(s) checkpointed\n",
              drained ? "drained clean" : "drain deadline hit",
              static_cast<unsigned long long>(s.completed), checkpointed);
  return 0;
}

// -connect client mode: N connections, each a thread running its share of
// a deterministic mixed workload through run_retrying (so shed/rejected
// advice is honored, not fatal).
int run_client_mode(const command_line& cli) {
  const std::string target = cli.get_string("connect");
  auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "want -connect host:port, got %s\n", target.c_str());
    return 1;
  }
  const std::string host = target.substr(0, colon);
  const uint16_t port =
      static_cast<uint16_t>(std::stoul(target.substr(colon + 1)));
  const size_t conns = static_cast<size_t>(cli.get_int("conns", 4));
  const size_t total = static_cast<size_t>(cli.get_int("n", 1000));
  const std::string graph_name =
      cli.has("graph") ? cli.get_string("graph") : "social";
  const uint32_t deadline_ms =
      static_cast<uint32_t>(cli.get_int("deadline-ms", 0));

  std::atomic<size_t> ok{0}, errors{0}, sheds{0}, rejects{0};
  std::vector<std::vector<double>> lat(conns);
  std::vector<std::thread> threads;
  const monotonic_time wall0 = mono_now();
  for (size_t t = 0; t < conns; t++) {
    threads.emplace_back([&, t] {
      net::client c;
      try {
        c.connect(host, port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "conn %zu: %s\n", t, e.what());
        errors.fetch_add(1);
        return;
      }
      rng r(17 + t);
      const size_t n = total / conns + (t < total % conns ? 1 : 0);
      size_t my_sheds = 0, my_rejects = 0;
      for (size_t i = 0; i < n; i++) {
        net::wire_request req;
        req.graph = graph_name;
        req.deadline_ms = deadline_ms;
        // Small vertex pool: repeats make the server's result cache earn
        // its keep, mirroring synth_workload.
        auto pick = [&](uint64_t salt) { return hash64(r[i] ^ salt) % 1024; };
        switch (r[i] % 4) {
          case 0:
            req.kind = engine::query_kind::bfs_distance;
            req.source = pick(1);
            req.target = pick(2);
            break;
          case 1:
            req.kind = engine::query_kind::component_id;
            req.source = pick(3);
            break;
          case 2:
            req.kind = engine::query_kind::coreness;
            req.source = pick(4);
            break;
          default:
            req.kind = engine::query_kind::pagerank_topk;
            req.k = 10;
            break;
        }
        const monotonic_time t0 = mono_now();
        try {
          c.run_retrying(req, 8, &my_sheds, &my_rejects);
          lat[t].push_back(micros_since(t0));
          ok.fetch_add(1);
        } catch (const std::exception& e) {
          if (errors.fetch_add(1) < 5)
            std::fprintf(stderr, "conn %zu request failed: %s\n", t, e.what());
          if (!c.connected()) return;  // connection gone; stop this thread
        }
      }
      sheds.fetch_add(my_sheds);
      rejects.fetch_add(my_rejects);
    });
  }
  for (auto& th : threads) th.join();
  const double wall = micros_since(wall0) / 1e6;

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::printf("%zu connections, %zu ok, %zu failed in %.2f s "
              "(%.1f queries/sec)\n",
              conns, ok.load(), errors.load(), wall,
              wall > 0 ? static_cast<double>(ok.load()) / wall : 0.0);
  std::printf("latency p50 %.1f us, p95 %.1f us, p99 %.1f us; "
              "absorbed %zu sheds, %zu rejections\n",
              percentile(all, 0.50), percentile(all, 0.95),
              percentile(all, 0.99), sheds.load(), rejects.load());
  return errors.load() == 0 || ok.load() > 0 ? 0 : 1;
}

void repl(engine::query_executor& ex) {
  std::printf("query> "); std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    try {
      if (line == "quit" || line == "exit") break;
      if (line == "help") {
        std::printf("  <graph> bfs <s> <t> | sssp <s> <t> | pagerank <k> | "
                    "cc <v> | kcore <v> | triangles\n"
                    "  <graph> update <file | +u,v -u,v ...>   apply an edge "
                    "batch (mutable graphs; returns the new epoch)\n"
                    "  trace <request>   run a query with traversal tracing, "
                    "print the trace JSON\n"
                    "  trace <32-hex-id>   look up a retained trace by id "
                    "(slow-query log)\n"
                    "  checkpoint <graph>   snapshot a durable mutable graph "
                    "and reset its WAL\n"
                    "  wal-stats <graph>    durable store counters "
                    "(docs/DURABILITY.md)\n"
                    "  graphs | stats | metrics | clear-cache | quit\n");
      } else if (line == "metrics") {
        std::fputs(ex.metrics().render_text().c_str(), stdout);
      } else if (line.rfind("trace ", 0) == 0) {
        const std::string arg = line.substr(6);
        // A lone 32-hex token is a retained-trace lookup; anything else is
        // the original trace-a-request path.
        if (auto tid = obs::trace_id::from_hex(arg)) {
          if (ex.traces() == nullptr) {
            std::printf("trace retention is off (set -trace-sample or "
                        "-slow-trace-ms)\n");
          } else if (auto rec = ex.traces()->find(*tid)) {
            std::printf("%s\n", rec->to_json(/*full=*/true).c_str());
          } else {
            std::printf("no retained trace with id %s\n", arg.c_str());
          }
        } else {
          engine::query_request req;
          if (parse_request(arg, req)) {
            obs::query_trace trace;
            req.trace = &trace;
            auto r = ex.run(req);
            std::printf("  = %lld   (%.1f us)\n",
                        static_cast<long long>(r.value), r.micros);
            std::printf("%s\n", trace.to_json().c_str());
          }
        }
      } else if (line == "graphs") {
        for (const auto& g : ex.graphs().list()) {
          std::printf("  %-12s epoch %llu, %u vertices, %llu edges, %.1f MB%s",
                      g.name.c_str(), static_cast<unsigned long long>(g.epoch),
                      g.num_vertices,
                      static_cast<unsigned long long>(g.num_edges),
                      static_cast<double>(g.memory_bytes) / 1e6,
                      g.weighted ? ", weighted" : "");
          if (g.is_mutable)
            std::printf(", mutable (v%llu, %zu delta edges)",
                        static_cast<unsigned long long>(g.version),
                        g.delta_edges);
          std::printf("\n");
        }
      } else if (line == "stats") {
        print_stats(ex);
      } else if (line.rfind("checkpoint ", 0) == 0) {
        const std::string name = line.substr(11);
        ex.graphs().checkpoint(name);
        auto ws = ex.graphs().wal_stats(name);
        std::printf("  checkpointed '%s' at seq %llu (wal reset, %llu "
                    "checkpoints this run)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(ws.checkpoint_seq),
                    static_cast<unsigned long long>(ws.checkpoints));
      } else if (line.rfind("wal-stats ", 0) == 0) {
        const std::string name = line.substr(10);
        auto ws = ex.graphs().wal_stats(name);
        std::printf("  dir %s (fsync=%s)\n"
                    "  wal: base seq %llu, last seq %llu, %llu bytes, "
                    "%llu appends, %llu fsyncs\n"
                    "  checkpoints: newest at seq %llu, %llu written, "
                    "%llu batches since\n",
                    ws.dir.c_str(), ws.fsync.c_str(),
                    static_cast<unsigned long long>(ws.base_seq),
                    static_cast<unsigned long long>(ws.last_seq),
                    static_cast<unsigned long long>(ws.wal_bytes),
                    static_cast<unsigned long long>(ws.appends),
                    static_cast<unsigned long long>(ws.fsyncs),
                    static_cast<unsigned long long>(ws.checkpoint_seq),
                    static_cast<unsigned long long>(ws.checkpoints),
                    static_cast<unsigned long long>(ws.since_checkpoint));
      } else if (line == "clear-cache") {
        ex.cache().clear();
      } else {
        engine::query_request req;
        if (parse_request(line, req)) {
          auto r = ex.run(req);
          if (req.kind == engine::query_kind::pagerank_topk) {
            for (const auto& [v, rank] : r.topk)
              std::printf("  %u: %.6f\n", v, rank);
          } else {
            std::printf("  = %lld", static_cast<long long>(r.value));
          }
          std::printf("   (%.1f us%s)\n", r.micros,
                      r.cache_hit ? ", cached" : "");
        }
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
    std::printf("query> "); std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char* argv[]) {
  command_line cli(argc, argv);
  // Every flag any mode reads. Anything else is a typo or a retired option;
  // refuse it rather than run a different configuration than was asked for.
  const auto unknown = cli.unknown_flags({
      "bind", "cache", "cancel-rate", "checkpoint-interval", "conc",
      "connect", "conns", "deadline-ms", "drain-ms", "failpoints",
      "flightrec-capacity", "fsync", "graph", "http-port", "listen", "load",
      "log-json", "log-level", "low-rate", "max-inflight", "metrics-dump",
      "n", "queue", "repl", "requests", "shed-watermark", "slow-trace-ms",
      "stats-interval", "trace-capacity", "trace-sample", "wal-dir"});
  for (const auto& name : unknown)
    std::fprintf(stderr, "unknown flag -%s\n", name.c_str());
  if (!unknown.empty()) return 2;
  // Client mode needs no graphs or executor of its own — it talks to a
  // daemon that has them.
  if (cli.has("connect")) return run_client_mode(cli);
  // One shared metrics registry for the whole process: graph residency,
  // executor, cache, scheduler, and failpoints all publish into it, so
  // `-metrics-dump` / the REPL `metrics` command scrape everything at once.
  obs::metrics_registry metrics;
  obs::install_failpoint_collector(metrics);
  obs::install_scheduler_collector(metrics);

  // Structured logging: one process-wide logger behind every converted
  // warning site (docs/OBSERVABILITY.md). Drops are counted into
  // engine_log_dropped_total via the shared registry.
  if (cli.has("log-level")) {
    obs::log_level lvl;
    if (!obs::parse_log_level(cli.get_string("log-level"), &lvl)) {
      std::fprintf(stderr,
                   "bad -log-level (want debug|info|warn|error|off): %s\n",
                   cli.get_string("log-level").c_str());
      return 1;
    }
    obs::logger::global().set_level(lvl);
  }
  if (cli.has("log-json")) obs::logger::global().set_json(true);
  obs::logger::global().set_metrics(&metrics);

  engine::registry reg(&metrics);

  // Durability: -wal-dir roots the per-graph stores; -fsync and
  // -checkpoint-interval tune the policy (docs/DURABILITY.md).
  durability_config dcfg;
  dcfg.wal_dir = cli.get_string("wal-dir");
  try {
    if (cli.has("fsync"))
      dcfg.dur.wal.fsync = dynamic::parse_fsync_policy(cli.get_string("fsync"));
    if (cli.has("checkpoint-interval"))
      dcfg.dur.checkpoint_interval =
          static_cast<uint32_t>(cli.get_int("checkpoint-interval", 64));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad durability flag: %s\n", e.what());
    return 1;
  }
  if (!dcfg.wal_dir.empty())
    std::printf("durable mutable graphs under %s (fsync=%s, "
                "checkpoint every %u batches)\n",
                dcfg.wal_dir.c_str(),
                dynamic::fsync_policy_name(dcfg.dur.wal.fsync),
                dcfg.dur.checkpoint_interval);

  // Graphs: explicit -load specs, else the built-in demo pair.
  bool loaded = false;
  try {
    for (const auto& pos : cli.positional()) {
      if (pos.find('=') != std::string::npos) {
        load_spec(reg, pos, dcfg);
        loaded = true;
      }
    }
    if (cli.has("load")) {
      load_spec(reg, cli.get_string("load"), dcfg);
      loaded = true;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load failed: %s\n", e.what());
    return 1;
  }
  if (!loaded) {
    // Demo residents: a power-law "social" graph, a weighted 3-D torus
    // "road" network — the two traversal regimes of the paper — and a
    // mutable power-law "feed" graph for `update` requests.
    std::printf("registering demo graphs (use -load name=path to override)\n");
    reg.add("social", gen::rmat_graph(/*scale=*/14, /*num_edges=*/1 << 18));
    reg.add("road",
            gen::add_random_weights(gen::grid3d_graph(/*side=*/24), 1, 16));
    add_mutable_graph(reg, "feed", dcfg, [] {
      return gen::rmat_graph(/*scale=*/13, /*num_edges=*/1 << 16);
    });
  }
  for (const auto& g : reg.list())
    std::printf("  resident: %-8s %u vertices, %llu edges%s\n", g.name.c_str(),
                g.num_vertices, static_cast<unsigned long long>(g.num_edges),
                g.weighted ? " (weighted)" : "");

  engine::executor_options opts;
  opts.max_concurrency = static_cast<size_t>(cli.get_int("conc", 0));
  opts.max_queue = static_cast<size_t>(cli.get_int("queue", 256));
  opts.cache_capacity = static_cast<size_t>(cli.get_int("cache", 4096));
  opts.shed_watermark =
      static_cast<size_t>(cli.get_int("shed-watermark", 0));
  opts.metrics = &metrics;

  // Query observability: trace retention ring + flight recorder, always
  // attached so GET /traces, /debug/flightrec, SIGUSR1, and the REPL's
  // `trace <id>` work out of the box. -trace-sample / -slow-trace-ms widen
  // what the store keeps beyond errors.
  obs::trace_store traces(
      static_cast<size_t>(cli.get_int("trace-capacity", 256)), &metrics);
  obs::flight_recorder flightrec(
      static_cast<size_t>(cli.get_int("flightrec-capacity", 512)));
  opts.traces = &traces;
  opts.flightrec = &flightrec;
  opts.trace_sample_rate = cli.get_double("trace-sample", 0.0);
  opts.slow_trace_micros =
      static_cast<uint64_t>(cli.get_int("slow-trace-ms", 0)) * 1000;
  engine::query_executor ex(reg, opts);

  if (cli.has("failpoints")) {
    try {
      ligra::util::failpoint::configure(cli.get_string("failpoints"));
      if (!ligra::util::failpoint::compiled_in())
        std::fprintf(stderr,
                     "warning: failpoints compiled out "
                     "(LIGRA_FAILPOINTS_ENABLED=OFF); -failpoints ignored\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad -failpoints spec: %s\n", e.what());
      return 1;
    }
  }

  // -metrics-dump [text|json]: full registry exposition at exit.
  auto maybe_dump_metrics = [&] {
    if (!cli.has("metrics-dump")) return;
    if (cli.get_string("metrics-dump") == "json")
      std::printf("%s\n", metrics.render_json().c_str());
    else
      std::fputs(metrics.render_text().c_str(), stdout);
  };

  if (cli.has("listen")) {
    int rc = run_daemon(ex, cli);
    maybe_dump_metrics();
    return rc;
  }

  if (cli.has("repl")) {
    repl(ex);
    maybe_dump_metrics();
    return 0;
  }

  std::vector<engine::query_request> requests;
  if (cli.has("requests")) {
    std::string path = cli.get_string("requests");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open request file: %s\n", path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      engine::query_request req;
      if (parse_request(line, req)) requests.push_back(std::move(req));
    }
    std::printf("replaying %zu requests from %s\n", requests.size(),
                path.c_str());
  } else {
    size_t n = static_cast<size_t>(cli.get_int("n", 1000));
    requests = synth_workload(reg, n);
    std::printf("replaying %zu synthetic mixed requests\n", requests.size());
  }

  // Robustness knobs applied to the whole workload.
  const int64_t deadline_ms = cli.get_int("deadline-ms", 0);
  const double cancel_rate = cli.get_double("cancel-rate", 0.0);
  const double low_rate = cli.get_double("low-rate", 0.0);
  if (deadline_ms > 0)
    for (auto& q : requests) q.deadline = std::chrono::milliseconds(deadline_ms);
  if (low_rate > 0.0) {
    rng low_draw(11);
    for (size_t i = 0; i < requests.size(); i++)
      if (static_cast<double>(low_draw[i] % 10000) < low_rate * 10000.0)
        requests[i].priority = engine::query_priority::low;
  }

  // Cold pass (empty cache), then warm pass over the identical workload.
  periodic_reporter reporter(ex, cli.get_double("stats-interval", 0.0));
  ex.cache().clear();
  auto cold = replay(ex, requests, cancel_rate);
  auto cold_snap = ex.stats();
  print_report("cold", cold, cold_snap);
  auto warm = replay(ex, requests, cancel_rate);
  auto warm_snap = ex.stats();
  print_report("warm", warm, warm_snap);

  std::printf("\nwarm p50 %.1f us vs cold p50 %.1f us (%.1fx); "
              "cache served %llu of %zu warm requests\n",
              warm.p50, cold.p50, warm.p50 > 0 ? cold.p50 / warm.p50 : 0.0,
              static_cast<unsigned long long>(warm_snap.cache.hits -
                                              cold_snap.cache.hits),
              requests.size());
  std::printf("\n");
  print_stats(ex);
  maybe_dump_metrics();
  return 0;
}
