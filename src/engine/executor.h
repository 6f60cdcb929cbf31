// Admission-controlled query executor (docs/ENGINE.md, docs/ROBUSTNESS.md).
//
// submit() resolves the graph handle (pinning the graph for the query's
// lifetime), probes the result cache — a hit settles the query at once
// without touching the admission queue — and otherwise enqueues the request
// into a bounded queue drained by `max_concurrency` dispatcher threads. A
// full queue rejects immediately (rejected_error): callers see
// backpressure, the engine never deadlocks or grows unboundedly. Past
// `shed_watermark`, low-priority requests are shed immediately (shed_error
// with retry_after advice) so paying traffic keeps the remaining queue
// slots.
//
// Every admitted query delivers its outcome the one way: a one-shot
// continuation (settle_fn) called exactly once, by whichever path settles
// it. The future returned by submit(req) is an adapter over it.
//
// Lifecycle robustness: every query with a deadline or caller token runs
// under a derived cancel_source. The query body polls the token at round
// boundaries and bails with a typed error; a watchdog thread additionally
// settles the query (and trips the token) at the deadline for bodies that
// never poll, so an outcome is never late just because a body is
// uncooperative. Late results from an already-settled job are discarded.
//
// The dispatchers are the serving compute threads: each runs the body of
// the query it dequeued to completion, itself. A dispatcher is not a pool
// worker, so parallel constructs inside a body run inline on it; served
// bodies are point searches and lookups, cheaper than a hand-off to the
// pool would be (docs/ENGINE.md "Dispatchers run the bodies").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "engine/cancel.h"
#include "engine/query.h"
#include "engine/registry.h"
#include "engine/result_cache.h"
#include "engine/stats.h"
#include "engine/status.h"
#include "obs/metrics.h"

namespace ligra {
struct edge_map_scratch;   // ligra/edge_map.h
struct point_bfs_scratch;  // ligra/point_bfs.h
}  // namespace ligra

namespace ligra::obs {
class trace_store;      // obs/trace_store.h
class flight_recorder;  // obs/flight_recorder.h
}  // namespace ligra::obs

namespace ligra::engine {

// A query's one-shot continuation: the result on success (`r` non-null,
// `err` null; the callee may move from *r), or the typed error (`r` null).
// Contract in docs/ENGINE.md "Settling by continuation".
using settle_fn = std::function<void(query_result* r, std::exception_ptr err)>;

struct executor_options {
  // Concurrent queries in flight, one dispatcher thread each. 0 picks
  // parallel::num_workers().
  size_t max_concurrency = 0;
  // Admitted-but-not-running requests before submit() rejects.
  size_t max_queue = 256;
  // Queue depth at/above which low-priority submissions are shed
  // immediately with shed_error + retry_after advice. 0 disables shedding.
  size_t shed_watermark = 0;
  // Result-cache entries; 0 disables caching.
  size_t cache_capacity = 1024;
  // Publish stats/cache/queue metrics into this registry (so one exposition
  // covers the executor alongside the graph registry, scheduler, and
  // failpoints). Null = the executor creates and owns a private registry,
  // reachable via metrics() — per-executor counts stay isolated by default.
  obs::metrics_registry* metrics = nullptr;

  // --- query observability (docs/OBSERVABILITY.md) -------------------------
  // All four default to "off"; a query touches none of this machinery
  // unless a store/recorder is attached (pay-for-what-you-touch).
  //
  // Caller-owned retention ring for completed traces: sampled queries are
  // always retained, and every query ending in an error outcome (or slower
  // than slow_trace_micros) is retained too — with full per-round JSON when
  // a trace was armed, summary-only otherwise. Must outlive the executor.
  obs::trace_store* traces = nullptr;
  // Caller-owned ring of per-query summaries recording *every* outcome
  // (including shed/rejected refusals). Must outlive the executor.
  obs::flight_recorder* flightrec = nullptr;
  // Fraction of submissions sampled server-side (full trace armed +
  // retained) on top of requests that arrive with sampled=true. 0 = only
  // explicit requests sample.
  double trace_sample_rate = 0.0;
  // Completed queries at/above this execution time are retained in the
  // trace store even when unsampled — and every query is armed with a
  // trace so the slow ones have rounds to show. 0 disables slow retention
  // (and the always-armed cost that comes with it).
  uint64_t slow_trace_micros = 0;
};

class query_executor {
 public:
  explicit query_executor(registry& graphs, executor_options opts = {});
  ~query_executor();  // drains the queue, then joins dispatchers + watchdog

  query_executor(const query_executor&) = delete;
  query_executor& operator=(const query_executor&) = delete;

  // Asynchronous submission. Throws rejected_error if the admission queue
  // is full or the executor is draining, shed_error if the request was
  // load-shed; `on_settle` is then never called. Otherwise it is called
  // exactly once with the outcome — query-level failures (unknown graph,
  // bad vertex, cancellation, deadline, ...) as typed exceptions — on
  // whichever thread settles the query: this one (cache hit, unknown
  // graph), a dispatcher, or the watchdog. It must not block or throw.
  void submit(query_request req, settle_fn on_settle);
  // The same, delivered through a future.
  std::future<query_result> submit(query_request req);

  // Synchronous execution on the calling thread through the same lifecycle
  // as submit() (same cache, stats, records, and continuation), minus
  // admission control and the watchdog — deadlines are enforced by polling
  // only. The REPL/test path.
  query_result run(const query_request& req);

  engine_stats_snapshot stats() const;
  result_cache& cache() { return cache_; }
  registry& graphs() { return registry_; }
  // The registry every engine_* metric lands in (the caller-provided one,
  // or the executor's private registry when executor_options::metrics was
  // null). render_text()/render_json() on it is the scrape endpoint.
  obs::metrics_registry& metrics() { return *metrics_; }

  // The retention rings attached at construction (null when off). The
  // network tier serves GET /traces and /debug/flightrec from these.
  obs::trace_store* traces() const { return opts_.traces; }
  obs::flight_recorder* flightrec() const { return opts_.flightrec; }
  // True when any observability sink is attached — the executor then mints
  // trace ids for requests that arrive without one.
  bool observing() const {
    return opts_.traces != nullptr || opts_.flightrec != nullptr;
  }

  // Records a request the network tier refused before it reached
  // admission (draining, in-flight cap, unrepresentable vertex id) in the
  // flight recorder and trace store, like any other outcome. It bumps no
  // engine_queries_* counter: the executor never saw the query.
  void observe_refusal(query_request req, const outcome& o);

  size_t queue_depth() const;
  // Blocks until no request is queued or running.
  void wait_idle();

  // Graceful shutdown: stops admissions (submit() afterwards throws
  // rejected_error with retry advice), then waits up to `deadline` for the
  // queue and running set to empty. Returns true when fully drained, false
  // when the deadline passed with work still in flight (the executor keeps
  // running it; the destructor still joins). Idempotent.
  bool drain(std::chrono::milliseconds deadline);
  bool draining() const;

 private:
  struct job {
    query_request req;
    graph_handle handle;
    bool cacheable = false;
    cache_key key;
    settle_fn on_settle;
    // Derived from req.token + req.deadline; inactive token when neither
    // is set (zero per-round polling cost).
    cancel_source source;
    cancel_token token;
    // Open "queued" span in the effective trace; SIZE_MAX when untraced.
    size_t queued_span = SIZE_MAX;
    // Observability (docs/OBSERVABILITY.md): the correlation id (mirrors
    // req.tid after minting), whether this query samples, the
    // executor-armed trace (when the caller didn't bring one), and the
    // effective trace pointer the body installs (caller's or owned).
    obs::trace_id tid{};
    bool sampled = false;
    std::unique_ptr<obs::query_trace> owned_trace;
    obs::query_trace* trace = nullptr;
    monotonic_time submit_t0;
    double queued_micros = 0.0;
    uint64_t epoch = 0;
    std::chrono::steady_clock::time_point deadline_at =
        std::chrono::steady_clock::time_point::max();
    // finish() ran: the outcome is recorded. Touched only by the thread
    // running the job's lifecycle (never the watchdog).
    bool finished = false;
    // Whoever exchanges this false->true calls on_settle; the loser (a
    // dispatcher finishing after the watchdog fired, or vice versa)
    // discards its result.
    std::atomic<bool> settled{false};
  };
  using job_ptr = std::shared_ptr<job>;

  void dispatcher_loop();
  void watchdog_loop();
  // The job prologue submit() and run() share: stats, trace id and
  // sampling, graph lookup, the submit-time cache probe, trace arming, and
  // the deadline source. An unknown graph or a cache hit comes back already
  // finished (on_settle called).
  job_ptr make_job(query_request req, settle_fn on_settle);
  // The one query lifecycle (docs/ENGINE.md). Prologue: close the queued
  // span, and finish the job without running it if its token tripped while
  // it waited. Body: execute(), on the calling thread. Epilogue: finish().
  // `scratch` and `pb_scratch` are the calling dispatcher's edge_map round
  // scratch and point-BFS marks (null: the body allocates its own), so
  // steady-state queries allocate no traversal working memory.
  void run_job(job& j, edge_map_scratch* scratch,
               point_bfs_scratch* pb_scratch);
  // Settles `j` with `r` (null on failure) or `err`, unless the watchdog
  // got there first: cache put, stats, observation, and on_settle — in
  // that order, exactly once per job.
  void finish(job& j, double exec_micros, query_result* r,
              std::exception_ptr err = nullptr);
  // Per-submission sampling draw against opts_.trace_sample_rate.
  bool draw_sample();
  // Fills a finished (or refused) query's one record, obs::flight_entry,
  // and records it in the flight recorder; when the retention rules say so
  // (sampled, non-ok outcome, or exec >= slow_trace_micros) the trace store
  // keeps it too, with the error text and trace JSON. `r` is null for
  // non-ok outcomes. No-op when observing() is false.
  void observe_done(const job& j, const outcome& o, double exec_micros,
                    const query_result* r);
  // The query body proper; throws on bad requests. A member (not static)
  // because the `update` kind routes through registry_.apply_updates. cc,
  // coreness and top-k are lookups into the entry's per-epoch analytics;
  // bfs is one point search (ligra/point_bfs.h) through `pb_scratch`,
  // over the live base+delta view on mutable entries.
  query_result execute(const query_request& req, const graph_entry& e,
                       const cancel_token& token,
                       point_bfs_scratch* pb_scratch);
  static cache_key make_key(const query_request& req, uint64_t epoch);

  registry& registry_;
  executor_options opts_;
  // Declared before cache_/stats_: both resolve their metric handles against
  // *metrics_ during construction.
  std::unique_ptr<obs::metrics_registry> owned_metrics_;
  obs::metrics_registry* metrics_;
  result_cache cache_;
  engine_stats stats_;
  obs::gauge* g_queue_depth_;  // engine_queue_depth
  obs::gauge* g_running_;      // engine_running

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<job_ptr> queue_;
  size_t running_ = 0;
  bool stop_ = false;
  bool draining_ = false;  // admissions closed; queued work still runs
  std::vector<std::thread> dispatchers_;

  // Deadline watchdog: min-heap of (deadline, job) the watchdog thread
  // sleeps on; jobs register at submit() when they carry a deadline.
  struct wd_entry {
    std::chrono::steady_clock::time_point at;
    std::weak_ptr<job> j;
    friend bool operator>(const wd_entry& a, const wd_entry& b) {
      return a.at > b.at;
    }
  };
  std::mutex wd_mutex_;
  std::condition_variable wd_cv_;
  std::priority_queue<wd_entry, std::vector<wd_entry>, std::greater<>> wd_heap_;
  bool wd_stop_ = false;
  std::thread watchdog_;

  // Counter feeding the deterministic-per-process sampling hash draw.
  std::atomic<uint64_t> sample_ctr_{0};
};

}  // namespace ligra::engine
