#include "engine/executor.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "apps/query_adapters.h"
#include "ligra/edge_map.h"
#include "ligra/point_bfs.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "parallel/scheduler.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ligra::engine {

namespace {

void check_vertex(const char* what, vertex_id v, vertex_id n) {
  if (v >= n)
    throw std::invalid_argument(std::string(what) + ": vertex " +
                                std::to_string(v) + " out of range [0, " +
                                std::to_string(n) + ")");
}

// Round-boundary poll hook for point BFS (same shape the app adapters
// use); empty for inactive tokens so the per-round branch is free.
std::function<void()> poll_of(const cancel_token& token) {
  if (!token.active()) return {};
  return [token] { token.poll(); };
}

// The typed error for a tripped token: deadline or caller cancel.
std::exception_ptr stop_error(const cancel_token& token, const char* when) {
  return token.deadline_exceeded()
             ? make_error(query_status::deadline,
                          std::string("query deadline exceeded ") + when)
             : make_error(query_status::cancelled,
                          std::string("query cancelled ") + when);
}

}  // namespace

query_executor::query_executor(registry& graphs, executor_options opts)
    : registry_(graphs),
      opts_(opts),
      owned_metrics_(opts.metrics == nullptr
                         ? std::make_unique<obs::metrics_registry>()
                         : nullptr),
      metrics_(opts.metrics != nullptr ? opts.metrics : owned_metrics_.get()),
      cache_(opts.cache_capacity, metrics_),
      stats_(*metrics_),
      g_queue_depth_(&metrics_->get_gauge("engine_queue_depth")),
      g_running_(&metrics_->get_gauge("engine_running")) {
  // Force pool construction from this thread before any dispatcher starts:
  // lazy construction from a dispatcher would make it worker 0, so its
  // bodies alone would fork into the pool.
  size_t workers = static_cast<size_t>(parallel::num_workers());
  if (opts_.max_concurrency == 0) opts_.max_concurrency = workers;
  if (opts_.max_queue == 0) opts_.max_queue = 1;
  dispatchers_.reserve(opts_.max_concurrency);
  for (size_t i = 0; i < opts_.max_concurrency; i++)
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

query_executor::~query_executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : dispatchers_) t.join();
  {
    std::lock_guard<std::mutex> lock(wd_mutex_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  watchdog_.join();
}

cache_key query_executor::make_key(const query_request& req, uint64_t epoch) {
  cache_key key;
  key.epoch = epoch;
  key.kind = req.kind;
  switch (req.kind) {
    case query_kind::bfs_distance:
    case query_kind::sssp_distance:
      key.a = req.source;
      key.b = req.target;
      break;
    case query_kind::pagerank_topk:
      key.b = req.k;
      break;
    case query_kind::component_id:
    case query_kind::coreness:
      key.a = req.source;
      break;
    case query_kind::triangle_count:
    case query_kind::update:  // never cacheable; no key parameters
    case query_kind::custom:
      break;
  }
  return key;
}

query_result query_executor::execute(const query_request& req,
                                     const graph_entry& e,
                                     const cancel_token& token,
                                     point_bfs_scratch* pb_scratch) {
  query_result r;
  r.kind = req.kind;
  // cc, coreness and top-k read the epoch's analytics arrays, filled once
  // per epoch on first use (docs/ENGINE.md "Per-epoch analytics"). The fill
  // polls no query's token, so this one is polled once the array is ready.
  auto ready = [&token](const auto& array) -> const auto& {
    token.poll();
    return array;
  };
  switch (req.kind) {
    case query_kind::bfs_distance: {
      // One bidirectional search (ligra/point_bfs.h); a mutable entry is
      // searched over its live base+delta view.
      obs::span_scope rounds("rounds");
      r.value = e.is_mutable()
                    ? point_bfs(*e.dyn(), req.source, req.target,
                                poll_of(token), pb_scratch)
                    : point_bfs(e.structure(), req.source, req.target,
                                poll_of(token), pb_scratch);
      break;
    }
    case query_kind::sssp_distance:
      r.value = apps::sssp_distance(e.weights(), req.source, req.target, token);
      break;
    case query_kind::pagerank_topk:
      r.topk = apps::topk_ranks(ready(e.ranks()), req.k);
      r.value = static_cast<int64_t>(r.topk.size());
      break;
    case query_kind::component_id:
      check_vertex("component_id", req.source, e.num_vertices());
      r.value = ready(e.labels())[req.source];
      break;
    case query_kind::coreness:
      check_vertex("vertex_coreness", req.source, e.num_vertices());
      r.value = ready(e.coreness())[req.source];
      break;
    case query_kind::triangle_count:
      r.value = static_cast<int64_t>(apps::count_triangles(e.structure(), token));
      break;
    case query_kind::update: {
      if (!req.updates)
        throw engine_error("update query without a batch");
      // The entry resolved at submission pins the *old* epoch; the apply
      // resolves the name again so serialized batches chain correctly.
      graph_handle next = registry_.apply_updates(req.graph, *req.updates);
      r.value = static_cast<int64_t>(next->epoch());
      break;
    }
    case query_kind::custom:
      if (!req.custom)
        throw engine_error("custom query without a callable");
      r.value = req.custom(e, token);
      break;
  }
  return r;
}

bool query_executor::draw_sample() {
  if (opts_.trace_sample_rate <= 0.0) return false;
  if (opts_.trace_sample_rate >= 1.0) return true;
  // Hash draw over a process-wide counter: deterministic per process (no
  // clock reads on the submit path), uniform, and lock-free.
  const uint64_t n = sample_ctr_.fetch_add(1, std::memory_order_relaxed);
  const double u =
      static_cast<double>(hash64(n) >> 11) * 0x1.0p-53;  // [0, 1)
  return u < opts_.trace_sample_rate;
}

void query_executor::observe_done(const job& j, const outcome& o,
                                  double exec_micros, const query_result* r) {
  if (!observing()) return;
  obs::flight_entry e;
  e.id = j.tid;
  e.set_kind(query_kind_name(j.req.kind));
  e.set_graph(j.req.graph);
  e.set_outcome(status_name(o.status));
  e.sampled = j.sampled;
  e.epoch = j.epoch;
  e.queued_micros = j.queued_micros;
  e.exec_micros = exec_micros;
  if (j.trace != nullptr)
    e.rounds = static_cast<uint32_t>(j.trace->rounds().size());
  e.retry_after_ms = o.retry_after_ms;
  if (r != nullptr) {
    // Approximate wire size of the answer (net/protocol.h response body).
    e.result_bytes = 8 + 12 * r->topk.size();
    e.cache_hit = r->cache_hit;
  }
  if (opts_.flightrec != nullptr) opts_.flightrec->record(e);
  if (opts_.traces == nullptr) return;
  // Retention rules (docs/OBSERVABILITY.md): sampled queries always; every
  // non-ok outcome always; slow queries always.
  const bool slow =
      opts_.slow_trace_micros > 0 &&
      exec_micros >= static_cast<double>(opts_.slow_trace_micros);
  if (!j.sampled && o.status == query_status::ok && !slow) return;
  opts_.traces->insert(
      {e, o.message, j.trace != nullptr ? j.trace->to_json() : std::string()});
}

void query_executor::observe_refusal(query_request req, const outcome& o) {
  if (!observing()) return;
  job j;
  j.req = std::move(req);
  j.tid = j.req.tid;
  j.sampled = j.req.sampled;
  observe_done(j, o, 0.0, nullptr);
}

void query_executor::finish(job& j, double exec_micros, query_result* r,
                            std::exception_ptr err) {
  j.finished = true;
  if (j.settled.exchange(true)) {
    // Late outcome: the watchdog already settled (and counted)
    // deadline_exceeded. Retained with the body's real cost — exactly the
    // query a post-mortem wants to see (what was still burning CPU after
    // its deadline), with every round the body ran.
    observe_done(j,
                 {query_status::deadline,
                  "query deadline exceeded (watchdog): late result discarded"},
                 exec_micros, nullptr);
    return;
  }
  const outcome o = r != nullptr ? outcome{} : classify(err);
  if (r != nullptr) {
    r->micros = exec_micros;
    r->tid = j.tid;
    if (!r->cache_hit) {
      if (j.cacheable) {
        // Inserted before on_settle runs: a caller that observes its result
        // and immediately resubmits the same key must hit.
        try {
          cache_.put(j.key, std::make_shared<query_result>(*r));
        } catch (...) {
          // Cache insertion failure (failpoint or allocation) never fails a
          // completed query — the answer still goes out, just uncached.
        }
      }
      stats_.record_latency(j.req.kind, exec_micros);
    }
  }
  stats_.record(o.status);
  observe_done(j, o, exec_micros, r);
  // Moved out so whatever the continuation captured is released as soon as
  // it returns. Empty only for a refusal, which submit() throws instead.
  if (settle_fn fn = std::move(j.on_settle)) fn(r, std::move(err));
}

query_executor::job_ptr query_executor::make_job(query_request req,
                                                 settle_fn on_settle) {
  stats_.record_submitted();
  auto j = std::make_shared<job>();
  j->req = std::move(req);
  j->on_settle = std::move(on_settle);
  j->submit_t0 = mono_now();
  // Mint a correlation id for requests that arrive without one whenever a
  // sink is attached; echo a caller-supplied id either way. Sampling is
  // sticky from here: the wire bit (or the server-side draw) decides once.
  if (observing() && !j->req.tid.valid()) j->req.tid = obs::trace_id::mint();
  j->tid = j->req.tid;
  j->sampled = j->req.sampled || (observing() && draw_sample());

  j->handle = registry_.try_get(j->req.graph);
  if (!j->handle) {
    finish(*j, 0.0, nullptr,
           make_error(query_status::not_found,
                      "no graph named '" + j->req.graph + "' is registered"));
    return j;
  }
  j->epoch = j->handle->epoch();

  j->cacheable = j->req.kind != query_kind::custom &&
                 j->req.kind != query_kind::update && cache_.capacity() > 0 &&
                 j->req.trace == nullptr;
  if (j->cacheable) {
    j->key = make_key(j->req, j->epoch);
    if (auto cached = cache_.get(j->key)) {
      query_result r = *cached;
      r.cache_hit = true;
      finish(*j, 0.0, &r);
      return j;
    }
  }

  // Arm an executor-owned trace when the caller didn't bring one and the
  // retention rules could want rounds to show: sampled queries, queries
  // that can end in a deadline, and (when slow retention is configured)
  // every query. Owned traces do NOT disable caching — the cacheable
  // decision above only looks at caller traces, so a sampled query still
  // fills the cache for its unsampled siblings.
  if (j->req.trace != nullptr) {
    j->trace = j->req.trace;
  } else if (opts_.traces != nullptr &&
             (j->sampled || j->req.deadline.count() > 0 ||
              opts_.slow_trace_micros > 0)) {
    j->owned_trace = std::make_unique<obs::query_trace>();
    j->trace = j->owned_trace.get();
  }

  // Layer the per-query deadline on top of any caller token. Queries with
  // neither keep an inactive token: the apps then skip the per-round poll
  // branch entirely.
  if (j->req.deadline.count() > 0)
    j->deadline_at = std::chrono::steady_clock::now() + j->req.deadline;
  if (j->req.token.active() ||
      j->deadline_at != std::chrono::steady_clock::time_point::max()) {
    j->source = cancel_source(j->req.token, j->deadline_at);
    j->token = j->source.token();
  }
  return j;
}

void query_executor::submit(query_request req, settle_fn on_settle) {
  job_ptr j = make_job(std::move(req), std::move(on_settle));
  if (j->finished) return;  // unknown graph or cache hit
  // Log lines fired from the admission path carry the query's id.
  obs::trace_id_scope id_scope(j->tid);

  std::exception_ptr refusal;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (opts_.shed_watermark > 0 && queue_.size() >= opts_.shed_watermark &&
        j->req.priority == query_priority::low) {
      // Advice scales with how far past the watermark the queue is: the
      // deeper the backlog, the longer the caller should stay away.
      auto over = queue_.size() - opts_.shed_watermark + 1;
      const auto advice_ms = static_cast<uint32_t>(
          std::min<uint64_t>(1000, 20 * static_cast<uint64_t>(over)));
      refusal = make_error(
          query_status::shed,
          "load shedding active (" + std::to_string(queue_.size()) +
              " pending >= watermark " + std::to_string(opts_.shed_watermark) +
              "); low-priority query shed",
          advice_ms);
      if (observing())
        obs::log_warn("engine", "query shed",
                      {{"kind", query_kind_name(j->req.kind)},
                       {"graph", j->req.graph},
                       {"queue_depth", queue_.size()},
                       {"retry_after_ms", advice_ms}});
    } else if (draining_) {
      refusal = make_error(query_status::rejected,
                           "executor draining; no new queries admitted", 1000);
    } else if (queue_.size() >= opts_.max_queue) {
      // Same advice scaling as shedding: a full queue is maximal overload,
      // so the advice starts where the shed formula's range does.
      const auto advice_ms = static_cast<uint32_t>(std::min<uint64_t>(
          1000, 20 * static_cast<uint64_t>(queue_.size() - opts_.max_queue + 1 +
                                           opts_.max_queue / 2)));
      refusal = make_error(query_status::rejected,
                           "admission queue full (" +
                               std::to_string(queue_.size()) +
                               " pending, limit " +
                               std::to_string(opts_.max_queue) +
                               "); retry later",
                           advice_ms);
      if (observing())
        obs::log_warn("engine", "query rejected",
                      {{"kind", query_kind_name(j->req.kind)},
                       {"graph", j->req.graph},
                       {"queue_depth", queue_.size()},
                       {"retry_after_ms", advice_ms}});
    } else {
      // The span must start before the queue lock drops: once push_back
      // publishes the job, the dispatcher may read queued_span concurrently.
      if (j->trace != nullptr) j->queued_span = j->trace->begin_span("queued");
      queue_.push_back(j);
      g_queue_depth_->set(static_cast<int64_t>(queue_.size()));
    }
  }
  if (refusal) {
    j->trace = nullptr;  // a refused query ran nothing: summary-only record
    j->on_settle = nullptr;  // the caller hears of it from the throw below
    finish(*j, 0.0, nullptr, refusal);
    std::rethrow_exception(refusal);
  }
  work_cv_.notify_one();

  if (j->deadline_at != std::chrono::steady_clock::time_point::max()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex_);
      wd_heap_.push(wd_entry{j->deadline_at, j});
    }
    wd_cv_.notify_one();
  }
}

std::future<query_result> query_executor::submit(query_request req) {
  auto promise = std::make_shared<std::promise<query_result>>();
  std::future<query_result> fut = promise->get_future();
  submit(std::move(req), [promise](query_result* r, std::exception_ptr err) {
    if (r != nullptr) {
      promise->set_value(std::move(*r));
    } else {
      promise->set_exception(std::move(err));
    }
  });
  return fut;
}

query_result query_executor::run(const query_request& req) {
  // submit()'s job, minus admission and the watchdog: the body runs here on
  // the calling thread, so the deadline is enforced by polling only (there
  // is no one to settle the caller's stack frame early), and the
  // continuation has run by the time run_job returns.
  query_result out;
  std::exception_ptr err;
  job_ptr j = make_job(req, [&](query_result* r, std::exception_ptr e) {
    if (r != nullptr) out = std::move(*r);
    err = std::move(e);
  });
  if (!j->finished) run_job(*j, nullptr, nullptr);
  if (err) std::rethrow_exception(err);
  return out;
}

void query_executor::run_job(job& j, edge_map_scratch* scratch,
                             point_bfs_scratch* pb_scratch) {
  // Prologue: close the queued span, and finish without running a job
  // whose token tripped while it waited — caller cancel, deadline, or the
  // watchdog (which trips the token before it settles the query).
  j.queued_micros = micros_since(j.submit_t0);
  if (j.trace != nullptr && j.queued_span != SIZE_MAX)
    j.trace->end_span(j.queued_span);
  if (j.token.should_stop()) {
    finish(j, 0.0, nullptr, stop_error(j.token, "while queued"));
    return;
  }
  query_result r;
  std::exception_ptr err;
  const monotonic_time t0 = mono_now();
  {
    // The body's context: the effective trace (caller's or executor-armed),
    // the trace id (so log lines fired inside the body correlate), and the
    // dispatcher's round scratch.
    obs::trace_scope tracing(j.trace);
    obs::trace_id_scope id_scope(j.tid);
    edge_map_scratch_scope scratch_scope(scratch);
    obs::span_scope span("execute");
    try {
      if (LIGRA_FAILPOINT("executor.dispatch"))
        throw engine_error(
            "injected dispatch failure (failpoint executor.dispatch)");
      r = execute(j.req, *j.handle, j.token, pb_scratch);
    } catch (...) {
      err = std::current_exception();
    }
  }
  finish(j, micros_since(t0), err ? nullptr : &r, err);
}

void query_executor::dispatcher_loop() {
  // This dispatcher's traversal working memory, reused by every query it
  // runs for the executor's lifetime: the edge_map round scratch
  // (ligra/edge_map.h scratch contract) and the point-BFS visited marks
  // (ligra/point_bfs.h). The dispatcher runs one body at a time, so
  // neither is ever shared by two queries.
  edge_map_scratch scratch;
  point_bfs_scratch pb_scratch;
  while (true) {
    job_ptr j;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // At stop_ the queue still drains before the dispatcher exits.
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      j = std::move(queue_.front());
      queue_.pop_front();
      running_++;
      g_queue_depth_->set(static_cast<int64_t>(queue_.size()));
      g_running_->set(static_cast<int64_t>(running_));
    }
    run_job(*j, &scratch, &pb_scratch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_--;
      g_running_->set(static_cast<int64_t>(running_));
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

void query_executor::watchdog_loop() {
  std::unique_lock<std::mutex> lock(wd_mutex_);
  while (true) {
    if (wd_stop_) return;
    if (wd_heap_.empty()) {
      wd_cv_.wait(lock, [this] { return wd_stop_ || !wd_heap_.empty(); });
      continue;
    }
    auto at = wd_heap_.top().at;
    if (std::chrono::steady_clock::now() < at) {
      // Sleeps until the earliest deadline or a new (earlier) registration.
      wd_cv_.wait_until(lock, at);
      continue;
    }
    auto entry = wd_heap_.top();
    wd_heap_.pop();
    job_ptr j = entry.j.lock();
    if (!j) continue;  // settled and destroyed long ago
    lock.unlock();
    // Trip the token (so a polling body exits at its next round) and settle
    // the query now: the caller gets deadline_exceeded at ~the deadline
    // even if the body never polls. The body's eventual outcome is recorded
    // by finish() as the late deadline it is.
    j->source.expire();
    if (!j->settled.exchange(true)) {
      stats_.record(query_status::deadline);
      if (settle_fn fn = std::move(j->on_settle))
        fn(nullptr, make_error(query_status::deadline,
                               "query deadline exceeded (watchdog): "
                               "body still running"));
    }
    lock.lock();
  }
}

engine_stats_snapshot query_executor::stats() const {
  engine_stats_snapshot snap;
  stats_.fill(snap);
  snap.cache = cache_.counters();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.queue_depth = queue_.size();
    snap.running = running_;
  }
  return snap;
}

size_t query_executor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void query_executor::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

bool query_executor::drain(std::chrono::milliseconds deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  return idle_cv_.wait_until(
      lock, std::chrono::steady_clock::now() + deadline,
      [this] { return queue_.empty() && running_ == 0; });
}

bool query_executor::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

}  // namespace ligra::engine
