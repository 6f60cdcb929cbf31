// Bounded retention ring for completed query traces — the slow-query log
// (docs/OBSERVABILITY.md).
//
// The executor inserts one trace_record per query worth keeping: every
// sampled query, and *always* queries that ended in an error outcome or
// ran slower than the configured threshold (executor_options). Each record
// carries the query summary (id, kind, graph, outcome, timings, retry
// advice for shed/rejected outcomes) plus — when the query ran with a
// trace armed — the full per-round/per-span JSON, so "why was this request
// slow?" is answerable after the fact via GET /traces/<id> or the REPL's
// `trace <id>` command.
//
// Concurrency: the ring index is claimed with a single atomic fetch_add —
// inserts from many dispatcher threads never contend on a shared lock —
// and each slot guards its shared_ptr payload with a per-slot mutex held
// only for the pointer swap/copy. Readers (find/recent, the HTTP
// endpoints) copy records out, so a reader never blocks an inserting
// dispatcher for longer than one pointer copy. Overwriting a still-present
// record is an eviction, counted in engine_traces_evicted_total alongside
// engine_traces_retained_total.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ligra::obs {

class metrics_registry;
class counter;

// One retained query. `trace_json` is empty for summary-only records
// (queries that were slow or failed without a trace armed).
struct trace_record {
  trace_id id{};
  uint64_t seq = 0;  // insertion order, assigned by the store (1-based)
  std::string kind;
  std::string graph;
  std::string outcome = "ok";  // engine::status_name (engine/status.h)
  bool sampled = false;
  bool cache_hit = false;
  uint64_t epoch = 0;
  double queued_micros = 0.0;
  double exec_micros = 0.0;
  uint32_t retry_after_ms = 0;  // shed/rejected advice the caller was given
  uint64_t rounds = 0;          // edge_map rounds the armed trace captured
  std::string error;            // message for non-ok outcomes
  std::string trace_json;       // query_trace::to_json(); "" = summary only

  // Summary object; with `full` the armed trace's rounds/spans JSON is
  // embedded under "trace" (null when none was armed).
  std::string to_json(bool full) const;
};

class trace_store {
 public:
  explicit trace_store(size_t capacity = 256,
                       metrics_registry* metrics = nullptr);

  trace_store(const trace_store&) = delete;
  trace_store& operator=(const trace_store&) = delete;

  void insert(trace_record r);

  // Most recent record with this id (ids recur only if a caller reuses
  // them). Linear scan — the ring is small and finds are operator-paced.
  std::optional<trace_record> find(const trace_id& id) const;

  // Newest-first; at most `max_records` (0 = everything retained).
  std::vector<trace_record> recent(size_t max_records = 0) const;

  // {"traces":[<summaries newest first>],"retained":N,"evicted":N,
  //  "capacity":N} — the GET /traces index body.
  std::string render_index_json(size_t max_records = 64) const;

  size_t capacity() const { return slots_.size(); }
  uint64_t retained() const {
    return retained_.load(std::memory_order_relaxed);
  }
  uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }

 private:
  struct slot {
    mutable std::mutex mu;
    std::shared_ptr<const trace_record> rec;
  };

  std::vector<slot> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> retained_{0};
  std::atomic<uint64_t> evicted_{0};
  counter* m_retained_ = nullptr;  // engine_traces_retained_total
  counter* m_evicted_ = nullptr;   // engine_traces_evicted_total
};

}  // namespace ligra::obs
