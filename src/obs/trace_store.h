// Bounded retention ring for completed query traces — the slow-query log
// (docs/OBSERVABILITY.md).
//
// The executor inserts one trace_record per query worth keeping: every
// sampled query, and *always* queries that ended in an error outcome or
// ran slower than the configured threshold (executor_options). A record is
// the query's flight_entry (obs/flight_recorder.h) — the same summary the
// flight recorder holds — plus the error message and, when the query ran
// with a trace armed, the full per-round/per-span JSON, so "why was this
// request slow?" is answerable after the fact via GET /traces/<id> or the
// REPL's `trace <id>` command.
//
// Concurrency: the store is a record_ring of shared_ptr<const
// trace_record>, so a reader (find/recent, the HTTP endpoints) holds a
// slot lock only for one pointer copy and never blocks an inserting
// dispatcher for longer. Every insert past capacity evicts the record it
// overwrites, counted in engine_traces_evicted_total alongside
// engine_traces_retained_total.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace ligra::obs {

class metrics_registry;
class counter;

// One retained query: its entry plus what only retention keeps.
struct trace_record : flight_entry {
  std::string error;       // message for non-ok outcomes
  std::string trace_json;  // query_trace::to_json(); "" = summary only

  // The entry's members and the error; with `full` the armed trace's
  // rounds/spans JSON is embedded under "trace" (null when none was armed).
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

  size_t capacity() const { return ring_.capacity(); }
  uint64_t retained() const { return ring_.pushed(); }
  uint64_t evicted() const {
    const uint64_t n = retained();
    return n > capacity() ? n - capacity() : 0;
  }

 private:
  record_ring<std::shared_ptr<const trace_record>> ring_;
  counter* m_retained_ = nullptr;  // engine_traces_retained_total
  counter* m_evicted_ = nullptr;   // engine_traces_evicted_total
};

}  // namespace ligra::obs
