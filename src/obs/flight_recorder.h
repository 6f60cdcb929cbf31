// Serving-tier flight recorder (docs/OBSERVABILITY.md): a fixed-size ring
// of one compact summary per query the executor finished (or refused) —
// the post-hoc "what was the server doing just before it misbehaved" view,
// dumped on GET /debug/flightrec and on SIGUSR1 in query_server.
//
// Unlike the trace store this records *every* query, so the entry is a
// fixed-width struct (inline char fields, no heap) and recording costs one
// atomic fetch_add to claim a slot plus one short per-slot mutex hold for
// the struct copy. The ring never allocates after construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace ligra::obs {

struct flight_entry {
  uint64_t seq = 0;  // recording order, assigned by the recorder (1-based)
  trace_id id{};
  char kind[12] = {};     // query_kind_name
  char graph[24] = {};    // registry name, truncated
  // engine::status_name of the outcome; engine/status.cc static_asserts
  // that every status name fits.
  char outcome[16] = {};
  uint64_t epoch = 0;
  double queued_micros = 0.0;
  double exec_micros = 0.0;
  uint32_t rounds = 0;
  uint32_t retry_after_ms = 0;
  uint64_t result_bytes = 0;  // approximate response payload size
  bool cache_hit = false;

  void set_kind(std::string_view s) { copy_into(kind, sizeof(kind), s); }
  void set_graph(std::string_view s) { copy_into(graph, sizeof(graph), s); }
  void set_outcome(std::string_view s) { copy_into(outcome, sizeof(outcome), s); }

  std::string to_json() const;

 private:
  static void copy_into(char* dst, size_t cap, std::string_view s) {
    const size_t n = s.size() < cap - 1 ? s.size() : cap - 1;
    std::memcpy(dst, s.data(), n);
    dst[n] = '\0';
  }
};

class flight_recorder {
 public:
  explicit flight_recorder(size_t capacity = 512);

  flight_recorder(const flight_recorder&) = delete;
  flight_recorder& operator=(const flight_recorder&) = delete;

  // Claims the next ring slot and copies `e` in (seq assigned here).
  void record(flight_entry e);

  // Every live entry, newest first.
  std::vector<flight_entry> snapshot() const;

  // {"entries":[<newest first>],"recorded":N,"capacity":N} — the
  // GET /debug/flightrec body and the SIGUSR1 dump.
  std::string to_json(size_t max_entries = 0) const;

  size_t capacity() const { return slots_.size(); }
  uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }

 private:
  struct slot {
    mutable std::mutex mu;
    flight_entry e;  // live iff e.seq != 0
  };

  std::vector<slot> slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace ligra::obs
