// Per-query traversal tracing (docs/OBSERVABILITY.md).
//
// A query_trace explains one query end-to-end: edge_map appends one round
// event per call (the traversal direction the hybrid picked, the frontier
// size and out-degree sum it decided on, the m/threshold_denominator
// operand, and the round's wall time), and the engine/adapters wrap phases
// (queued, execute, load, rounds, finalize) in spans.
//
// Delivery is by thread-local installation, not plumbing: whoever owns a
// trace installs it with a trace_scope on the thread that will run the
// query body; edge_map and span_scope look up obs::current_trace() — a
// single thread-local load — and no-op on nullptr. The disabled cost at an
// edge_map call site is therefore one TLS read and a predictable branch
// per *round* (never per edge); apps, kernels, and the scheduler are
// untouched when tracing is off.
//
// Events may be appended from the submitting thread (queue spans) and the
// body thread (rounds); the trace serializes appends with a mutex. That
// mutex is only ever taken when tracing is *on*, and at round granularity.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.h"

namespace ligra::obs {

// 128-bit query correlation id, minted client- or server-side and carried
// on the wire (net/protocol.h), stamped into results, retained trace
// records, flight-recorder entries, and log lines. Zero means "absent" —
// a request without observability enabled never pays for one.
struct trace_id {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool valid() const { return (hi | lo) != 0; }
  bool operator==(const trace_id& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const trace_id& o) const { return !(*this == o); }

  // 32 lowercase hex chars, no separators (the /traces/<id> URL form).
  std::string to_hex() const;
  // Parses exactly 32 hex chars; nullopt on anything else.
  static std::optional<trace_id> from_hex(std::string_view s);
  // Fresh, never-zero id: per-thread entropy mixed with a process-wide
  // counter, so concurrent minters never collide.
  static trace_id mint();
};

// One edge_map call under this trace.
struct trace_round {
  uint32_t index = 0;          // 1-based position within the trace
  const char* direction = "";  // "sparse" | "dense" | "dense-fwd" (static)
  uint64_t frontier_size = 0;  // |U|
  uint64_t frontier_edges = 0; // outdeg(U)
  uint64_t threshold = 0;      // dense iff |U| + outdeg(U) > threshold
  double micros = 0.0;         // wall time of the traversal itself
  uint64_t blocks = 0;         // edge blocks processed (sparse only)
  uint64_t scratch_bytes = 0;  // round-scratch capacity backing this call
};

// One phase of the query (load, rounds, finalize, queued, execute...).
// Spans may nest and interleave; consumers reconstruct structure from the
// start offsets.
struct trace_span {
  std::string name;
  double start_micros = 0.0;  // offset from trace construction
  double micros = -1.0;       // duration; -1 while still open
};

class query_trace {
 public:
  query_trace();
  query_trace(const query_trace&) = delete;
  query_trace& operator=(const query_trace&) = delete;

  void add_round(const char* direction, uint64_t frontier_size,
                 uint64_t frontier_edges, uint64_t threshold, double micros,
                 uint64_t blocks = 0, uint64_t scratch_bytes = 0);

  // Opens a span; the returned token closes it. Tokens index into the span
  // list, so spans from different threads can interleave safely.
  size_t begin_span(const std::string& name);
  void end_span(size_t token);

  std::vector<trace_round> rounds() const;
  std::vector<trace_span> spans() const;

  // {"rounds": [{round, dir, frontier, out_edges, threshold, micros,
  //              blocks, scratch_bytes}...],
  //  "spans": [{name, start_micros, micros}...]}
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  monotonic_time start_;
  std::vector<trace_round> rounds_;
  std::vector<trace_span> spans_;
};

namespace detail {
// Defined inline, as edge_map.h's tl_scratch is. An `extern thread_local`
// makes GCC test its TLS init hook and add the variable's offset from the
// GOT; the linker relaxes that add to a flag-less lea, so under
// -fsanitize=null the null check reads the hook test's flags and every
// store here reported a store to a null pointer.
inline thread_local query_trace* tl_trace = nullptr;
inline thread_local trace_id tl_trace_id = {};
}  // namespace detail

// The trace id of the query running on this thread (zero when none). The
// structured logger (obs/log.h) attaches it to every line automatically,
// which is how a WAL warning fired from inside a query body ends up
// correlated with the request that caused it.
inline trace_id current_trace_id() { return detail::tl_trace_id; }

// Installs `id` as the current trace id for this scope; restores the
// previous id on destruction so scopes nest (executor around a query body,
// REPL around a command, ...).
class trace_id_scope {
 public:
  explicit trace_id_scope(trace_id id) : prev_(detail::tl_trace_id) {
    detail::tl_trace_id = id;
  }
  ~trace_id_scope() { detail::tl_trace_id = prev_; }
  trace_id_scope(const trace_id_scope&) = delete;
  trace_id_scope& operator=(const trace_id_scope&) = delete;

 private:
  trace_id prev_;
};

// The trace installed on this thread, or nullptr. The only thing a
// disabled call site pays for.
inline query_trace* current_trace() { return detail::tl_trace; }

// Installs `t` as the current trace for this scope (nullptr is allowed and
// suspends tracing). Restores the previous trace on destruction, so scopes
// nest.
class trace_scope {
 public:
  explicit trace_scope(query_trace* t) : prev_(detail::tl_trace) {
    detail::tl_trace = t;
  }
  ~trace_scope() { detail::tl_trace = prev_; }
  trace_scope(const trace_scope&) = delete;
  trace_scope& operator=(const trace_scope&) = delete;

 private:
  query_trace* prev_;
};

// RAII phase annotation against the current trace; free when none is
// installed.
class span_scope {
 public:
  explicit span_scope(const char* name) : trace_(current_trace()) {
    if (trace_ != nullptr) token_ = trace_->begin_span(name);
  }
  ~span_scope() {
    if (trace_ != nullptr) trace_->end_span(token_);
  }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

 private:
  query_trace* trace_;
  size_t token_ = 0;
};

}  // namespace ligra::obs
