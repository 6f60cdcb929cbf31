// The engine's one error taxonomy (docs/ROBUSTNESS.md, docs/NETWORK.md).
//
// Every way a query can end is one row of the status table in status.cc:
// its code (the wire byte — net::wire_status is this enum), the name the
// flight recorder, trace store, and wire_status_name print, the
// engine_stats counter it bumps, whether it carries retry_after advice,
// and how to rebuild the typed exception a local caller would catch.
// classify() maps any exception to its row; rethrow() goes the other way.
// The executor, the server, and the client all go through these two
// functions, so a future, a wire response, /traces, and /debug/flightrec
// always agree on a query's outcome. A new error type is one new row.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>

#include "engine/query.h"

namespace ligra::engine {

// The numbering is the wire byte: never renumber a row; a new status takes
// the next free code. `protocol` is produced by the network tier only.
enum class query_status : uint8_t {
  ok = 0,
  cancelled,      // cancelled_error
  deadline,       // deadline_exceeded_error
  shed,           // shed_error (retry_after)
  rejected,       // rejected_error (retry_after)
  not_found,      // not_found_error
  bad_request,    // malformed parameters: std::invalid_argument, bad_request_error
  load,           // load_error / update_error
  shutting_down,  // shutting_down_error (retry_after): server draining
  protocol,       // protocol_error: unparseable frame
  internal,       // anything else
};

inline constexpr size_t kNumStatuses = 11;

// Malformed request parameters as rebuilt from the wire. In process, bad
// parameters stay std::invalid_argument; both classify as bad_request.
class bad_request_error : public engine_error {
  using engine_error::engine_error;
};

// The server is draining: a rejection that says "try another replica".
class shutting_down_error : public rejected_error {
  using rejected_error::rejected_error;
};

// Structurally invalid bytes on the wire (net/protocol.h): bad magic,
// version, or type, an impossible length prefix, a failed CRC, or a
// payload that ends mid-field.
class protocol_error : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

// A classified outcome: status, message, and retry advice (rows that carry
// it only; 0 otherwise).
struct outcome {
  query_status status = query_status::ok;
  std::string message;
  uint32_t retry_after_ms = 0;
};

const char* status_name(query_status s);
// The engine_stats counter a settled query with this status bumps.
const char* status_counter(query_status s);

outcome classify(const std::exception_ptr& err);

// The typed exception for a non-ok status (null for ok).
std::exception_ptr make_error(query_status s, const std::string& message,
                              uint32_t retry_after_ms = 0);
// Throws make_error(...); returns normally for ok.
void rethrow(query_status s, const std::string& message,
             uint32_t retry_after_ms = 0);

}  // namespace ligra::engine
