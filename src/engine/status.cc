#include "engine/status.h"

#include <array>
#include <string_view>

#include "engine/registry.h"
#include "obs/flight_recorder.h"

namespace ligra::engine {

namespace {

using ms = std::chrono::milliseconds;

struct status_row {
  query_status code;
  const char* name;     // flight/trace outcome and wire_status_name
  const char* counter;  // engine_stats counter bumped at settlement
  // Does an exception belong to this row? Null for ok and for internal,
  // the fallback every unmatched exception lands in.
  bool (*matches)(const std::exception&);
  // The retry_after advice a matched exception carries; null = none.
  ms (*advice)(const std::exception&);
  // The typed exception a local caller would have caught; null for ok.
  std::exception_ptr (*rebuild)(const std::string& message, ms retry_after);
};

template <class... E>
bool is_any(const std::exception& e) {
  return ((dynamic_cast<const E*>(&e) != nullptr) || ...);
}

template <class E>
ms advice_of(const std::exception& e) {
  return static_cast<const E&>(e).retry_after;
}

template <class E>
std::exception_ptr make(const std::string& message, ms) {
  return std::make_exception_ptr(E(message));
}

template <class E>
std::exception_ptr make_advised(const std::string& message, ms retry_after) {
  return std::make_exception_ptr(E(message, retry_after));
}

constexpr const char* kFailed = "engine_queries_failed_total";
constexpr const char* kRejected = "engine_queries_rejected_total";

// Indexed by code. classify() scans from the highest code down, so a type
// derived from another row's type (shutting_down_error from rejected_error)
// must take the higher code — which appending a new row gives it anyway.
constexpr std::array<status_row, kNumStatuses> kRows = {{
    {query_status::ok, "ok", "engine_queries_completed_total", nullptr, nullptr,
     nullptr},
    {query_status::cancelled, "cancelled", "engine_queries_cancelled_total",
     is_any<cancelled_error>, nullptr, make<cancelled_error>},
    {query_status::deadline, "deadline",
     "engine_queries_deadline_exceeded_total", is_any<deadline_exceeded_error>,
     nullptr, make<deadline_exceeded_error>},
    {query_status::shed, "shed", "engine_queries_shed_total",
     is_any<shed_error>, advice_of<shed_error>, make_advised<shed_error>},
    {query_status::rejected, "rejected", kRejected, is_any<rejected_error>,
     advice_of<rejected_error>, make_advised<rejected_error>},
    {query_status::not_found, "not_found", kFailed, is_any<not_found_error>,
     nullptr, make<not_found_error>},
    {query_status::bad_request, "bad_request", kFailed,
     is_any<bad_request_error, std::invalid_argument>, nullptr,
     make<bad_request_error>},
    {query_status::load, "load", kFailed, is_any<load_error, update_error>,
     nullptr,
     [](const std::string& m, ms) {
       return std::make_exception_ptr(load_error(m, 0));
     }},
    {query_status::shutting_down, "shutting_down", kRejected,
     is_any<shutting_down_error>, advice_of<rejected_error>,
     make_advised<shutting_down_error>},
    {query_status::protocol, "protocol", kFailed, is_any<protocol_error>,
     nullptr, make<protocol_error>},
    {query_status::internal, "internal", kFailed, nullptr, nullptr,
     make<engine_error>},
}};

constexpr bool rows_in_code_order() {
  for (size_t i = 0; i < kRows.size(); i++)
    if (static_cast<size_t>(kRows[i].code) != i) return false;
  return true;
}
static_assert(rows_in_code_order(), "status rows must be indexed by code");

constexpr bool names_fit_flight_entry() {
  for (const auto& row : kRows)
    if (std::string_view(row.name).size() >=
        sizeof(obs::flight_entry::outcome))
      return false;
  return true;
}
static_assert(names_fit_flight_entry(),
              "obs::flight_entry::outcome must hold every status name");

const status_row& row_of(query_status s) {
  return kRows[static_cast<size_t>(s)];
}

}  // namespace

const char* status_name(query_status s) {
  return static_cast<size_t>(s) < kNumStatuses ? row_of(s).name : "?";
}

const char* status_counter(query_status s) { return row_of(s).counter; }

outcome classify(const std::exception_ptr& err) {
  if (!err) return {};
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    for (size_t i = kRows.size(); i-- > 0;) {
      const status_row& row = kRows[i];
      if (row.matches == nullptr || !row.matches(e)) continue;
      const auto retry = row.advice != nullptr ? row.advice(e) : ms(0);
      return {row.code, e.what(), static_cast<uint32_t>(retry.count())};
    }
    return {query_status::internal, e.what(), 0};
  } catch (...) {
    return {query_status::internal, "unknown error", 0};
  }
}

std::exception_ptr make_error(query_status s, const std::string& message,
                              uint32_t retry_after_ms) {
  const status_row& row = row_of(s);
  return row.rebuild != nullptr ? row.rebuild(message, ms(retry_after_ms))
                                : nullptr;
}

void rethrow(query_status s, const std::string& message,
             uint32_t retry_after_ms) {
  if (auto err = make_error(s, message, retry_after_ms))
    std::rethrow_exception(err);
}

}  // namespace ligra::engine
