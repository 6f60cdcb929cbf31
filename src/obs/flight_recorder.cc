#include "obs/flight_recorder.h"

#include <cstdio>

#include "obs/log.h"

namespace ligra::obs {

std::string flight_entry::json_members() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"seq\":%llu",
                static_cast<unsigned long long>(seq));
  std::string out = buf;
  out += ",\"id\":\"" + id.to_hex() + "\"";
  out += ",\"kind\":\"" + json_escape(kind) + "\"";
  out += ",\"graph\":\"" + json_escape(graph) + "\"";
  out += ",\"outcome\":\"" + json_escape(outcome) + "\"";
  std::snprintf(buf, sizeof(buf),
                ",\"sampled\":%s,\"cache_hit\":%s,\"epoch\":%llu,"
                "\"queued_micros\":%.3f,\"exec_micros\":%.3f,\"rounds\":%u,"
                "\"retry_after_ms\":%u,\"result_bytes\":%llu",
                sampled ? "true" : "false", cache_hit ? "true" : "false",
                static_cast<unsigned long long>(epoch), queued_micros,
                exec_micros, rounds, retry_after_ms,
                static_cast<unsigned long long>(result_bytes));
  out += buf;
  return out;
}

std::string flight_recorder::to_json(size_t max_entries) const {
  const auto entries = ring_.newest_first(max_entries);
  std::string out = "{\"entries\":[";
  for (size_t i = 0; i < entries.size(); i++) {
    if (i > 0) out += ",";
    out += entries[i].to_json();
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "],\"recorded\":%llu,\"capacity\":%zu}",
                static_cast<unsigned long long>(recorded()), capacity());
  out += buf;
  return out;
}

}  // namespace ligra::obs
