#include "obs/trace_store.h"

#include <cstdio>

#include "obs/log.h"
#include "obs/metrics.h"

namespace ligra::obs {

std::string trace_record::to_json(bool full) const {
  std::string out = "{" + json_members();
  if (!error.empty()) out += ",\"error\":\"" + json_escape(error) + "\"";
  if (full) {
    out += ",\"trace\":";
    out += trace_json.empty() ? "null" : trace_json;
  }
  out += "}";
  return out;
}

trace_store::trace_store(size_t capacity, metrics_registry* metrics)
    : ring_(capacity) {
  if (metrics != nullptr) {
    m_retained_ = &metrics->get_counter("engine_traces_retained_total");
    m_evicted_ = &metrics->get_counter("engine_traces_evicted_total");
  }
}

void trace_store::insert(trace_record r) {
  const uint64_t seq = ring_.push([&r](uint64_t s) {
    r.seq = s;
    return std::make_shared<const trace_record>(std::move(r));
  });
  if (m_retained_ != nullptr) m_retained_->inc();
  if (m_evicted_ != nullptr && seq > capacity()) m_evicted_->inc();
}

std::optional<trace_record> trace_store::find(const trace_id& id) const {
  for (const auto& rec : ring_.newest_first())
    if (rec->id == id) return *rec;
  return std::nullopt;
}

std::vector<trace_record> trace_store::recent(size_t max_records) const {
  std::vector<trace_record> out;
  for (const auto& rec : ring_.newest_first(max_records)) out.push_back(*rec);
  return out;
}

std::string trace_store::render_index_json(size_t max_records) const {
  const auto records = ring_.newest_first(max_records);
  std::string out = "{\"traces\":[";
  for (size_t i = 0; i < records.size(); i++) {
    if (i > 0) out += ",";
    out += records[i]->to_json(/*full=*/false);
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "],\"retained\":%llu,\"evicted\":%llu,\"capacity\":%zu}",
                static_cast<unsigned long long>(retained()),
                static_cast<unsigned long long>(evicted()), capacity());
  out += buf;
  return out;
}

}  // namespace ligra::obs
