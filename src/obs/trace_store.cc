#include "obs/trace_store.h"

#include <algorithm>
#include <cstdio>

#include "obs/log.h"
#include "obs/metrics.h"

namespace ligra::obs {

std::string trace_record::to_json(bool full) const {
  char buf[160];
  std::string out = "{\"id\":\"" + id.to_hex() + "\"";
  std::snprintf(buf, sizeof(buf), ",\"seq\":%llu",
                static_cast<unsigned long long>(seq));
  out += buf;
  out += ",\"kind\":\"" + json_escape(kind) + "\"";
  out += ",\"graph\":\"" + json_escape(graph) + "\"";
  out += ",\"outcome\":\"" + json_escape(outcome) + "\"";
  std::snprintf(buf, sizeof(buf),
                ",\"sampled\":%s,\"cache_hit\":%s,\"epoch\":%llu,"
                "\"queued_micros\":%.3f,\"exec_micros\":%.3f,"
                "\"retry_after_ms\":%u,\"rounds\":%llu",
                sampled ? "true" : "false", cache_hit ? "true" : "false",
                static_cast<unsigned long long>(epoch), queued_micros,
                exec_micros, retry_after_ms,
                static_cast<unsigned long long>(rounds));
  out += buf;
  if (!error.empty()) out += ",\"error\":\"" + json_escape(error) + "\"";
  if (full) {
    out += ",\"trace\":";
    out += trace_json.empty() ? "null" : trace_json;
  }
  out += "}";
  return out;
}

trace_store::trace_store(size_t capacity, metrics_registry* metrics)
    : slots_(capacity > 0 ? capacity : 1) {
  if (metrics != nullptr) {
    m_retained_ = &metrics->get_counter("engine_traces_retained_total");
    m_evicted_ = &metrics->get_counter("engine_traces_evicted_total");
  }
}

void trace_store::insert(trace_record r) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  r.seq = ticket + 1;
  auto rec = std::make_shared<const trace_record>(std::move(r));
  slot& s = slots_[ticket % slots_.size()];
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    evicted = s.rec != nullptr;
    s.rec = std::move(rec);
  }
  retained_.fetch_add(1, std::memory_order_relaxed);
  if (m_retained_ != nullptr) m_retained_->inc();
  if (evicted) {
    evicted_.fetch_add(1, std::memory_order_relaxed);
    if (m_evicted_ != nullptr) m_evicted_->inc();
  }
}

std::optional<trace_record> trace_store::find(const trace_id& id) const {
  std::shared_ptr<const trace_record> best;
  for (const slot& s : slots_) {
    std::shared_ptr<const trace_record> rec;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      rec = s.rec;
    }
    if (rec != nullptr && rec->id == id &&
        (best == nullptr || rec->seq > best->seq))
      best = std::move(rec);
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<trace_record> trace_store::recent(size_t max_records) const {
  std::vector<std::shared_ptr<const trace_record>> live;
  live.reserve(slots_.size());
  for (const slot& s : slots_) {
    std::shared_ptr<const trace_record> rec;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      rec = s.rec;
    }
    if (rec != nullptr) live.push_back(std::move(rec));
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a->seq > b->seq; });
  if (max_records > 0 && live.size() > max_records) live.resize(max_records);
  std::vector<trace_record> out;
  out.reserve(live.size());
  for (const auto& rec : live) out.push_back(*rec);
  return out;
}

std::string trace_store::render_index_json(size_t max_records) const {
  auto records = recent(max_records);
  std::string out = "{\"traces\":[";
  for (size_t i = 0; i < records.size(); i++) {
    if (i > 0) out += ",";
    out += records[i].to_json(/*full=*/false);
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
