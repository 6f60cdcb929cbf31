#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <random>

#include "util/rng.h"

namespace ligra::obs {

std::string trace_id::to_hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<trace_id> trace_id::from_hex(std::string_view s) {
  if (s.size() != 32) return std::nullopt;
  uint64_t parts[2] = {0, 0};
  for (int half = 0; half < 2; half++) {
    for (int i = 0; i < 16; i++) {
      char c = s[static_cast<size_t>(half * 16 + i)];
      uint64_t nib;
      if (c >= '0' && c <= '9') nib = static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') nib = static_cast<uint64_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') nib = static_cast<uint64_t>(c - 'A' + 10);
      else return std::nullopt;
      parts[half] = (parts[half] << 4) | nib;
    }
  }
  trace_id id{parts[0], parts[1]};
  if (!id.valid()) return std::nullopt;
  return id;
}

trace_id trace_id::mint() {
  static std::atomic<uint64_t> counter{0};
  // Per-thread entropy so two processes (a client and a server minting for
  // different requests) diverge even with identical counter sequences.
  thread_local const uint64_t entropy = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd() ^
           static_cast<uint64_t>(
               mono_now().time_since_epoch().count());
  }();
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  trace_id id;
  id.hi = hash64(entropy ^ (n * 0x9e3779b97f4a7c15ULL));
  id.lo = hash64(n ^ hash64(entropy) ^ 0xda942042e4dd58b5ULL);
  if (!id.valid()) id.lo = 1;  // zero means absent; never mint it
  return id;
}

query_trace::query_trace() : start_(mono_now()) {}

void query_trace::add_round(const char* direction, uint64_t frontier_size,
                            uint64_t frontier_edges, uint64_t threshold,
                            double micros, uint64_t blocks,
                            uint64_t scratch_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  rounds_.push_back({static_cast<uint32_t>(rounds_.size() + 1), direction,
                     frontier_size, frontier_edges, threshold, micros, blocks,
                     scratch_bytes});
}

size_t query_trace::begin_span(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, micros_since(start_), -1.0});
  return spans_.size() - 1;
}

void query_trace::end_span(size_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  if (token >= spans_.size()) return;
  trace_span& s = spans_[token];
  if (s.micros < 0.0) s.micros = micros_since(start_) - s.start_micros;
}

std::vector<trace_round> query_trace::rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_;
}

std::vector<trace_span> query_trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string query_trace::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"rounds\":[";
  char buf[320];
  for (size_t i = 0; i < rounds_.size(); i++) {
    const trace_round& r = rounds_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"round\":%u,\"dir\":\"%s\",\"frontier\":%llu,"
                  "\"out_edges\":%llu,\"threshold\":%llu,\"micros\":%.3f,"
                  "\"blocks\":%llu,\"scratch_bytes\":%llu}",
                  i == 0 ? "" : ",", r.index, r.direction,
                  static_cast<unsigned long long>(r.frontier_size),
                  static_cast<unsigned long long>(r.frontier_edges),
                  static_cast<unsigned long long>(r.threshold), r.micros,
                  static_cast<unsigned long long>(r.blocks),
                  static_cast<unsigned long long>(r.scratch_bytes));
    out += buf;
  }
  out += "],\"spans\":[";
  for (size_t i = 0; i < spans_.size(); i++) {
    const trace_span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"start_micros\":%.3f,\"micros\":%.3f}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_micros, s.micros);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace ligra::obs
