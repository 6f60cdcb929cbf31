// The per-query record, the ring template both of its stores use, and the
// flight recorder (docs/OBSERVABILITY.md).
//
// flight_entry is the one summary the executor fills for every query it
// finished (or refused). The flight recorder keeps every entry in a
// fixed-size ring — the post-hoc "what was the server doing just before it
// misbehaved" view, dumped on GET /debug/flightrec and on SIGUSR1 in
// query_server. The trace store (obs/trace_store.h) keeps the same entry,
// plus error text and trace JSON, for the queries its retention rules
// select, in a ring of the same kind.
//
// The entry is fixed-width (inline char fields, no heap), so recording
// costs one atomic fetch_add to claim a slot plus one short per-slot mutex
// hold for the struct copy. The recorder never allocates after
// construction.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace ligra::obs {

struct flight_entry {
  uint64_t seq = 0;  // push order in the ring that holds it (1-based)
  trace_id id{};
  char kind[12] = {};     // query_kind_name
  char graph[24] = {};    // registry name, truncated to 23 bytes
  // engine::status_name of the outcome; engine/status.cc static_asserts
  // that every status name fits.
  char outcome[16] = {};
  uint64_t epoch = 0;
  double queued_micros = 0.0;
  double exec_micros = 0.0;
  uint32_t rounds = 0;          // edge_map rounds the armed trace captured
  uint32_t retry_after_ms = 0;  // shed/rejected advice the caller was given
  uint64_t result_bytes = 0;    // approximate response payload size
  bool cache_hit = false;
  bool sampled = false;

  void set_kind(std::string_view s) { copy_into(kind, sizeof(kind), s); }
  void set_graph(std::string_view s) { copy_into(graph, sizeof(graph), s); }
  void set_outcome(std::string_view s) { copy_into(outcome, sizeof(outcome), s); }

  // The members as JSON object members, without braces: the one writer
  // behind both /debug/flightrec entries and /traces records.
  std::string json_members() const;
  std::string to_json() const { return "{" + json_members() + "}"; }

 private:
  static void copy_into(char* dst, size_t cap, std::string_view s) {
    const size_t n = s.size() < cap - 1 ? s.size() : cap - 1;
    std::memcpy(dst, s.data(), n);
    dst[n] = '\0';
  }
};

// A fixed-size ring that many threads push into while readers copy out. A
// push claims its seq (1-based, in push order) with one fetch_add and then
// holds only its slot's mutex, so pushers never serialize on a shared
// lock. Each slot stores the seq of the item it holds: of two pushes that
// race for one slot the newer stays, and readers sort by it. Slots are
// never cleared.
template <typename T>
class record_ring {
 public:
  explicit record_ring(size_t capacity) : slots_(capacity > 0 ? capacity : 1) {}

  // Stores make(seq) under the next seq, and returns that seq. `make` runs
  // before the slot lock is taken.
  template <typename Make>
  uint64_t push(Make&& make) {
    const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
    T item = make(seq);
    slot& s = slots_[(seq - 1) % slots_.size()];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.seq < seq) {
      s.seq = seq;
      std::swap(s.item, item);  // the displaced item dies after the unlock
    }
    return seq;
  }

  // Every item held, newest first; at most `max_items` (0 = all).
  std::vector<T> newest_first(size_t max_items = 0) const {
    std::vector<std::pair<uint64_t, T>> held;
    held.reserve(slots_.size());
    for (const slot& s : slots_) {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.seq != 0) held.emplace_back(s.seq, s.item);
    }
    std::sort(held.begin(), held.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (max_items > 0 && held.size() > max_items) held.resize(max_items);
    std::vector<T> out;
    out.reserve(held.size());
    for (auto& h : held) out.push_back(std::move(h.second));
    return out;
  }

  size_t capacity() const { return slots_.size(); }
  uint64_t pushed() const { return head_.load(std::memory_order_relaxed); }

 private:
  struct slot {
    mutable std::mutex mu;
    uint64_t seq = 0;  // 0 until the first push lands here
    T item{};
  };

  std::vector<slot> slots_;
  std::atomic<uint64_t> head_{0};
};

class flight_recorder {
 public:
  explicit flight_recorder(size_t capacity = 512) : ring_(capacity) {}

  flight_recorder(const flight_recorder&) = delete;
  flight_recorder& operator=(const flight_recorder&) = delete;

  // Claims the next ring slot and copies `e` in (seq assigned here).
  void record(flight_entry e) {
    ring_.push([&e](uint64_t seq) {
      e.seq = seq;
      return e;
    });
  }

  // Every live entry, newest first.
  std::vector<flight_entry> snapshot() const { return ring_.newest_first(); }

  // {"entries":[<newest first>],"recorded":N,"capacity":N} — the
  // GET /debug/flightrec body and the SIGUSR1 dump.
  std::string to_json(size_t max_entries = 0) const;

  size_t capacity() const { return ring_.capacity(); }
  uint64_t recorded() const { return ring_.pushed(); }

 private:
  record_ring<flight_entry> ring_;
};

}  // namespace ligra::obs
