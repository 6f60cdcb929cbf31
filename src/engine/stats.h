// Engine observability (docs/ENGINE.md, docs/OBSERVABILITY.md): the
// executor's counters and per-kind latency distributions, backed by the
// obs metrics registry so the same numbers feed engine_stats_snapshot
// (typed, per-executor) and the registry's text/JSON exposition
// (operational scrape). Latency lives in lock-free log-bucketed histograms
// (obs/histogram.h), so snapshots carry p50/p95/p99 — not just the
// count/total/max the first engine iteration punted on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/query.h"
#include "engine/result_cache.h"
#include "engine/status.h"
#include "obs/metrics.h"

namespace ligra::engine {

// Per-kind latency digest, derived from the kind's histogram.
struct query_kind_stats {
  uint64_t count = 0;
  uint64_t total_micros = 0;
  uint64_t max_micros = 0;
  double p50_micros = 0.0;
  double p95_micros = 0.0;
  double p99_micros = 0.0;

  double mean_micros() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_micros) /
                            static_cast<double>(count);
  }
};

// Point-in-time view of the executor. `queue_depth`/`running` are sampled;
// the counters are monotone over the executor's lifetime.
struct engine_stats_snapshot {
  uint64_t submitted = 0;   // accepted submissions (incl. cache hits)
  uint64_t completed = 0;   // futures fulfilled with a value
  uint64_t failed = 0;      // futures fulfilled with an exception (other than below)
  uint64_t rejected = 0;    // admission-queue rejections (queue full)
  uint64_t cancelled = 0;   // futures settled with cancelled_error
  uint64_t deadline_exceeded = 0;  // futures settled with deadline_exceeded_error
  uint64_t shed = 0;        // low-priority queries shed past the watermark
  size_t queue_depth = 0;   // admitted, not yet running
  size_t running = 0;       // currently executing
  std::array<query_kind_stats, kNumQueryKinds> per_kind{};  // executed only
  cache_counters cache;
};

// The executor's live counters, resolved once against a metrics registry
// (handles are stable; the hot path never takes the registry lock). Every
// metric is also visible through the registry's exposition under the
// `engine_*` names in docs/OBSERVABILITY.md.
class engine_stats {
 public:
  explicit engine_stats(obs::metrics_registry& reg)
      : submitted_(reg.get_counter("engine_queries_submitted_total")) {
    for (size_t i = 0; i < kNumStatuses; i++)
      by_status_[i] =
          &reg.get_counter(status_counter(static_cast<query_status>(i)));
    for (size_t i = 0; i < kNumQueryKinds; i++) {
      latency_[i] = &reg.get_histogram(
          std::string("engine_query_latency_micros{kind=\"") +
          query_kind_name(static_cast<query_kind>(i)) + "\"}");
    }
  }

  void record_submitted() { submitted_.inc(); }
  // One settled query: bumps the counter its status row names.
  void record(query_status s) { by_status_[static_cast<size_t>(s)]->inc(); }

  void record_latency(query_kind kind, double micros) {
    latency_[static_cast<size_t>(kind)]->record(
        static_cast<uint64_t>(micros));
  }

  void fill(engine_stats_snapshot& out) const {
    auto count = [this](query_status s) {
      return by_status_[static_cast<size_t>(s)]->value();
    };
    out.submitted = submitted_.value();
    out.completed = count(query_status::ok);
    out.failed = count(query_status::internal);
    out.rejected = count(query_status::rejected);
    out.cancelled = count(query_status::cancelled);
    out.deadline_exceeded = count(query_status::deadline);
    out.shed = count(query_status::shed);
    for (size_t i = 0; i < kNumQueryKinds; i++) {
      auto snap = latency_[i]->snapshot();
      auto& k = out.per_kind[i];
      k.count = snap.count;
      k.total_micros = snap.sum;
      k.max_micros = snap.max;
      k.p50_micros = snap.p50();
      k.p95_micros = snap.p95();
      k.p99_micros = snap.p99();
    }
  }

 private:
  obs::counter& submitted_;
  // Counter per status row (rows sharing a counter share the handle).
  std::array<obs::counter*, kNumStatuses> by_status_{};
  std::array<obs::histogram*, kNumQueryKinds> latency_{};
};

}  // namespace ligra::engine
