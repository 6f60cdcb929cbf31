// Multi-graph registry: the residency layer of the query engine
// (docs/ENGINE.md).
//
// Named graphs are loaded once and stay resident; queries resolve a name to
// a refcounted handle (shared_ptr to an immutable graph_entry) under a
// shared_mutex, so lookups from many request threads proceed concurrently
// and loads/evictions take the lock exclusively only to swap map entries.
// Eviction or replacement never invalidates in-flight queries: they hold
// the handle, and the entry is freed when the last query finishes.
//
// Every load gets a fresh monotonically-increasing epoch. The result cache
// keys on (epoch, query, params), so reloading a name under new data
// silently invalidates all cached answers for the old incarnation.
//
// Weighted graphs keep both the weighted CSR (for SSSP) and an unweighted
// structural view sharing the same shape (so BFS/PageRank/CC/k-core/triangle
// queries run on weighted graphs too).
//
// Every entry also carries its epoch's whole-graph analytics — cc labels,
// coreness, PageRank ranks — each filled once, on first use, and freed with
// the entry (docs/ENGINE.md "Per-epoch analytics").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dynamic/checkpoint.h"
#include "dynamic/incremental.h"
#include "dynamic/mutable_graph.h"
#include "engine/query.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace ligra::engine {

// Retry policy for transient load failures (capped exponential backoff
// with deterministic jitter). Structural errors (io::format_error) are
// permanent and never retried.
struct retry_options {
  size_t max_attempts = 3;      // total tries, including the first
  uint32_t base_backoff_ms = 5; // doubles per attempt...
  uint32_t max_backoff_ms = 200;  // ...capped here
  uint64_t jitter_seed = 0;     // perturbs backoff deterministically
};

struct load_options {
  enum class file_format : uint8_t {
    auto_detect,  // sniff: LGRB magic -> binary, AdjacencyGraph header ->
                  // adjacency, anything else -> edge list
    adjacency,    // Ligra/PBBS AdjacencyGraph text
    binary,       // LGRB
    edge_list,    // "u v [w]" lines
  };
  file_format format = file_format::auto_detect;
  bool weighted = false;
  // Text formats only: treat the file's edges as already symmetric
  // (adjacency) or symmetrize them (edge list). Ignored for binary files,
  // which record symmetry themselves.
  bool symmetric = false;
  // Run io::validate_graph on the loaded graph (and weighted view) before
  // publishing the new epoch; validation failure aborts the load and any
  // previously registered entry under the same name keeps serving.
  bool validate = true;
  retry_options retry;
};

// A load that failed after exhausting its retry budget (or immediately, for
// permanent errors). `attempts` is how many tries were made.
class load_error : public engine_error {
 public:
  load_error(const std::string& what, size_t attempts_made)
      : engine_error(what), attempts(attempts_made) {}
  size_t attempts;
};

// An edge-update batch that failed to publish — same shape as load_error:
// thrown immediately for permanent errors (malformed batch, non-mutable
// target) or after the retry budget drains for transient ones. The target
// entry's current epoch keeps serving untouched either way.
class update_error : public engine_error {
 public:
  update_error(const std::string& what, size_t attempts_made)
      : engine_error(what), attempts(attempts_made) {}
  size_t attempts;
};

// A value computed at most once, on first use, by a single-flight fill.
// Concurrent first callers wait for the fill in flight. A fill that throws
// publishes nothing, and its exception reaches only the caller that ran it;
// the next caller (a waiter or a later one) fills again.
template <class T>
class lazy_fill {
 public:
  template <class Fill>
  const T& get(Fill&& fill) {
    if (ready()) return *value_;
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return !filling_; });
    if (ready()) return *value_;
    filling_ = true;
    lock.unlock();
    std::optional<T> v;
    try {
      v.emplace(fill());
    } catch (...) {
      lock.lock();
      filling_ = false;
      cv_.notify_all();
      throw;
    }
    lock.lock();
    value_ = std::move(v);
    ready_.store(true, std::memory_order_release);
    filling_ = false;
    cv_.notify_all();
    return *value_;
  }

  // The value once a fill has published it, else null. Reads only the
  // ready flag, so it never races a fill still running.
  const T* peek() const { return ready() ? &*value_ : nullptr; }

 private:
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool filling_ = false;  // guarded by mutex_
  std::atomic<bool> ready_{false};
  std::optional<T> value_;  // written once, before ready_ is set
};

// The engine_epoch_fill* metric handles every entry of one registry shares
// (registry.cc).
struct epoch_fill_metrics;

// An immutable resident graph plus metadata. Handed out as
// shared_ptr<const graph_entry>; whoever holds one keeps the graph alive.
class graph_entry {
 public:
  const std::string& name() const { return name_; }
  uint64_t epoch() const { return epoch_; }
  bool weighted() const { return wg_.has_value(); }

  // True for entries registered via registry::add_mutable: the resident
  // graph is a dynamic::mutable_graph version and this entry carries the
  // epoch's converged incremental state alongside it.
  bool is_mutable() const { return dyn_ != nullptr; }
  // The live base+delta view (nullptr for plain entries).
  const dynamic::mutable_graph* dyn() const { return dyn_.get(); }
  // Converged per-epoch analytics (nullptr for plain entries).
  const dynamic::inc_state* inc() const { return inc_.get(); }

  // Vertex/edge counts without materializing anything (mutable entries
  // answer from the view; registry::list must use these, not structure()).
  vertex_id num_vertices() const {
    return dyn_ ? dyn_->num_vertices() : g_.num_vertices();
  }
  edge_id num_edges() const { return dyn_ ? dyn_->num_edges() : g_.num_edges(); }

  // Unweighted structural view. For mutable entries the merged CSR is
  // materialized lazily on first use (CSR-only queries — k-core, triangles
  // — on a freshly updated graph) and cached for the entry's lifetime; the
  // entry is immutable either way, so concurrent callers are safe.
  const graph& structure() const {
    if (dyn_ == nullptr) return g_;
    std::call_once(mat_once_, [this] { mat_ = dyn_->materialize(); });
    return *mat_;
  }

  // Weighted CSR; throws engine_error for unweighted entries.
  const wgraph& weights() const {
    if (!wg_) throw engine_error("graph '" + name_ + "' is not weighted");
    return *wg_;
  }

  // The epoch's whole-graph analytics, one value per vertex
  // (docs/ENGINE.md "Per-epoch analytics"): connected-component labels
  // (smallest vertex id in the component), coreness, and PageRank ranks —
  // the arrays apps::connected_components, apps::kcore and apps::pagerank
  // return on structure(). Each is computed on first use by one
  // single-flight fill that polls no caller's token, then served to every
  // query on this epoch. Mutable entries answer labels() and ranks() from
  // inc() and fill only coreness(). A failed fill publishes nothing and
  // throws to the caller that ran it; the next call fills again. Labels and
  // coreness require a symmetric graph (std::invalid_argument otherwise).
  const std::vector<vertex_id>& labels() const;
  const std::vector<vertex_id>& coreness() const;
  const std::vector<double>& ranks() const;

  // Resident footprint: plain CSR (+ weighted CSR) for static entries,
  // base CSR + overlay for mutable ones, plus each filled analytics array
  // once its fill has published. Deliberately excludes the lazily
  // materialized structural view — reading its presence here would race
  // with a concurrent first materialization.
  size_t memory_bytes() const {
    size_t bytes = dyn_ ? dyn_->memory_bytes()
                        : g_.memory_bytes() + (wg_ ? wg_->memory_bytes() : 0);
    if (const auto* a = labels_.peek()) bytes += a->size() * sizeof(vertex_id);
    if (const auto* a = core_.peek()) bytes += a->size() * sizeof(vertex_id);
    if (const auto* a = ranks_.peek()) bytes += a->size() * sizeof(double);
    return bytes;
  }

 private:
  friend class registry;
  std::string name_;
  uint64_t epoch_ = 0;
  graph g_;  // empty for mutable entries (structure() materializes lazily)
  std::optional<wgraph> wg_;
  std::shared_ptr<const dynamic::mutable_graph> dyn_;
  std::shared_ptr<const dynamic::inc_state> inc_;
  mutable std::once_flag mat_once_;
  mutable std::optional<graph> mat_;  // lazy merged CSR (mutable entries)
  mutable lazy_fill<std::vector<vertex_id>> labels_;  // static entries only
  mutable lazy_fill<std::vector<vertex_id>> core_;
  mutable lazy_fill<std::vector<double>> ranks_;  // static entries only
  // Null when the registry has no metrics.
  std::shared_ptr<const epoch_fill_metrics> fill_metrics_;
};

using graph_handle = std::shared_ptr<const graph_entry>;

// One row of registry::list().
struct entry_info {
  std::string name;
  uint64_t epoch = 0;
  bool weighted = false;
  bool is_mutable = false;      // registered via add_mutable
  uint64_t version = 0;         // batches applied (mutable entries only)
  size_t delta_edges = 0;       // overlay size (mutable entries only)
  vertex_id num_vertices = 0;
  edge_id num_edges = 0;
  size_t memory_bytes = 0;
};

class registry {
 public:
  // With `metrics` set, the residency layer publishes into the registry:
  // load outcome counters (engine_graph_loads_total / _load_retries_total /
  // _load_failures_total), the engine_graph_load_micros histogram,
  // engine_graphs_resident + engine_graph_memory_bytes gauges, a per-graph
  // engine_graph_epoch{graph="..."} gauge, and per-kind
  // engine_epoch_fills_total / engine_epoch_fill_micros for the entries'
  // analytics fills (docs/OBSERVABILITY.md). `metrics` must outlive the
  // registry and every handle it hands out.
  explicit registry(obs::metrics_registry* metrics = nullptr);
  registry(const registry&) = delete;
  registry& operator=(const registry&) = delete;

  // Loads `path` and registers it as `name`, replacing any existing entry
  // (the old entry stays alive for queries still holding its handle).
  // All-or-nothing: reading and structural validation both happen *before*
  // the new epoch is published, so a failed (re)load leaves the previous
  // entry serving untouched. Transient I/O failures are retried per
  // opts.retry; throws load_error once the budget is exhausted or
  // immediately on permanent (format/validation) errors.
  graph_handle load(const std::string& name, const std::string& path,
                    const load_options& opts = {});

  // Registers an in-memory graph (used by tests, benches, and generators).
  graph_handle add(const std::string& name, graph g);
  graph_handle add(const std::string& name, wgraph g);

  // Registers `g` as a *mutable* graph: the entry carries a
  // dynamic::mutable_graph view plus converged incremental state (connected
  // components + PageRank), both refreshed incrementally by apply_updates.
  // Requires a symmetric graph; throws std::invalid_argument otherwise.
  // Seeding runs the full algorithms once, so this costs one CC + one
  // PageRank on top of add().
  graph_handle add_mutable(const std::string& name, graph g,
                           dynamic::mutable_graph_options opts = {});

  // Durable variant: attaches a dynamic::durable_store rooted at `dir`, so
  // every applied batch's effective edges are WAL-logged *before* its epoch
  // publishes and a checkpoint lands every dur.checkpoint_interval batches
  // (docs/DURABILITY.md). Under wal_options fsync_policy::always, a batch
  // whose apply_updates returned is reconstructible after any crash.
  // Throws dynamic::recovery_error if `dir` already holds durable state —
  // clobbering a survivor's log is never implicit; call recover_mutable.
  graph_handle add_mutable(const std::string& name, graph g,
                           const std::string& dir,
                           dynamic::durability_options dur = {},
                           dynamic::mutable_graph_options opts = {});

  // Restores a durable mutable graph from `dir` — newest valid checkpoint
  // plus the WAL tail, truncating at the first torn or corrupt record —
  // and registers it as `name` with the store re-attached, ready for more
  // apply_updates. `report` (optional) receives what recovery did. Throws
  // dynamic::recovery_error when no consistent graph can be reconstructed.
  graph_handle recover_mutable(const std::string& name, const std::string& dir,
                               dynamic::durability_options dur = {},
                               dynamic::mutable_graph_options opts = {},
                               dynamic::recovery_report* report = nullptr);

  // Forces a checkpoint of the durable mutable entry `name` at its current
  // version (REPL `checkpoint`, pre-shutdown compaction). Serialized
  // against apply_updates so the snapshot pairs exactly with the WAL
  // position. Throws engine_error for unknown or non-durable names,
  // dynamic::wal_error if the write fails.
  void checkpoint(const std::string& name);

  // Durability counters for the durable mutable entry `name` (REPL
  // `wal-stats`). Throws engine_error for unknown or non-durable names.
  dynamic::wal_stats wal_stats(const std::string& name) const;

  // True if `name` is registered with a durable store attached.
  bool is_durable(const std::string& name) const;

  // Applies an edge-update batch to the mutable entry `name` and publishes
  // the result as a new epoch — the write-path analogue of load(), with the
  // same discipline: apply, incremental recompute, and validation all
  // happen *before* the new epoch becomes visible, so a failed batch leaves
  // the current epoch serving untouched; transient failures (allocation,
  // failpoints dynamic.apply.alloc / dynamic.compact) are retried per
  // `retry`, permanent ones (malformed batch, unknown or non-mutable
  // target) throw update_error immediately. Concurrent callers serialize:
  // batches publish one at a time, each on top of the previous epoch.
  // Returns the new entry's handle.
  graph_handle apply_updates(const std::string& name,
                             dynamic::update_batch batch,
                             const retry_options& retry = {});

  // Name -> handle; `get` throws not_found_error, `try_get` returns nullptr.
  graph_handle get(const std::string& name) const;
  graph_handle try_get(const std::string& name) const;

  // Removes `name`; returns false if absent. In-flight queries holding the
  // handle are unaffected.
  bool evict(const std::string& name);
  void clear();

  size_t size() const;
  std::vector<entry_info> list() const;

  // Sum of resident plain-CSR bytes across entries.
  size_t total_memory_bytes() const;

 private:
  graph_handle load_once(const std::string& name, const std::string& path,
                         const load_options& opts);
  // One apply attempt; caller holds apply_mutex_. Throws on failure.
  graph_handle apply_once(const std::string& name,
                          const dynamic::update_batch& batch);
  // Seeds incremental state for `view` and publishes it under `name`,
  // attaching `store` (may be null) — shared tail of add_mutable (both
  // forms) and recover_mutable.
  graph_handle register_mutable(const std::string& name,
                                std::shared_ptr<const dynamic::mutable_graph> view,
                                std::shared_ptr<dynamic::durable_store> store);
  // Durable store for `name`, or nullptr.
  std::shared_ptr<dynamic::durable_store> store_for(
      const std::string& name) const;
  graph_handle insert(std::shared_ptr<graph_entry> e);
  // Refreshes the residency gauges; caller must NOT hold mutex_.
  void publish_residency();

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, graph_handle> entries_;
  // Durability backbones of durable mutable entries, keyed like entries_.
  // mutex_ guards the map; each store serializes itself internally.
  std::unordered_map<std::string, std::shared_ptr<dynamic::durable_store>>
      stores_;
  std::atomic<uint64_t> next_epoch_{1};
  // Serializes apply_updates end to end (read-apply-publish): without it,
  // two concurrent batches could both build on the same old epoch and one
  // batch's edges would be silently lost. Loads/queries are unaffected.
  std::mutex apply_mutex_;

  // Null when constructed without a metrics registry.
  obs::metrics_registry* metrics_ = nullptr;
  obs::counter* m_loads_ = nullptr;
  obs::counter* m_load_retries_ = nullptr;
  obs::counter* m_load_failures_ = nullptr;
  obs::histogram* m_load_micros_ = nullptr;
  obs::counter* m_updates_ = nullptr;
  obs::counter* m_update_retries_ = nullptr;
  obs::counter* m_update_failures_ = nullptr;
  obs::histogram* m_update_micros_ = nullptr;
  obs::gauge* m_resident_ = nullptr;
  obs::gauge* m_memory_bytes_ = nullptr;
  std::shared_ptr<const epoch_fill_metrics> fill_metrics_;
};

}  // namespace ligra::engine
