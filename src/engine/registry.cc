#include "engine/registry.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <new>
#include <thread>
#include <utility>

#include "apps/components.h"
#include "apps/kcore.h"
#include "apps/pagerank.h"
#include "graph/graph_io.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/timer.h"

namespace ligra::engine {

namespace {

// Unweighted structural copy of a weighted graph (same CSR shape, weights
// dropped) — lets every unweighted query run on weighted entries.
graph structure_of(const wgraph& wg) {
  if (wg.symmetric()) {
    return graph::from_csr(wg.num_vertices(), wg.out_offsets(),
                           wg.out_edge_array(), {}, /*symmetric=*/true);
  }
  return graph::from_csr(wg.num_vertices(), wg.out_offsets(),
                         wg.out_edge_array(), {}, /*symmetric=*/false,
                         wg.in_offsets(), wg.in_edge_array());
}

load_options::file_format sniff_format(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io::io_error("cannot open file: " + path);
  char buf[24] = {};
  in.read(buf, sizeof(buf));
  std::string head(buf, static_cast<size_t>(in.gcount()));
  if (head.rfind("LGRB", 0) == 0) return load_options::file_format::binary;
  if (head.rfind("AdjacencyGraph", 0) == 0 ||
      head.rfind("WeightedAdjacencyGraph", 0) == 0)
    return load_options::file_format::adjacency;
  return load_options::file_format::edge_list;
}

// Backoff before retry `attempt` (1-based): base doubled per attempt,
// capped, with deterministic jitter in [1/2, 1] of the capped value so
// concurrent reloads of many graphs don't retry in lockstep.
std::chrono::milliseconds backoff_for(const retry_options& r, size_t attempt) {
  uint64_t ms = r.base_backoff_ms;
  for (size_t i = 1; i < attempt && ms < r.max_backoff_ms; i++) ms *= 2;
  ms = std::min<uint64_t>(ms, r.max_backoff_ms);
  uint64_t half = ms / 2;
  uint64_t jitter = half == 0 ? 0 : hash64(r.jitter_seed ^ attempt) % (half + 1);
  return std::chrono::milliseconds(ms - half + jitter);
}

// The per-epoch arrays, by the `kind` label of their metrics.
enum fill_kind : size_t { kFillLabels, kFillCoreness, kFillRanks, kNumFills };
constexpr std::array<const char*, kNumFills> kFillKindNames = {
    "cc", "coreness", "pagerank"};

}  // namespace

struct epoch_fill_metrics {
  std::array<obs::counter*, kNumFills> fills{};     // engine_epoch_fills_total
  std::array<obs::histogram*, kNumFills> micros{};  // engine_epoch_fill_micros
  obs::gauge* memory_bytes = nullptr;               // engine_graph_memory_bytes
};

namespace {

// Fills `slot` through `compute`, with the fill span, the epoch.fill
// failpoint, and the engine_epoch_fill* metrics of `kind` (none when
// `metrics` is null).
template <class T, class Compute>
const std::vector<T>& fill(lazy_fill<std::vector<T>>& slot,
                           const epoch_fill_metrics* metrics, size_t kind,
                           Compute&& compute) {
  return slot.get([&] {
    // In the trace of the query that runs the fill, so a slow first query
    // on an epoch explains itself.
    obs::span_scope span("fill");
    if (LIGRA_FAILPOINT("epoch.fill"))
      throw engine_error("injected epoch fill failure (failpoint epoch.fill)");
    const monotonic_time t0 = mono_now();
    std::vector<T> out = compute();
    if (metrics != nullptr) {
      metrics->fills[kind]->inc();
      metrics->micros[kind]->record(static_cast<uint64_t>(micros_since(t0)));
      // Recomputed from the resident entries at the next load, update or
      // eviction; until then the gauge grows by each fill.
      metrics->memory_bytes->add(static_cast<int64_t>(out.size() * sizeof(T)));
    }
    return out;
  });
}

}  // namespace

const std::vector<vertex_id>& graph_entry::labels() const {
  if (inc_ != nullptr) return inc_->cc_labels;
  return fill(labels_, fill_metrics_.get(), kFillLabels, [this] {
    return apps::connected_components(structure()).labels;
  });
}

const std::vector<vertex_id>& graph_entry::coreness() const {
  return fill(core_, fill_metrics_.get(), kFillCoreness,
              [this] { return apps::kcore(structure()).coreness; });
}

const std::vector<double>& graph_entry::ranks() const {
  if (inc_ != nullptr) return inc_->pr_rank;
  return fill(ranks_, fill_metrics_.get(), kFillRanks,
              [this] { return apps::pagerank(structure()).rank; });
}

registry::registry(obs::metrics_registry* metrics) : metrics_(metrics) {
  if (metrics_ != nullptr) {
    m_loads_ = &metrics_->get_counter("engine_graph_loads_total");
    m_load_retries_ = &metrics_->get_counter("engine_graph_load_retries_total");
    m_load_failures_ =
        &metrics_->get_counter("engine_graph_load_failures_total");
    m_load_micros_ = &metrics_->get_histogram("engine_graph_load_micros");
    m_updates_ = &metrics_->get_counter("engine_graph_updates_total");
    m_update_retries_ =
        &metrics_->get_counter("engine_graph_update_retries_total");
    m_update_failures_ =
        &metrics_->get_counter("engine_graph_update_failures_total");
    m_update_micros_ = &metrics_->get_histogram("engine_graph_update_micros");
    m_resident_ = &metrics_->get_gauge("engine_graphs_resident");
    m_memory_bytes_ = &metrics_->get_gauge("engine_graph_memory_bytes");
    auto fm = std::make_shared<epoch_fill_metrics>();
    for (size_t k = 0; k < kNumFills; k++) {
      const std::string label =
          std::string("{kind=\"") + kFillKindNames[k] + "\"}";
      fm->fills[k] = &metrics_->get_counter("engine_epoch_fills_total" + label);
      fm->micros[k] =
          &metrics_->get_histogram("engine_epoch_fill_micros" + label);
    }
    fm->memory_bytes = m_memory_bytes_;
    fill_metrics_ = std::move(fm);
  }
}

graph_handle registry::load(const std::string& name, const std::string& path,
                            const load_options& opts) {
  const size_t max_attempts = std::max<size_t>(1, opts.retry.max_attempts);
  const monotonic_time t0 = mono_now();
  for (size_t attempt = 1;; attempt++) {
    try {
      graph_handle h = load_once(name, path, opts);
      if (m_loads_ != nullptr) m_loads_->inc();
      if (m_load_micros_ != nullptr)
        m_load_micros_->record(static_cast<uint64_t>(micros_since(t0)));
      return h;
    } catch (const io::format_error& e) {
      // Corrupt content: retrying rereads the same bytes, so fail now.
      if (m_load_failures_ != nullptr) m_load_failures_->inc();
      throw load_error("loading '" + name + "' from " + path + ": " + e.what(),
                       attempt);
    } catch (const std::invalid_argument& e) {
      if (m_load_failures_ != nullptr) m_load_failures_->inc();
      throw load_error("loading '" + name + "' from " + path + ": " + e.what(),
                       attempt);
    } catch (const std::exception& e) {
      if (attempt >= max_attempts) {
        if (m_load_failures_ != nullptr) m_load_failures_->inc();
        throw load_error("loading '" + name + "' from " + path + " failed after " +
                             std::to_string(attempt) +
                             " attempts: " + e.what(),
                         attempt);
      }
      if (m_load_retries_ != nullptr) m_load_retries_->inc();
      obs::log_warn("registry", "graph load failed; retrying",
                    {{"graph", name},
                     {"path", path},
                     {"attempt", attempt},
                     {"error", e.what()}});
      std::this_thread::sleep_for(backoff_for(opts.retry, attempt));
    }
  }
}

graph_handle registry::load_once(const std::string& name,
                                 const std::string& path,
                                 const load_options& opts) {
  auto format = opts.format == load_options::file_format::auto_detect
                    ? sniff_format(path)
                    : opts.format;
  if (LIGRA_FAILPOINT("registry.load.alloc")) throw std::bad_alloc();
  auto e = std::make_shared<graph_entry>();
  if (opts.weighted) {
    switch (format) {
      case load_options::file_format::adjacency:
        e->wg_ = io::read_weighted_adjacency_graph(path, opts.symmetric);
        break;
      case load_options::file_format::binary:
        e->wg_ = io::read_weighted_binary_graph(path);
        break;
      default:
        e->wg_ = io::read_weighted_edge_list(path, opts.symmetric);
        break;
    }
    e->g_ = structure_of(*e->wg_);
  } else {
    switch (format) {
      case load_options::file_format::adjacency:
        e->g_ = io::read_adjacency_graph(path, opts.symmetric);
        break;
      case load_options::file_format::binary:
        e->g_ = io::read_binary_graph(path);
        break;
      default:
        e->g_ = io::read_edge_list(path, opts.symmetric);
        break;
    }
  }
  // Validate *before* publishing: nothing below this point
  // may fail after the new epoch becomes visible (all-or-nothing reload).
  if (opts.validate) {
    io::validate_graph(e->g_, path);
    if (e->wg_) io::validate_graph(*e->wg_, path);
  }
  e->name_ = name;
  return insert(std::move(e));
}

graph_handle registry::add(const std::string& name, graph g) {
  auto e = std::make_shared<graph_entry>();
  e->name_ = name;
  e->g_ = std::move(g);
  return insert(std::move(e));
}

graph_handle registry::add(const std::string& name, wgraph g) {
  auto e = std::make_shared<graph_entry>();
  e->name_ = name;
  e->wg_ = std::move(g);
  e->g_ = structure_of(*e->wg_);
  return insert(std::move(e));
}

graph_handle registry::add_mutable(const std::string& name, graph g,
                                   dynamic::mutable_graph_options opts) {
  return register_mutable(
      name, std::make_shared<const dynamic::mutable_graph>(std::move(g), opts),
      nullptr);
}

graph_handle registry::add_mutable(const std::string& name, graph g,
                                   const std::string& dir,
                                   dynamic::durability_options dur,
                                   dynamic::mutable_graph_options opts) {
  // The store checkpoints the base graph before the view wraps it, so even
  // a graph that crashes before its first batch recovers to itself.
  std::shared_ptr<dynamic::durable_store> store =
      dynamic::durable_store::create(dir, g, /*graph_version=*/0, dur,
                                     metrics_);
  return register_mutable(
      name, std::make_shared<const dynamic::mutable_graph>(std::move(g), opts),
      std::move(store));
}

graph_handle registry::recover_mutable(const std::string& name,
                                       const std::string& dir,
                                       dynamic::durability_options dur,
                                       dynamic::mutable_graph_options opts,
                                       dynamic::recovery_report* report) {
  dynamic::durable_store::recovered rec =
      dynamic::durable_store::recover(dir, dur, opts, metrics_);
  if (report != nullptr) *report = rec.report;
  auto view = std::make_shared<const dynamic::mutable_graph>(
      std::move(rec.g), opts, rec.graph_version);
  return register_mutable(name, std::move(view), std::move(rec.store));
}

graph_handle registry::register_mutable(
    const std::string& name,
    std::shared_ptr<const dynamic::mutable_graph> view,
    std::shared_ptr<dynamic::durable_store> store) {
  // Seed the epoch's converged analytics with one full run of each; every
  // later epoch refreshes them incrementally from the batch's footprint.
  auto inc = std::make_shared<dynamic::inc_state>();
  {
    apps::components_result cc = apps::connected_components(view->base());
    inc->cc_labels = std::move(cc.labels);
    inc->cc_components = cc.num_components;
  }
  inc->pr_rank =
      apps::pagerank_delta(view->base(), dynamic::maintenance_pr_options())
          .rank;
  auto e = std::make_shared<graph_entry>();
  e->name_ = name;
  e->dyn_ = std::move(view);
  e->inc_ = std::move(inc);
  if (store != nullptr) {
    std::unique_lock lock(mutex_);
    stores_[name] = std::move(store);
  } else {
    std::unique_lock lock(mutex_);
    stores_.erase(name);  // re-registering non-durable drops the old store
  }
  graph_handle h = insert(std::move(e));
  if (metrics_ != nullptr)
    metrics_->get_gauge("engine_graph_delta_edges{graph=\"" + name + "\"}")
        .set(static_cast<int64_t>(h->dyn()->delta_edges()));
  return h;
}

std::shared_ptr<dynamic::durable_store> registry::store_for(
    const std::string& name) const {
  std::shared_lock lock(mutex_);
  auto it = stores_.find(name);
  return it == stores_.end() ? nullptr : it->second;
}

bool registry::is_durable(const std::string& name) const {
  return store_for(name) != nullptr;
}

void registry::checkpoint(const std::string& name) {
  // Pair the snapshot with the WAL position atomically: no batch may land
  // between materializing the view and stamping the checkpoint's seq.
  std::lock_guard apply_lock(apply_mutex_);
  graph_handle cur = get(name);
  std::shared_ptr<dynamic::durable_store> store = store_for(name);
  if (!cur->is_mutable() || store == nullptr)
    throw engine_error("graph '" + name + "' has no durable store attached");
  store->checkpoint_now(cur->dyn()->materialize(), cur->dyn()->version());
}

dynamic::wal_stats registry::wal_stats(const std::string& name) const {
  std::shared_ptr<dynamic::durable_store> store = store_for(name);
  if (store == nullptr)
    throw engine_error("graph '" + name + "' has no durable store attached");
  return store->stats();
}

graph_handle registry::apply_updates(const std::string& name,
                                     dynamic::update_batch batch,
                                     const retry_options& retry) {
  // One batch publishes at a time; later callers build on this one's epoch.
  std::lock_guard apply_lock(apply_mutex_);
  const size_t max_attempts = std::max<size_t>(1, retry.max_attempts);
  const monotonic_time t0 = mono_now();
  for (size_t attempt = 1;; attempt++) {
    try {
      graph_handle h = apply_once(name, batch);
      if (m_updates_ != nullptr) m_updates_->inc();
      if (m_update_micros_ != nullptr)
        m_update_micros_->record(static_cast<uint64_t>(micros_since(t0)));
      return h;
    } catch (const engine_error&) {
      // Unknown name / non-mutable target: retrying resolves the same entry.
      if (m_update_failures_ != nullptr) m_update_failures_->inc();
      throw;
    } catch (const std::invalid_argument& e) {
      // Malformed batch: normalization rereads the same edges, fail now.
      if (m_update_failures_ != nullptr) m_update_failures_->inc();
      throw update_error("applying updates to '" + name + "': " + e.what(),
                         attempt);
    } catch (const std::exception& e) {
      if (attempt >= max_attempts) {
        if (m_update_failures_ != nullptr) m_update_failures_->inc();
        throw update_error("applying updates to '" + name + "' failed after " +
                               std::to_string(attempt) +
                               " attempts: " + e.what(),
                           attempt);
      }
      if (m_update_retries_ != nullptr) m_update_retries_->inc();
      obs::log_warn("registry", "update apply failed; retrying",
                    {{"graph", name},
                     {"attempt", attempt},
                     {"error", e.what()}});
      std::this_thread::sleep_for(backoff_for(retry, attempt));
    }
  }
}

graph_handle registry::apply_once(const std::string& name,
                                  const dynamic::update_batch& batch) {
  graph_handle cur = try_get(name);
  if (cur == nullptr)
    throw not_found_error("no graph named '" + name + "' is registered");
  if (!cur->is_mutable())
    throw engine_error("graph '" + name +
                       "' is not mutable (registered without add_mutable)");
  // Everything below is functional over the current entry: apply builds the
  // next version, the incremental kernels build the next epoch's state, and
  // only then does insert() publish. A throw anywhere leaves `cur` serving.
  dynamic::applied ap = cur->dyn()->apply(batch);
  auto inc = std::make_shared<dynamic::inc_state>();
  {
    apps::components_result cc = dynamic::components_inc(
        ap.next, cur->inc()->cc_labels, ap.inserted, ap.deleted);
    inc->cc_labels = std::move(cc.labels);
    inc->cc_components = cc.num_components;
  }
  inc->pr_rank = dynamic::pagerank_delta_inc(ap.next, *cur->dyn(),
                                             cur->inc()->pr_rank, ap.inserted,
                                             ap.deleted)
                     .rank;
  auto e = std::make_shared<graph_entry>();
  e->name_ = name;
  e->dyn_ = std::make_shared<const dynamic::mutable_graph>(std::move(ap.next));
  e->inc_ = std::move(inc);
  // Append-before-publish: the batch's *effective* edges go to the WAL now,
  // after every fallible in-memory step above but before the epoch becomes
  // visible. A throw here (fsync failure, injected wal.append/wal.fsync)
  // leaves `cur` serving and the log rewound — the retry re-applies and
  // re-appends cleanly. Empty records are logged too, keeping the on-disk
  // seq in lockstep with mutable_graph::version().
  std::shared_ptr<dynamic::durable_store> store = store_for(name);
  if (store != nullptr) {
    dynamic::update_batch effective;
    effective.inserts = ap.inserted;
    effective.deletes = ap.deleted;
    store->log(effective);
  }
  graph_handle h = insert(std::move(e));
  if (store != nullptr)
    store->note_applied([&h] { return h->dyn()->materialize(); },
                        h->dyn()->version());
  if (metrics_ != nullptr)
    metrics_->get_gauge("engine_graph_delta_edges{graph=\"" + name + "\"}")
        .set(static_cast<int64_t>(h->dyn()->delta_edges()));
  return h;
}

graph_handle registry::insert(std::shared_ptr<graph_entry> e) {
  e->epoch_ = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  e->fill_metrics_ = fill_metrics_;
  graph_handle h = std::move(e);
  {
    std::unique_lock lock(mutex_);
    entries_[h->name()] = h;
  }
  if (metrics_ != nullptr) {
    metrics_->get_gauge("engine_graph_epoch{graph=\"" + h->name() + "\"}")
        .set(static_cast<int64_t>(h->epoch()));
    publish_residency();
  }
  return h;
}

void registry::publish_residency() {
  if (metrics_ == nullptr) return;
  size_t count = 0;
  size_t bytes = 0;
  {
    std::shared_lock lock(mutex_);
    count = entries_.size();
    for (const auto& [name, e] : entries_) bytes += e->memory_bytes();
  }
  m_resident_->set(static_cast<int64_t>(count));
  m_memory_bytes_->set(static_cast<int64_t>(bytes));
}

graph_handle registry::get(const std::string& name) const {
  if (auto h = try_get(name)) return h;
  throw not_found_error("no graph named '" + name + "' is registered");
}

graph_handle registry::try_get(const std::string& name) const {
  std::shared_lock lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

bool registry::evict(const std::string& name) {
  bool erased = false;
  {
    std::unique_lock lock(mutex_);
    erased = entries_.erase(name) > 0;
    // Dropping the store closes the WAL (flushing any interval/never tail);
    // the on-disk state stays, ready for recover_mutable.
    stores_.erase(name);
  }
  if (erased) publish_residency();
  return erased;
}

void registry::clear() {
  {
    std::unique_lock lock(mutex_);
    entries_.clear();
    stores_.clear();
  }
  publish_residency();
}

size_t registry::size() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

std::vector<entry_info> registry::list() const {
  std::shared_lock lock(mutex_);
  std::vector<entry_info> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    entry_info info;
    info.name = name;
    info.epoch = e->epoch();
    info.weighted = e->weighted();
    info.is_mutable = e->is_mutable();
    if (e->is_mutable()) {
      info.version = e->dyn()->version();
      info.delta_edges = e->dyn()->delta_edges();
    }
    // num_vertices()/num_edges() — not structure() — so listing never
    // materializes a mutable entry's merged CSR.
    info.num_vertices = e->num_vertices();
    info.num_edges = e->num_edges();
    info.memory_bytes = e->memory_bytes();
    out.push_back(std::move(info));
  }
  return out;
}

size_t registry::total_memory_bytes() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& [name, e] : entries_) total += e->memory_bytes();
  return total;
}

}  // namespace ligra::engine
