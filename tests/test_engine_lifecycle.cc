// Randomized lifecycle property test (docs/ENGINE.md "One lifecycle",
// docs/ROBUSTNESS.md): in-process submit() (future and continuation forms),
// run(), and loopback-wire queries race caller cancels, short deadlines
// (watchdog and polling), the executor.dispatch failpoint, invalid
// vertices, unknown graphs, and load shedding — under two rng seeds. For
// every query:
//   - it settles exactly once (a refused submit() never calls on_settle),
//     and exactly one flight-recorder and one trace-store record carries
//     its id;
//   - the exception it ended with matches the type rethrow(status) builds;
//   - the status the caller saw (future or wire response) names the
//     outcome in the flight recorder and in the trace store, and the two
//     records agree on every member they share.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <typeindex>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/trace_store.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace e = ligra::engine;
namespace n = ligra::net;
namespace fp = ligra::util::failpoint;
using namespace ligra;
using namespace std::chrono_literals;

namespace {

constexpr size_t kWaves = 10;
constexpr size_t kInprocPerWave = 24;
constexpr size_t kWirePerWave = 6;

// Holds the one dispatcher so a wave's queries queue up behind it.
struct blocker {
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future().share()};
  std::atomic<int> started{0};

  e::query_request request() {
    e::query_request q;
    q.graph = "g";
    q.kind = e::query_kind::custom;
    q.custom = [this](const e::graph_entry&, const e::cancel_token&) -> int64_t {
      started.fetch_add(1);
      gate.wait();
      return 7;
    };
    return q;
  }
};

// What the caller saw for one query.
struct seen {
  obs::trace_id tid{};
  e::query_status status = e::query_status::ok;
  std::exception_ptr err;  // null for ok
  bool wire = false;
};

seen settle(const obs::trace_id& tid, std::exception_ptr err, bool wire) {
  seen s;
  s.tid = tid;
  s.wire = wire;
  s.err = std::move(err);
  if (s.err) s.status = e::classify(s.err).status;
  return s;
}

// What submit(req, on_settle) delivered: the call count and the error.
struct continuation {
  std::atomic<int> calls{0};
  std::exception_ptr err;  // written before `calls` is released
  bool admitted = false;   // submit() returned instead of throwing

  e::settle_fn fn() {
    return [this](e::query_result*, std::exception_ptr got) {
      err = std::move(got);
      calls.fetch_add(1, std::memory_order_release);
    };
  }
  bool wait_for_call(std::chrono::seconds limit) const {
    const auto until = std::chrono::steady_clock::now() + limit;
    while (calls.load(std::memory_order_acquire) == 0) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(100us);
    }
    return true;
  }
};

std::type_index type_of(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& ex) {
    return typeid(ex);
  } catch (...) {
  }
  return typeid(void);
}

// Every member /traces/<id> and /debug/flightrec both print, as one
// comparable tuple (seq is each ring's own push order).
auto shared_members(const obs::flight_entry& f) {
  return std::make_tuple(std::string(f.kind), std::string(f.graph),
                         std::string(f.outcome), f.epoch, f.queued_micros,
                         f.exec_micros, f.rounds, f.retry_after_ms,
                         f.result_bytes, f.cache_hit, f.sampled);
}

// Parameterized on the rng seed every draw below comes from.
class EngineLifecycle : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

}  // namespace

TEST_P(EngineLifecycle, EveryQuerySettlesOnceWithOneOutcomeEverywhere) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  const graph g = gen::rmat_graph(10, 1 << 13, /*seed=*/11);
  const vertex_id nv = g.num_vertices();
  e::registry reg;
  reg.add("g", g);

  obs::trace_store traces(8192);
  obs::flight_recorder flightrec(8192);
  e::executor_options opts;
  opts.max_concurrency = 1;
  opts.max_queue = 40;
  opts.shed_watermark = 16;
  opts.cache_capacity = 64;
  opts.traces = &traces;
  opts.flightrec = &flightrec;
  e::query_executor ex(reg, opts);
  n::server srv(ex);
  srv.start();

  fp::spec flaky;
  flaky.act = fp::action::fail;
  flaky.probability = 0.1;
  fp::arm("executor.dispatch", flaky);

  rng r(GetParam());
  uint64_t draw = 0;
  auto next = [&](uint64_t bound) { return r[draw++] % bound; };
  auto vertex = [&] {  // mostly valid, sometimes just past the end
    return next(16) == 0 ? nv + static_cast<vertex_id>(next(4))
                         : static_cast<vertex_id>(next(nv));
  };

  std::vector<seen> all;
  // Every continuation handed to submit(), refused or not; checked once
  // the executor is idle. A deque: its elements never move.
  std::deque<continuation> continuations;
  for (size_t wave = 0; wave < kWaves; wave++) {
    blocker b;
    std::future<e::query_result> held;
    const bool hold = next(3) != 0;
    if (hold) {
      held = ex.submit(b.request());
      // executor.dispatch may fail the blocker itself: then nothing holds.
      while (b.started.load() == 0 &&
             held.wait_for(0s) != std::future_status::ready)
        std::this_thread::yield();
    }

    // Wire queries race the in-process wave from their own connection.
    std::vector<n::wire_request> wire_ops;
    for (size_t i = 0; i < kWirePerWave; i++) {
      n::wire_request w;
      w.kind = e::query_kind::bfs_distance;
      w.graph = next(12) == 0 ? "nope" : "g";
      w.source = vertex();
      w.target = vertex();
      if (next(10) == 0) w.target = uint64_t{1} << 40;  // refused by the server
      if (next(4) == 0) w.deadline_ms = 1;
      if (next(6) == 0) w.priority = e::query_priority::low;
      wire_ops.push_back(std::move(w));
    }
    std::vector<seen> wire_seen;
    std::thread wire_thread([&] {
      n::client c({.trace_sample = 1.0});
      c.connect("127.0.0.1", srv.port());
      for (auto& w : wire_ops) {
        std::exception_ptr err;
        try {
          c.run(w);
        } catch (...) {
          err = std::current_exception();
        }
        wire_seen.push_back(settle(c.last_trace_id(), err, /*wire=*/true));
      }
    });

    struct pending {
      obs::trace_id tid;
      std::future<e::query_result> fut;  // or, when null, `settled`
      continuation* settled = nullptr;
      std::unique_ptr<e::cancel_source> cancel;
    };
    std::vector<pending> submitted;
    for (size_t i = 0; i < kInprocPerWave; i++) {
      e::query_request q;
      q.graph = next(16) == 0 ? "nope" : "g";
      q.tid = obs::trace_id::mint();
      q.sampled = true;
      const uint64_t shape = next(10);
      if (shape < 6) {
        q.kind = e::query_kind::bfs_distance;
        q.source = vertex();
        q.target = vertex();
      } else if (shape < 8) {
        q.kind = e::query_kind::component_id;
        q.source = vertex();
      } else {
        // A body that never polls: only the watchdog can settle it early.
        q.kind = e::query_kind::custom;
        q.custom = [](const e::graph_entry&, const e::cancel_token&) -> int64_t {
          std::this_thread::sleep_for(3ms);
          return 1;
        };
      }
      if (next(4) == 0) q.deadline = 1ms;
      if (next(8) == 0) q.priority = e::query_priority::low;
      auto cancel =
          next(5) == 0 ? std::make_unique<e::cancel_source>() : nullptr;
      if (cancel) {
        q.token = cancel->token();
        if (next(2) == 0) cancel->request_cancel();  // before submit
      }

      if (next(8) == 0) {
        // Synchronous path: same lifecycle on this thread, no watchdog.
        std::exception_ptr err;
        try {
          ex.run(q);
        } catch (...) {
          err = std::current_exception();
        }
        all.push_back(settle(q.tid, err, /*wire=*/false));
        continue;
      }
      const obs::trace_id tid = q.tid;
      // Every other query uses the continuation form directly (by index,
      // so the random draws stay the same).
      continuation* settled =
          i % 2 == 1 ? &continuations.emplace_back() : nullptr;
      try {
        std::future<e::query_result> fut;
        if (settled != nullptr) {
          ex.submit(std::move(q), settled->fn());
          settled->admitted = true;
        } else {
          fut = ex.submit(std::move(q));
        }
        if (cancel && next(2) == 0) cancel->request_cancel();  // racing
        submitted.push_back({tid, std::move(fut), settled, std::move(cancel)});
      } catch (...) {
        all.push_back(settle(tid, std::current_exception(), /*wire=*/false));
      }
    }

    if (hold) b.release.set_value();
    for (auto& p : submitted) {
      const bool ready = p.settled != nullptr
                             ? p.settled->wait_for_call(30s)
                             : p.fut.wait_for(30s) == std::future_status::ready;
      if (!ready) {
        ADD_FAILURE() << "query never settled: " << p.tid.to_hex();
        continue;  // keep going: the wire thread must still be joined
      }
      // `all` keeps each exception alive until the test ends, so it is
      // never destroyed on a dispatcher while this thread reads it.
      std::exception_ptr err;
      if (p.settled != nullptr) {
        err = p.settled->err;
      } else {
        try {
          p.fut.get();
        } catch (...) {
          err = std::current_exception();
        }
      }
      all.push_back(settle(p.tid, err, /*wire=*/false));
    }
    wire_thread.join();
    all.insert(all.end(), wire_seen.begin(), wire_seen.end());
    if (hold) held.wait();
  }
  fp::disarm_all();
  ex.wait_idle();  // late (watchdog-settled) bodies record when they exit
  srv.stop();
  for (const auto& k : continuations)
    EXPECT_EQ(k.calls.load(), k.admitted ? 1 : 0)
        << (k.admitted ? "settled more than once" : "refused, yet settled");

  std::map<std::string, std::vector<obs::flight_entry>> flight;
  std::map<std::string, std::vector<obs::trace_record>> kept;
  for (const auto& f : flightrec.snapshot()) flight[f.id.to_hex()].push_back(f);
  for (const auto& t : traces.recent(0)) kept[t.id.to_hex()].push_back(t);
  ASSERT_LT(flightrec.recorded(), flightrec.capacity()) << "ring wrapped";
  ASSERT_EQ(traces.evicted(), 0u);

  std::map<e::query_status, size_t> tally;
  for (const auto& s : all) {
    ASSERT_TRUE(s.tid.valid());
    const std::string name = e::status_name(s.status);
    const std::string id = s.tid.to_hex();
    tally[s.status]++;
    if (s.err) {
      // The table rebuilds a type that classifies to the same row. Over
      // the wire, and in process for every row whose error is the
      // engine's own type, it is exactly the type the caller caught (bad
      // parameters stay std::invalid_argument in process).
      const auto rebuilt = e::make_error(s.status, "m", 1);
      ASSERT_TRUE(rebuilt) << name;
      EXPECT_EQ(e::classify(rebuilt).status, s.status) << name;
      if (s.wire || (s.status != e::query_status::bad_request &&
                     s.status != e::query_status::load)) {
        EXPECT_EQ(type_of(s.err), type_of(rebuilt)) << name;
      }
    }
    const std::string where =
        std::string(s.wire ? "wire " : "in-process ") + name + " " + id;
    ASSERT_EQ(flight[id].size(), 1u) << where;
    EXPECT_STREQ(flight[id][0].outcome, name.c_str()) << where;
    ASSERT_EQ(kept[id].size(), 1u) << where;
    // One record fed both rings: the trace store agrees on every member.
    EXPECT_EQ(shared_members(kept[id][0]), shared_members(flight[id][0]))
        << where;
  }
  // The interleavings actually reached the outcomes under test.
  EXPECT_GT(tally[e::query_status::ok], 0u);
  EXPECT_GT(tally[e::query_status::bad_request], 0u);
  EXPECT_GT(tally[e::query_status::not_found], 0u);
  EXPECT_GT(tally[e::query_status::deadline], 0u);
  EXPECT_GT(tally[e::query_status::cancelled], 0u);
  EXPECT_GT(tally[e::query_status::internal], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seed, EngineLifecycle,
                         ::testing::Values(uint64_t{7922}, uint64_t{506819}));
