// Observability plumbing tests (docs/OBSERVABILITY.md): trace ids (hex
// round trips, mint uniqueness, thread-local scopes), the structured
// logger (levels, text/JSON formats, field typing, rate limiting with
// error bypass, trace-id attachment, concurrent writers), the trace
// retention ring (insert/find/evict, index JSON, concurrent access — the
// TSan target), and the flight recorder ring.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_store.h"

namespace obs = ligra::obs;

namespace {

// A logger writing into an anonymous tmpfile; contents() reads it back.
struct capturing_logger {
  obs::logger log;
  std::FILE* f;

  capturing_logger() : f(std::tmpfile()) {
    EXPECT_NE(f, nullptr);
    log.set_sink(f);
  }
  ~capturing_logger() {
    log.set_sink(nullptr);
    if (f != nullptr) std::fclose(f);
  }

  std::string contents() {
    std::fflush(f);
    std::string out;
    long end = std::ftell(f);
    if (end <= 0) return out;
    out.resize(static_cast<size_t>(end));
    std::rewind(f);
    size_t got = std::fread(out.data(), 1, out.size(), f);
    out.resize(got);
    std::fseek(f, 0, SEEK_END);
    return out;
  }
};

}  // namespace

// --- trace ids --------------------------------------------------------------

TEST(TraceId, ZeroIsAbsentAndHexRoundTrips) {
  obs::trace_id zero;
  EXPECT_FALSE(zero.valid());

  obs::trace_id id{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_TRUE(id.valid());
  const std::string hex = id.to_hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  auto back = obs::trace_id::from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, id);

  // Uppercase input parses too (URLs get pasted around).
  auto upper = obs::trace_id::from_hex("0123456789ABCDEFFEDCBA9876543210");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(*upper, id);
}

TEST(TraceId, FromHexRejectsMalformedInput) {
  EXPECT_FALSE(obs::trace_id::from_hex("").has_value());
  EXPECT_FALSE(obs::trace_id::from_hex("abc").has_value());
  EXPECT_FALSE(obs::trace_id::from_hex(std::string(31, 'a')).has_value());
  EXPECT_FALSE(obs::trace_id::from_hex(std::string(33, 'a')).has_value());
  std::string bad(32, 'a');
  bad[7] = 'g';  // not hex
  EXPECT_FALSE(obs::trace_id::from_hex(bad).has_value());
  bad[7] = ' ';
  EXPECT_FALSE(obs::trace_id::from_hex(bad).has_value());
}

TEST(TraceId, MintNeverReturnsZeroAndNeverCollides) {
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::vector<obs::trace_id>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; i++)
        minted[t].push_back(obs::trace_id::mint());
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const auto& v : minted) {
    for (const auto& id : v) {
      EXPECT_TRUE(id.valid());
      EXPECT_TRUE(seen.insert({id.hi, id.lo}).second) << "duplicate mint";
    }
  }
  EXPECT_EQ(seen.size(), size_t{kThreads} * kPerThread);
}

TEST(TraceId, ScopeInstallsAndRestoresNested) {
  EXPECT_FALSE(obs::current_trace_id().valid());
  obs::trace_id outer{1, 2}, inner{3, 4};
  {
    obs::trace_id_scope a(outer);
    EXPECT_EQ(obs::current_trace_id(), outer);
    {
      obs::trace_id_scope b(inner);
      EXPECT_EQ(obs::current_trace_id(), inner);
    }
    EXPECT_EQ(obs::current_trace_id(), outer);
  }
  EXPECT_FALSE(obs::current_trace_id().valid());
}

// --- structured logger ------------------------------------------------------

TEST(Log, ParseLogLevel) {
  obs::log_level l;
  EXPECT_TRUE(obs::parse_log_level("debug", &l));
  EXPECT_EQ(l, obs::log_level::debug);
  EXPECT_TRUE(obs::parse_log_level("info", &l));
  EXPECT_EQ(l, obs::log_level::info);
  EXPECT_TRUE(obs::parse_log_level("warn", &l));
  EXPECT_EQ(l, obs::log_level::warn);
  EXPECT_TRUE(obs::parse_log_level("error", &l));
  EXPECT_EQ(l, obs::log_level::error);
  EXPECT_TRUE(obs::parse_log_level("off", &l));
  EXPECT_EQ(l, obs::log_level::off);
  EXPECT_FALSE(obs::parse_log_level("verbose", &l));
  EXPECT_FALSE(obs::parse_log_level("", &l));
}

TEST(Log, LevelThresholdSuppressesCheaply) {
  capturing_logger cl;
  cl.log.set_level(obs::log_level::warn);
  cl.log.write(obs::log_level::debug, "t", "too quiet");
  cl.log.write(obs::log_level::info, "t", "still too quiet");
  cl.log.write(obs::log_level::warn, "t", "loud enough");
  EXPECT_EQ(cl.log.emitted(), 1u);
  auto out = cl.contents();
  EXPECT_EQ(out.find("too quiet"), std::string::npos);
  EXPECT_NE(out.find("loud enough"), std::string::npos);

  cl.log.set_level(obs::log_level::off);
  cl.log.write(obs::log_level::error, "t", "even errors are off");
  EXPECT_EQ(cl.log.emitted(), 1u);
}

TEST(Log, TextFormatCarriesComponentMessageAndFields) {
  capturing_logger cl;
  cl.log.write(obs::log_level::warn, "wal", "append failed",
               {{"path", "/tmp/x"}, {"attempt", 3}, {"fsync", true}});
  auto out = cl.contents();
  EXPECT_NE(out.find("warn"), std::string::npos);
  EXPECT_NE(out.find("wal:"), std::string::npos);
  EXPECT_NE(out.find("append failed"), std::string::npos);
  EXPECT_NE(out.find("path=/tmp/x"), std::string::npos);
  EXPECT_NE(out.find("attempt=3"), std::string::npos);
  EXPECT_NE(out.find("fsync=true"), std::string::npos);
}

TEST(Log, JsonFormatTypesAndEscapes) {
  capturing_logger cl;
  cl.log.set_json(true);
  cl.log.write(obs::log_level::info, "net", "client said \"hi\"\n",
               {{"port", 7471},
                {"rate", 0.25},
                {"peer", "10.0.0.1"},
                {"ok", false}});
  auto out = cl.contents();
  EXPECT_NE(out.find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(out.find("\"component\":\"net\""), std::string::npos);
  // Message body escaped: embedded quotes and the newline.
  EXPECT_NE(out.find("client said \\\"hi\\\"\\n"), std::string::npos);
  // Numbers and bools unquoted, strings quoted.
  EXPECT_NE(out.find("\"port\":7471"), std::string::npos);
  EXPECT_NE(out.find("\"rate\":0.250"), std::string::npos);
  EXPECT_NE(out.find("\"peer\":\"10.0.0.1\""), std::string::npos);
  EXPECT_NE(out.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(out.find("\"trace_id\""), std::string::npos);  // none installed
}

TEST(Log, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Log, AttachesCurrentTraceId) {
  capturing_logger cl;
  obs::trace_id id{0xaaULL, 0xbbULL};
  {
    obs::trace_id_scope scope(id);
    cl.log.write(obs::log_level::warn, "engine", "inside a query");
  }
  cl.log.write(obs::log_level::warn, "engine", "outside any query");
  auto out = cl.contents();
  auto first = out.find("trace=" + id.to_hex());
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(out.find("trace=", first + 1), std::string::npos)
      << "the scope ended; the second line must not carry the id";
}

TEST(Log, RateLimitDropsAndErrorsBypass) {
  capturing_logger cl;
  obs::metrics_registry metrics;
  cl.log.set_metrics(&metrics);
  cl.log.set_rate_limit(/*per_sec=*/1.0, /*burst=*/3.0);
  for (int i = 0; i < 50; i++)
    cl.log.write(obs::log_level::warn, "t", "spam " + std::to_string(i));
  EXPECT_GT(cl.log.dropped(), 0u);
  EXPECT_LT(cl.log.emitted(), 50u);
  EXPECT_EQ(metrics.get_counter("engine_log_dropped_total").value(),
            cl.log.dropped());

  // Errors are never limited: the post-outage forensics survive the storm.
  const uint64_t before = cl.log.emitted();
  for (int i = 0; i < 20; i++)
    cl.log.write(obs::log_level::error, "t", "err " + std::to_string(i));
  EXPECT_EQ(cl.log.emitted(), before + 20);
  cl.log.set_metrics(nullptr);
}

TEST(Log, ConcurrentWritersDoNotInterleaveOrRace) {
  capturing_logger cl;
  constexpr int kThreads = 4, kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++)
        cl.log.write(obs::log_level::warn, "t",
                     "w" + std::to_string(t) + "-" + std::to_string(i),
                     {{"i", i}});
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cl.log.emitted(), uint64_t{kThreads} * kPerThread);
  // Every line is whole: count newlines == lines emitted.
  auto out = cl.contents();
  size_t newlines = 0;
  for (char c : out) newlines += c == '\n';
  EXPECT_EQ(newlines, size_t{kThreads} * kPerThread);
}

// --- trace store ------------------------------------------------------------

namespace {

obs::trace_record make_record(uint64_t lo, const std::string& outcome = "ok") {
  obs::trace_record r;
  r.id = {0x11, lo};
  r.set_kind("bfs");
  r.set_graph("g");
  r.set_outcome(outcome);
  r.exec_micros = 42.0;
  return r;
}

}  // namespace

TEST(TraceStore, InsertFindAndRecent) {
  obs::trace_store store(8);
  EXPECT_EQ(store.capacity(), 8u);
  EXPECT_FALSE(store.find({1, 2}).has_value());

  for (uint64_t i = 1; i <= 5; i++) store.insert(make_record(i));
  EXPECT_EQ(store.retained(), 5u);
  EXPECT_EQ(store.evicted(), 0u);

  auto hit = store.find({0x11, 3});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id.lo, 3u);
  EXPECT_STREQ(hit->kind, "bfs");
  EXPECT_GT(hit->seq, 0u);

  auto recent = store.recent();
  ASSERT_EQ(recent.size(), 5u);
  // Newest first.
  EXPECT_EQ(recent[0].id.lo, 5u);
  EXPECT_EQ(recent[4].id.lo, 1u);
  EXPECT_EQ(store.recent(2).size(), 2u);
}

TEST(TraceStore, RingEvictsOldestAndCounts) {
  obs::metrics_registry metrics;
  obs::trace_store store(4, &metrics);
  for (uint64_t i = 1; i <= 10; i++) store.insert(make_record(i));
  EXPECT_EQ(store.retained(), 10u);
  EXPECT_EQ(store.evicted(), 6u);
  EXPECT_EQ(metrics.get_counter("engine_traces_retained_total").value(), 10u);
  EXPECT_EQ(metrics.get_counter("engine_traces_evicted_total").value(), 6u);
  // The oldest are gone, the newest remain.
  EXPECT_FALSE(store.find({0x11, 1}).has_value());
  EXPECT_TRUE(store.find({0x11, 10}).has_value());
  EXPECT_EQ(store.recent().size(), 4u);
}

TEST(TraceStore, DuplicateIdsResolveToTheNewestRecord) {
  obs::trace_store store(8);
  auto first = make_record(7, "ok");
  auto second = make_record(7, "deadline");
  store.insert(first);
  store.insert(second);
  auto hit = store.find({0x11, 7});
  ASSERT_TRUE(hit.has_value());
  EXPECT_STREQ(hit->outcome, "deadline");
}

TEST(TraceStore, JsonSummariesAndFullTrace) {
  obs::trace_store store(8);
  auto r = make_record(9, "deadline");
  r.error = "queued past deadline";
  r.retry_after_ms = 40;
  r.result_bytes = 20;
  r.trace_json = "{\"rounds\":[],\"spans\":[]}";
  store.insert(r);

  auto summary = r.to_json(/*full=*/false);
  EXPECT_NE(summary.find(r.id.to_hex()), std::string::npos);
  EXPECT_NE(summary.find("\"outcome\":\"deadline\""), std::string::npos);
  EXPECT_NE(summary.find("\"retry_after_ms\":40"), std::string::npos);
  EXPECT_NE(summary.find("\"result_bytes\":20"), std::string::npos);
  EXPECT_NE(summary.find("\"error\":\"queued past deadline\""),
            std::string::npos);
  EXPECT_EQ(summary.find("\"trace\""), std::string::npos);

  auto full = r.to_json(/*full=*/true);
  EXPECT_NE(full.find("\"trace\":{\"rounds\""), std::string::npos);

  auto index = store.render_index_json();
  EXPECT_NE(index.find("\"traces\":["), std::string::npos);
  EXPECT_NE(index.find("\"retained\":1"), std::string::npos);
  EXPECT_NE(index.find("\"result_bytes\":20"), std::string::npos);
  EXPECT_NE(index.find("\"capacity\":8"), std::string::npos);
}

// The TSan target: inserts claiming slots by atomic ticket while readers
// scan — no lock ordering to get wrong, but plenty of racy-by-construction
// access patterns to prove clean.
TEST(TraceStore, ConcurrentInsertFindAndRecent) {
  obs::trace_store store(16);
  constexpr int kWriters = 3, kReaders = 2, kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; i++) {
        obs::trace_record r;
        r.id = {static_cast<uint64_t>(w + 1), static_cast<uint64_t>(i + 1)};
        r.set_kind("cc");
        r.set_graph("g");
        store.insert(std::move(r));
      }
    });
  }
  for (int rd = 0; rd < kReaders; rd++) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto recent = store.recent(8);
        for (const auto& rec : recent) EXPECT_TRUE(rec.id.valid());
        store.find({2, 100});
        store.render_index_json(4);
      }
    });
  }
  for (int w = 0; w < kWriters; w++) threads[static_cast<size_t>(w)].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); t++) threads[t].join();
  EXPECT_EQ(store.retained(), uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(store.recent().size(), store.capacity());
}

// --- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RecordsWrapNewestFirst) {
  obs::flight_recorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_TRUE(rec.snapshot().empty());

  for (int i = 1; i <= 6; i++) {
    obs::flight_entry e;
    e.id = {1, static_cast<uint64_t>(i)};
    e.set_kind("bfs");
    e.set_graph("g");
    e.set_outcome(i == 6 ? "deadline" : "ok");
    e.exec_micros = i * 10.0;
    rec.record(e);
  }
  EXPECT_EQ(rec.recorded(), 6u);
  auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].id.lo, 6u);  // newest first
  EXPECT_EQ(snap[3].id.lo, 3u);  // 1 and 2 overwritten
  EXPECT_STREQ(snap[0].outcome, "deadline");
  EXPECT_STREQ(snap[0].kind, "bfs");
}

TEST(FlightRecorder, FixedWidthFieldsTruncateSafely) {
  obs::flight_entry e;
  e.set_graph("a-very-long-graph-name-that-exceeds-the-inline-field");
  e.set_kind("pagerank_topk_extra");
  EXPECT_EQ(std::string(e.graph).size(), sizeof(e.graph) - 1);
  EXPECT_EQ(std::string(e.kind).size(), sizeof(e.kind) - 1);
}

TEST(FlightRecorder, ToJsonShape) {
  obs::flight_recorder rec(8);
  obs::flight_entry e;
  e.id = {0xde, 0xad};
  e.set_kind("sssp");
  e.set_graph("road");
  e.set_outcome("ok");
  e.cache_hit = true;
  e.sampled = true;
  rec.record(e);
  auto json = rec.to_json();
  EXPECT_NE(json.find("\"entries\":["), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(json.find(e.id.to_hex()), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":true"), std::string::npos);
  // max_entries caps the dump.
  obs::flight_entry e2;
  e2.id = {1, 2};
  rec.record(e2);
  auto capped = rec.to_json(1);
  EXPECT_EQ(capped.find(e.id.to_hex()), std::string::npos);
  EXPECT_NE(capped.find(e2.id.to_hex()), std::string::npos);
}

TEST(FlightRecorder, ConcurrentRecordAndSnapshot) {
  obs::flight_recorder rec(32);
  constexpr int kWriters = 3, kPerWriter = 1000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; i++) {
        obs::flight_entry e;
        e.id = {static_cast<uint64_t>(w + 1), static_cast<uint64_t>(i + 1)};
        e.set_kind("bfs");
        e.set_outcome("ok");
        rec.record(e);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      auto snap = rec.snapshot();
      for (const auto& e : snap) EXPECT_NE(e.seq, 0u);
      rec.to_json(8);
    }
  });
  for (int w = 0; w < kWriters; w++) threads[static_cast<size_t>(w)].join();
  stop.store(true);
  threads.back().join();
  EXPECT_EQ(rec.recorded(), uint64_t{kWriters} * kPerWriter);
  EXPECT_EQ(rec.snapshot().size(), rec.capacity());
}
