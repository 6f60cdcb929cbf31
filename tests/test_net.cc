// Network query tier tests (docs/NETWORK.md): wire-protocol round trips,
// byte-level fuzzing (bit flips, truncations, hostile length prefixes —
// the WAL-fuzz discipline of test_durability.cc applied to frames), and
// end-to-end loopback serving: typed results, the full error taxonomy
// crossing the wire (deadline, shed + retry_after, rejected, not_found),
// the client's retry loop over shed and rejected refusals, per-connection
// in-flight caps, HTTP /metrics + /healthz, net.* failpoint
// injection, engine_net_* metrics, and graceful drain.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "ligra/point_bfs.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace e = ligra::engine;
namespace n = ligra::net;
namespace fp = ligra::util::failpoint;
using namespace ligra;
using namespace std::chrono_literals;

namespace {

graph small_graph() { return gen::rmat_graph(8, 1 << 11, /*seed=*/3); }

// Custom query that blocks until released; it occupies a dispatcher, making
// queue states deterministic.
struct blocker {
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future().share()};
  std::atomic<int> started{0};

  e::query_request request(const std::string& g) {
    e::query_request q;
    q.graph = g;
    q.kind = e::query_kind::custom;
    q.custom = [this](const e::graph_entry&, const e::cancel_token&) -> int64_t {
      started.fetch_add(1);
      gate.wait();
      return 7;
    };
    return q;
  }
};

n::wire_request bfs_request(uint64_t id, uint32_t src = 0, uint32_t dst = 5) {
  n::wire_request r;
  r.id = id;
  r.kind = e::query_kind::bfs_distance;
  r.graph = "g";
  r.source = src;
  r.target = dst;
  return r;
}

// Raw-socket helpers for the tests that need byte-level control (pipelined
// frames, garbage injection, HTTP) — the client library is deliberately too
// well-behaved for them.
int raw_connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  timeval tv{10, 0};  // no test waits forever on a hung server
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void raw_send(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t sent = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0);
    off += static_cast<size_t>(sent);
  }
}

// Reads until `count` response frames parse (or the peer closes / times
// out, which fails the test via the size assertion the caller makes).
std::vector<n::wire_response> raw_read_responses(int fd, size_t count) {
  std::vector<n::wire_response> out;
  std::string buf;
  char chunk[4096];
  while (out.size() < count) {
    size_t consumed = 0;
    auto f = n::try_parse_frame(buf.data(), buf.size(), &consumed);
    if (f) {
      out.push_back(n::decode_response(f->payload, f->payload_len));
      buf.erase(0, consumed);
      continue;
    }
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    buf.append(chunk, static_cast<size_t>(got));
  }
  return out;
}

// Reads until the peer closes (HTTP Connection: close responses).
std::string raw_read_all(int fd) {
  std::string out;
  char chunk[4096];
  for (;;) {
    ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    out.append(chunk, static_cast<size_t>(got));
  }
  return out;
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

}  // namespace

// --- protocol round trips ---------------------------------------------------

TEST_F(NetTest, RequestRoundTripsEveryField) {
  n::wire_request req;
  req.id = 0x1122334455667788ULL;
  req.kind = e::query_kind::sssp_distance;
  req.priority = e::query_priority::high;
  req.graph = "road-network";
  req.source = 42;
  req.target = 4242;
  req.k = 17;
  req.deadline_ms = 250;

  auto frame = n::encode_request_frame(req);
  size_t consumed = 0;
  auto f = n::try_parse_frame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(f->type, n::frame_type::request);

  auto back = n::decode_request(f->payload, f->payload_len);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.graph, req.graph);
  EXPECT_EQ(back.source, req.source);
  EXPECT_EQ(back.target, req.target);
  EXPECT_EQ(back.k, req.k);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_TRUE(back.updates.empty());
}

TEST_F(NetTest, UpdateRequestCarriesTheBatch) {
  n::wire_request req;
  req.id = 9;
  req.kind = e::query_kind::update;
  req.graph = "m";
  req.updates.inserts = {edge{1, 2}, edge{3, 4}};
  req.updates.deletes = {edge{5, 6}};

  auto frame = n::encode_request_frame(req);
  size_t consumed = 0;
  auto f = n::try_parse_frame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(f.has_value());
  auto back = n::decode_request(f->payload, f->payload_len);
  ASSERT_EQ(back.updates.inserts.size(), 2u);
  ASSERT_EQ(back.updates.deletes.size(), 1u);
  EXPECT_EQ(back.updates.inserts[0].u, 1u);
  EXPECT_EQ(back.updates.inserts[1].v, 4u);
  EXPECT_EQ(back.updates.deletes[0].u, 5u);
}

TEST_F(NetTest, ResponseRoundTripsResultsAndErrors) {
  n::wire_response ok;
  ok.id = 77;
  ok.status = n::wire_status::ok;
  ok.cache_hit = true;
  ok.value = -1;
  ok.micros = 123.5;
  ok.topk = {{3, 0.25}, {9, 0.125}};
  auto frame = n::encode_response_frame(ok);
  size_t consumed = 0;
  auto f = n::try_parse_frame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, n::frame_type::response);
  auto back = n::decode_response(f->payload, f->payload_len);
  EXPECT_EQ(back.id, 77u);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.value, -1);
  EXPECT_DOUBLE_EQ(back.micros, 123.5);
  ASSERT_EQ(back.topk.size(), 2u);
  EXPECT_EQ(back.topk[0].first, 3u);
  EXPECT_DOUBLE_EQ(back.topk[1].second, 0.125);
  EXPECT_NO_THROW(n::throw_if_error(back));

  auto err = n::make_error_response(78, n::wire_status::shed, "busy", 40);
  auto eframe = n::encode_response_frame(err);
  auto ef = n::try_parse_frame(eframe.data(), eframe.size(), &consumed);
  ASSERT_TRUE(ef.has_value());
  auto eback = n::decode_response(ef->payload, ef->payload_len);
  EXPECT_EQ(eback.retry_after_ms, 40u);
  try {
    n::throw_if_error(eback);
    FAIL() << "shed status must throw";
  } catch (const e::shed_error& ex) {
    EXPECT_EQ(ex.retry_after, 40ms);
  }
  // Every other error status maps to its typed exception too.
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::deadline, "late")),
               e::deadline_exceeded_error);
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::cancelled, "c")),
               e::cancelled_error);
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::not_found, "nf")),
               e::not_found_error);
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::rejected, "r", 10)),
               e::rejected_error);
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::shutting_down, "bye", 500)),
               e::rejected_error);
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::protocol, "bad bytes")),
               n::protocol_error);
  EXPECT_THROW(n::throw_if_error(n::make_error_response(
                   1, n::wire_status::internal, "boom")),
               e::engine_error);
}

TEST_F(NetTest, PartialFrameAsksForMoreBytes) {
  auto frame = n::encode_request_frame(bfs_request(1));
  // Every strict prefix is "need more", never an error, never a frame.
  for (size_t len = 0; len < frame.size(); len++) {
    size_t consumed = 0;
    auto f = n::try_parse_frame(frame.data(), len, &consumed);
    EXPECT_FALSE(f.has_value()) << "prefix of " << len << " bytes";
  }
}

// --- fuzzing ----------------------------------------------------------------

// Single-bit flips anywhere in a frame must be *detected*: the CRC covers
// everything after the magic, and the magic bytes are checked literally, so
// no flip may yield a successfully parsed frame. (ASan in CI additionally
// proves no flip causes an over-read.)
TEST_F(NetTest, FuzzBitFlipsNeverParse) {
  n::wire_request req = bfs_request(3, 1, 2);
  req.graph = "fuzz-target";
  req.deadline_ms = 7;
  auto frame = n::encode_request_frame(req);
  for (size_t byte = 0; byte < frame.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      auto mut = frame;
      mut[byte] = static_cast<char>(mut[byte] ^ (1 << bit));
      size_t consumed = 0;
      bool parsed = false;
      try {
        auto f = n::try_parse_frame(mut.data(), mut.size(), &consumed);
        if (f.has_value()) {
          parsed = true;
          n::decode_request(f->payload, f->payload_len);
        }
      } catch (const n::protocol_error&) {
        continue;  // detected — the expected outcome
      }
      EXPECT_FALSE(parsed) << "bit " << bit << " of byte " << byte
                           << " flipped yet the frame parsed";
    }
  }
}

TEST_F(NetTest, FuzzTruncatedPayloadDecodesFail) {
  n::wire_request req;
  req.id = 4;
  req.kind = e::query_kind::update;
  req.graph = "gg";
  req.updates.inserts = {edge{1, 2}, edge{3, 4}};
  auto frame = n::encode_request_frame(req);
  size_t consumed = 0;
  auto f = n::try_parse_frame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(f.has_value());
  // The payload layout is exact-length: any truncation is structurally
  // impossible and must throw, not read past the shortened buffer.
  for (uint32_t len = 0; len < f->payload_len; len++)
    EXPECT_THROW(n::decode_request(f->payload, len), n::protocol_error)
        << "payload truncated to " << len;

  auto resp = n::make_response(4, e::query_result{});
  resp.topk = {{1, 0.5}};
  resp.message = "msg";
  auto rframe = n::encode_response_frame(resp);
  auto rf = n::try_parse_frame(rframe.data(), rframe.size(), &consumed);
  ASSERT_TRUE(rf.has_value());
  for (uint32_t len = 0; len < rf->payload_len; len++)
    EXPECT_THROW(n::decode_response(rf->payload, len), n::protocol_error);
}

TEST_F(NetTest, FuzzHostileHeaders) {
  auto good = n::encode_request_frame(bfs_request(5));

  // Oversized length prefix: rejected before any buffering happens.
  auto oversized = good;
  uint32_t huge = n::kMaxPayloadBytes + 1;
  std::memcpy(oversized.data() + 8, &huge, 4);
  size_t consumed = 0;
  EXPECT_THROW(n::try_parse_frame(oversized.data(), oversized.size(), &consumed),
               n::protocol_error);

  // Unknown version.
  auto badver = good;
  badver[4] = 99;
  EXPECT_THROW(n::try_parse_frame(badver.data(), badver.size(), &consumed),
               n::protocol_error);

  // Unknown frame type.
  auto badtype = good;
  badtype[6] = 0x7f;
  EXPECT_THROW(n::try_parse_frame(badtype.data(), badtype.size(), &consumed),
               n::protocol_error);

  // Corrupted CRC field.
  auto badcrc = good;
  badcrc[12] = static_cast<char>(badcrc[12] ^ 0xff);
  EXPECT_THROW(n::try_parse_frame(badcrc.data(), badcrc.size(), &consumed),
               n::protocol_error);

  // Zero length prefix with a *correct* CRC: frame-valid, payload-invalid —
  // the decode layer must reject it, not read uninitialized memory.
  std::vector<char> zero(good.begin(), good.begin() + n::kFrameHeaderBytes);
  uint32_t zlen = 0;
  std::memcpy(zero.data() + 8, &zlen, 4);
  uint32_t zcrc = ligra::util::crc32(zero.data() + 4, 8);
  std::memcpy(zero.data() + 12, &zcrc, 4);
  auto zf = n::try_parse_frame(zero.data(), zero.size(), &consumed);
  ASSERT_TRUE(zf.has_value());
  EXPECT_EQ(zf->payload_len, 0u);
  EXPECT_THROW(n::decode_request(zf->payload, zf->payload_len),
               n::protocol_error);
}

TEST_F(NetTest, FuzzRandomGarbageNeverCrashes) {
  rng r(1234);
  for (int iter = 0; iter < 2000; iter++) {
    size_t len = r[2 * iter] % 256;
    std::vector<char> buf(len);
    for (size_t i = 0; i < len; i++)
      buf[i] = static_cast<char>(hash64(r[2 * iter + 1] ^ i));
    // Seed some buffers with real magic so parsing gets past the first gate.
    if (iter % 3 == 0 && len >= 4)
      std::memcpy(buf.data(), n::kFrameMagic, 4);
    size_t consumed = 0;
    try {
      auto f = n::try_parse_frame(buf.data(), buf.size(), &consumed);
      if (f.has_value()) {
        try {
          n::decode_request(f->payload, f->payload_len);
        } catch (const n::protocol_error&) {
        }
        try {
          n::decode_response(f->payload, f->payload_len);
        } catch (const n::protocol_error&) {
        }
      }
    } catch (const n::protocol_error&) {
    }
  }
}

// --- end-to-end loopback ----------------------------------------------------

TEST_F(NetTest, LoopbackQueriesReturnCorrectTypedResults) {
  e::registry reg;
  reg.add("g", small_graph());
  reg.add_mutable("m", small_graph());
  e::query_executor ex(reg);
  n::server srv(ex);
  srv.start();
  ASSERT_GT(srv.port(), 0);

  n::client c;
  c.connect("127.0.0.1", srv.port());

  // BFS over the wire matches BFS in-process.
  e::query_request local;
  local.graph = "g";
  local.kind = e::query_kind::bfs_distance;
  local.source = 0;
  local.target = 5;
  auto expect = ex.run(local);
  auto got = c.run(bfs_request(0, 0, 5));
  EXPECT_EQ(got.value, expect.value);

  // PageRank top-k arrives with ranks intact.
  n::wire_request pr;
  pr.kind = e::query_kind::pagerank_topk;
  pr.graph = "g";
  pr.k = 5;
  auto prr = c.run(pr);
  ASSERT_EQ(prr.topk.size(), 5u);
  EXPECT_GT(prr.topk[0].second, 0.0);
  EXPECT_GE(prr.topk[0].second, prr.topk[4].second);

  // Component id.
  n::wire_request cc;
  cc.kind = e::query_kind::component_id;
  cc.graph = "g";
  cc.source = 3;
  local = {};
  local.graph = "g";
  local.kind = e::query_kind::component_id;
  local.source = 3;
  EXPECT_EQ(c.run(cc).value, ex.run(local).value);

  // An update batch applies and returns the published version.
  n::wire_request up;
  up.kind = e::query_kind::update;
  up.graph = "m";
  up.updates.inserts = {edge{1, 200}, edge{200, 1}};
  auto upr = c.run(up);
  EXPECT_GE(upr.value, 1);

  // Unknown graph surfaces as not_found_error, same as in-process.
  n::wire_request nf = bfs_request(0);
  nf.graph = "no-such-graph";
  EXPECT_THROW(c.run(nf), e::not_found_error);

  // A 64-bit vertex id the engine cannot hold is a bad_request, caught
  // before it touches the executor.
  n::wire_request big = bfs_request(0);
  big.source = (uint64_t{1} << 40);
  EXPECT_THROW(c.run(big), e::engine_error);

  // The second identical BFS is a cache hit — visible over the wire.
  auto again = c.run(bfs_request(0, 0, 5));
  EXPECT_TRUE(again.cache_hit);

  // engine_net_* series landed in the shared registry.
  auto text = ex.metrics().render_text();
  EXPECT_NE(text.find("engine_net_connections_total"), std::string::npos);
  EXPECT_NE(text.find("engine_net_frames_total{dir=\"in\"}"), std::string::npos);
  EXPECT_NE(text.find("engine_net_request_micros_count"), std::string::npos);
  EXPECT_NE(text.find("engine_net_bytes_total"), std::string::npos);

  srv.stop();
  EXPECT_FALSE(srv.running());
}

TEST_F(NetTest, DeadlineErrorCrossesTheWire) {
  e::registry reg;
  reg.add("g", small_graph());
  // One dispatcher, occupied: the wire query sits queued past its 1 ms
  // budget and the watchdog settles it — deterministic on any machine.
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});
  n::server srv(ex);
  srv.start();

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::yield();

  n::client c;
  c.connect("127.0.0.1", srv.port());
  n::wire_request req = bfs_request(0);
  req.deadline_ms = 1;
  EXPECT_THROW(c.run(req), e::deadline_exceeded_error);

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);
  srv.stop();
}

TEST_F(NetTest, ShedRetryAfterCrossesTheWire) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1,
                             .shed_watermark = 1,
                             .cache_capacity = 0});
  n::server srv(ex);
  srv.start();

  // Occupy the dispatcher and put one normal-priority query in the queue so
  // the depth sits at the watermark.
  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::yield();
  e::query_request filler;
  filler.graph = "g";
  filler.kind = e::query_kind::bfs_distance;
  filler.source = 1;
  filler.target = 2;
  auto queued = ex.submit(filler);

  n::client c;
  c.connect("127.0.0.1", srv.port());
  n::wire_request low = bfs_request(0, 3, 4);
  low.priority = e::query_priority::low;
  try {
    c.run(low);
    FAIL() << "low-priority query past the watermark must be shed";
  } catch (const e::shed_error& ex_err) {
    EXPECT_GT(ex_err.retry_after.count(), 0)
        << "shed advice must cross the wire populated";
  }

  b.release.set_value();
  blocked.get();
  queued.get();
  srv.stop();
}

TEST_F(NetTest, RunRetryingAbsorbsOneShedAndOneRejection) {
  const graph g = small_graph();
  e::registry reg;
  reg.add("g", g);
  // One dispatcher: low priority is shed at 8 queued, anything is rejected
  // at 16.
  e::query_executor ex(reg, {.max_concurrency = 1,
                             .max_queue = 16,
                             .shed_watermark = 8,
                             .cache_capacity = 0});
  n::server srv(ex);
  srv.start();
  n::client c;
  c.connect("127.0.0.1", srv.port());
  size_t sheds = 0, rejects = 0;

  // Holds the dispatcher, queues `fill` queries, and sends `req` through
  // run_retrying on another thread. Once the engine has counted the
  // refusal (`counter`), the queue is released; the retry waits out the
  // server's advice (160 ms and 180 ms here), long after the queue drains.
  auto refused_once = [&](n::wire_request req, vertex_id fill,
                          const std::string& counter) {
    blocker b;
    auto blocked = ex.submit(b.request("g"));
    while (b.started.load() == 0) std::this_thread::yield();
    std::vector<std::future<e::query_result>> queued;
    for (vertex_id i = 0; i < fill; i++) {
      e::query_request q;
      q.graph = "g";
      q.kind = e::query_kind::bfs_distance;
      q.source = i;
      q.target = i + 1;
      queued.push_back(ex.submit(q));
    }
    const obs::counter& refusals = ex.metrics().get_counter(counter);
    const uint64_t before = refusals.value();
    auto answer = std::async(std::launch::async, [&c, req, &sheds, &rejects] {
      return c.run_retrying(req, 8, &sheds, &rejects);
    });
    while (refusals.value() == before) std::this_thread::yield();
    b.release.set_value();
    blocked.get();
    for (auto& f : queued) f.get();
    return answer.get().value;
  };

  n::wire_request low = bfs_request(0, 3, 40);
  low.priority = e::query_priority::low;
  EXPECT_EQ(refused_once(low, 15, "engine_queries_shed_total"),
            point_bfs(g, 3, 40));
  EXPECT_EQ(sheds, 1u);
  EXPECT_EQ(rejects, 0u);

  EXPECT_EQ(refused_once(bfs_request(0, 7, 90), 16,
                         "engine_queries_rejected_total"),
            point_bfs(g, 7, 90));
  EXPECT_EQ(sheds, 1u);
  EXPECT_EQ(rejects, 1u);
  srv.stop();
}

TEST_F(NetTest, PerConnectionInflightCapRejectsWithAdvice) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.max_concurrency = 1, .cache_capacity = 0});
  n::server_options sopts;
  sopts.max_inflight_per_conn = 1;
  n::server srv(ex, sopts);
  srv.start();

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::yield();

  // Two pipelined requests: the first parks behind the blocker, the second
  // exceeds the cap and is rejected immediately — out of order, matched by
  // correlation id.
  int fd = raw_connect(srv.port());
  auto f1 = n::encode_request_frame(bfs_request(101, 0, 1));
  auto f2 = n::encode_request_frame(bfs_request(102, 2, 3));
  raw_send(fd, f1.data(), f1.size());
  raw_send(fd, f2.data(), f2.size());

  auto first = raw_read_responses(fd, 1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 102u);
  EXPECT_EQ(first[0].status, n::wire_status::rejected);
  EXPECT_GT(first[0].retry_after_ms, 0u);

  b.release.set_value();
  blocked.get();
  auto second = raw_read_responses(fd, 1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, 101u);
  EXPECT_EQ(second[0].status, n::wire_status::ok);

  ::close(fd);
  srv.stop();
}

TEST_F(NetTest, GarbageBytesGetProtocolErrorAndServerSurvives) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg);
  n::server srv(ex);
  srv.start();

  int fd = raw_connect(srv.port());
  const char garbage[] = "GET / HTTP/1.0\r\n\r\n";  // not our magic
  raw_send(fd, garbage, sizeof(garbage) - 1);
  auto resp = raw_read_responses(fd, 1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].status, n::wire_status::protocol);
  // The server closes a connection it cannot resync.
  char one;
  EXPECT_EQ(::recv(fd, &one, 1, 0), 0);
  ::close(fd);

  EXPECT_GE(ex.metrics().get_counter("engine_net_protocol_errors_total").value(),
            1u);

  // A fresh, well-formed connection still works: one bad citizen does not
  // take the server down.
  n::client c;
  c.connect("127.0.0.1", srv.port());
  EXPECT_NO_THROW(c.run(bfs_request(0, 0, 1)));
  srv.stop();
}

TEST_F(NetTest, HttpMetricsHealthzAndErrors) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg);
  n::server_options sopts;
  sopts.http_port = 0;  // ephemeral
  n::server srv(ex, sopts);
  srv.start();
  ASSERT_GT(srv.http_port(), 0);

  // A query first, so /metrics has engine_net_ traffic to show.
  n::client c;
  c.connect("127.0.0.1", srv.port());
  c.run(bfs_request(0, 0, 1));

  auto get = [&](const std::string& req_line) {
    int fd = raw_connect(srv.http_port());
    std::string req = req_line + "\r\nHost: t\r\n\r\n";
    raw_send(fd, req.data(), req.size());
    std::string body = raw_read_all(fd);
    ::close(fd);
    return body;
  };

  auto metrics = get("GET /metrics HTTP/1.1");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("engine_net_frames_total"), std::string::npos);
  EXPECT_NE(metrics.find("engine_net_http_requests_total"), std::string::npos);

  auto health = get("GET /healthz HTTP/1.1");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  EXPECT_NE(get("GET /nope HTTP/1.1").find("404"), std::string::npos);
  EXPECT_NE(get("POST /metrics HTTP/1.1").find("405"), std::string::npos);
  srv.stop();
}

TEST_F(NetTest, NetFailpointsInjectConnectionFaults) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg);
  n::server srv(ex);
  srv.start();

  // net.read: the next read on any connection fails; that connection dies,
  // the server does not.
  fp::spec s;
  s.act = fp::action::fail;
  s.count = 1;
  fp::arm("net.read", s);
  {
    n::client c;
    c.connect("127.0.0.1", srv.port());
    EXPECT_THROW(c.run(bfs_request(0)), std::exception);
  }
  EXPECT_GE(fp::hits("net.read"), 1u);

  // net.accept: the next accepted connection is dropped before it serves a
  // byte; the failure counter records it.
  fp::spec a;
  a.act = fp::action::fail;
  a.count = 1;
  fp::arm("net.accept", a);
  {
    n::client c;
    // TCP connect itself succeeds (the listener accepted then dropped), so
    // the failure surfaces on first use.
    try {
      c.connect("127.0.0.1", srv.port());
      c.run(bfs_request(0));
      // A retry may land after the one-shot failpoint expired; that's fine.
    } catch (const std::exception&) {
    }
  }
  EXPECT_GE(fp::hits("net.accept"), 1u);
  EXPECT_GE(
      ex.metrics().get_counter("engine_net_accept_failures_total").value(), 1u);

  // Disarmed, service is healthy again.
  fp::disarm_all();
  n::client c;
  c.connect("127.0.0.1", srv.port());
  EXPECT_NO_THROW(c.run(bfs_request(0, 0, 2)));
  srv.stop();
}

TEST_F(NetTest, GracefulStopDrainsAndRefusesNewWork) {
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg);
  n::server_options sopts;
  sopts.drain_deadline = 2000ms;
  n::server srv(ex, sopts);
  srv.start();
  const uint16_t port = srv.port();

  n::client c;
  c.connect("127.0.0.1", port);
  EXPECT_FALSE(c.run(bfs_request(0, 0, 1)).cache_hit);
  // The repeat is a cache hit: it settles inside submit(), on the event
  // loop, before submit() returns. Counted in flight only afterwards, it
  // would stay counted and hold stop() for the whole drain_deadline.
  EXPECT_TRUE(c.run(bfs_request(1, 0, 1)).cache_hit);

  const auto t0 = std::chrono::steady_clock::now();
  srv.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms)
      << "nothing was in flight; stop() must not wait out drain_deadline";
  EXPECT_FALSE(srv.running());
  EXPECT_EQ(srv.connections(), 0u);

  // The listener is gone: connects fail once the retries run out.
  n::client late({.connect_attempts = 2});
  EXPECT_THROW(late.connect("127.0.0.1", port), std::runtime_error);

  // stop() is idempotent, and a stopped server can start again.
  srv.stop();
  srv.start();
  n::client again;
  again.connect("127.0.0.1", srv.port());
  EXPECT_NO_THROW(again.run(bfs_request(0, 0, 3)));
  srv.stop();
}

TEST_F(NetTest, QueryRunningPastTheDrainSettlesIntoAClosedOutbox) {
  if (!fp::compiled_in()) GTEST_SKIP() << "failpoints compiled out";
  e::registry reg;
  reg.add("g", small_graph());
  e::query_executor ex(reg, {.cache_capacity = 0});
  n::server_options sopts;
  sopts.drain_deadline = 50ms;

  // Sends one wire query whose body sleeps 500 ms and returns once it runs.
  auto send_slow_query = [&](n::server& srv, uint64_t id) {
    fp::spec s;
    s.act = fp::action::sleep_ms;
    s.sleep_millis = 500;
    s.count = 1;
    fp::arm("executor.dispatch", s);
    int fd = raw_connect(srv.port());
    auto f = n::encode_request_frame(bfs_request(id, 0, 1));
    raw_send(fd, f.data(), f.size());
    while (ex.stats().running == 0) std::this_thread::yield();
    return fd;
  };
  auto stop_within_deadline = [](n::server& srv) {
    const auto t0 = std::chrono::steady_clock::now();
    srv.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 400ms)
        << "stop() must give up on the query at drain_deadline";
  };

  // Destroyed: the continuation outlives the server that made it.
  {
    n::server srv(ex, sopts);
    srv.start();
    const int fd = send_slow_query(srv, 76);
    stop_within_deadline(srv);
    ::close(fd);
  }
  EXPECT_EQ(ex.stats().running, 1u) << "the body must still be running";
  ex.wait_idle();
  EXPECT_EQ(ex.stats().completed, 1u);

  // Restarted: the stale query settles into the old outbox, and the new
  // server never sends its response.
  n::server srv(ex, sopts);
  srv.start();
  const int stale = send_slow_query(srv, 77);
  stop_within_deadline(srv);
  ::close(stale);
  srv.start();
  const int fd = raw_connect(srv.port());
  EXPECT_EQ(ex.stats().running, 1u) << "the body must still be running";
  ex.wait_idle();
  EXPECT_EQ(ex.stats().completed, 2u);

  auto f = n::encode_request_frame(bfs_request(78, 0, 2));
  raw_send(fd, f.data(), f.size());
  auto resp = raw_read_responses(fd, 1);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].id, 78u);
  EXPECT_EQ(resp[0].status, n::wire_status::ok);
  timeval tv{0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char byte;
  EXPECT_LT(::recv(fd, &byte, 1, 0), 0) << "a stale response arrived";
  ::close(fd);
  srv.stop();
}

// --- query tracing over the wire (docs/OBSERVABILITY.md) --------------------

TEST_F(NetTest, TraceBlockRoundTripsOnRequestAndResponse) {
  n::wire_request req = bfs_request(11, 2, 3);
  req.tid = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  req.sampled = true;

  auto frame = n::encode_request_frame(req);
  size_t consumed = 0;
  auto f = n::try_parse_frame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(f.has_value());
  // A traced frame announces v2 and the trace flag.
  EXPECT_EQ(f->version, n::kProtocolVersion);
  EXPECT_NE(f->flags & n::kFlagTrace, 0);
  auto back = n::decode_request(f->payload, f->payload_len, f->flags);
  EXPECT_EQ(back.tid, req.tid);
  EXPECT_TRUE(back.sampled);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.graph, req.graph);

  n::wire_response resp = n::make_response(11, e::query_result{});
  resp.tid = req.tid;
  auto rframe = n::encode_response_frame(resp);
  auto rf = n::try_parse_frame(rframe.data(), rframe.size(), &consumed);
  ASSERT_TRUE(rf.has_value());
  EXPECT_EQ(rf->version, n::kProtocolVersion);
  auto rback = n::decode_response(rf->payload, rf->payload_len, rf->flags);
  EXPECT_EQ(rback.tid, req.tid);
}

TEST_F(NetTest, UntracedFramesStayProtocolV1) {
  // No trace id -> the encoder emits version 1 with zero flags,
  // byte-identical to the pre-trace wire format, so v1 peers interoperate.
  auto frame = n::encode_request_frame(bfs_request(1));
  ASSERT_GE(frame.size(), size_t{n::kFrameHeaderBytes});
  EXPECT_EQ(static_cast<uint8_t>(frame[4]), 1);  // version lo byte
  EXPECT_EQ(static_cast<uint8_t>(frame[5]), 0);  // version hi byte
  EXPECT_EQ(static_cast<uint8_t>(frame[7]), 0);  // flags

  size_t consumed = 0;
  auto f = n::try_parse_frame(frame.data(), frame.size(), &consumed);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, 1);
  EXPECT_EQ(f->flags, 0);
  auto back = n::decode_request(f->payload, f->payload_len, f->flags);
  EXPECT_FALSE(back.tid.valid());
  EXPECT_FALSE(back.sampled);
}

namespace {

// Patches a frame in place after a payload mutation: recomputes the CRC the
// same way seal_frame does (bytes [4, 12) then the payload).
void refresh_crc(std::vector<char>& frame) {
  const size_t payload_len = frame.size() - n::kFrameHeaderBytes;
  uint32_t c = ligra::util::crc32(frame.data() + 4, 8);
  c = ligra::util::crc32(frame.data() + n::kFrameHeaderBytes, payload_len, c);
  std::memcpy(frame.data() + 12, &c, 4);
}

}  // namespace

TEST_F(NetTest, HostileTraceBlocksAreRejected) {
  n::wire_request req = bfs_request(12, 0, 1);
  req.tid = {7, 9};
  req.sampled = true;
  auto traced = n::encode_request_frame(req);
  size_t consumed = 0;

  // Sampled byte outside {0, 1}: structurally corrupt.
  {
    auto mut = traced;
    mut.back() = 2;  // the sampled byte is the last payload byte
    refresh_crc(mut);
    auto f = n::try_parse_frame(mut.data(), mut.size(), &consumed);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(n::decode_request(f->payload, f->payload_len, f->flags),
                 n::protocol_error);
  }

  // Trace flag set but the id bytes are all zero: flag and block disagree.
  {
    auto mut = traced;
    std::memset(mut.data() + mut.size() - 17, 0, 16);
    refresh_crc(mut);
    auto f = n::try_parse_frame(mut.data(), mut.size(), &consumed);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(n::decode_request(f->payload, f->payload_len, f->flags),
                 n::protocol_error);
  }

  // Trace flag set with no block bytes at all: length mismatch.
  {
    auto mut = n::encode_request_frame(bfs_request(13));
    mut[4] = 2;                                      // version 2
    mut[7] = static_cast<char>(n::kFlagTrace);       // flag without the bytes
    refresh_crc(mut);
    auto f = n::try_parse_frame(mut.data(), mut.size(), &consumed);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(n::decode_request(f->payload, f->payload_len, f->flags),
                 n::protocol_error);
  }

  // Truncated trace block (one id byte missing): length mismatch, no
  // over-read.
  {
    auto mut = traced;
    mut.pop_back();
    uint32_t plen = static_cast<uint32_t>(mut.size() - n::kFrameHeaderBytes);
    std::memcpy(mut.data() + 8, &plen, 4);
    refresh_crc(mut);
    auto f = n::try_parse_frame(mut.data(), mut.size(), &consumed);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(n::decode_request(f->payload, f->payload_len, f->flags),
                 n::protocol_error);
  }

  // Response-side: traced response with the block sliced off.
  {
    n::wire_response resp = n::make_response(12, e::query_result{});
    resp.tid = {7, 9};
    auto rmut = n::encode_response_frame(resp);
    rmut.resize(rmut.size() - 16);
    uint32_t plen = static_cast<uint32_t>(rmut.size() - n::kFrameHeaderBytes);
    std::memcpy(rmut.data() + 8, &plen, 4);
    refresh_crc(rmut);
    auto f = n::try_parse_frame(rmut.data(), rmut.size(), &consumed);
    ASSERT_TRUE(f.has_value());
    EXPECT_THROW(n::decode_response(f->payload, f->payload_len, f->flags),
                 n::protocol_error);
  }
}

// The bit-flip guarantee holds for v2 traced frames exactly as for v1.
TEST_F(NetTest, FuzzBitFlipsTracedFramesNeverParse) {
  n::wire_request req = bfs_request(3, 1, 2);
  req.graph = "fuzz-target";
  req.tid = obs::trace_id::mint();
  req.sampled = true;
  auto frame = n::encode_request_frame(req);
  for (size_t byte = 0; byte < frame.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      auto mut = frame;
      mut[byte] = static_cast<char>(mut[byte] ^ (1 << bit));
      size_t consumed = 0;
      bool parsed = false;
      try {
        auto f = n::try_parse_frame(mut.data(), mut.size(), &consumed);
        if (f.has_value()) {
          parsed = true;
          n::decode_request(f->payload, f->payload_len, f->flags);
        }
      } catch (const n::protocol_error&) {
        continue;  // detected — the expected outcome
      }
      EXPECT_FALSE(parsed) << "bit " << bit << " of byte " << byte
                           << " flipped yet the traced frame parsed";
    }
  }
}

namespace {

// One HTTP GET against the server's side port; returns status line + body.
std::string http_get(uint16_t port, const std::string& path) {
  int fd = raw_connect(port);
  std::string req = "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
  raw_send(fd, req.data(), req.size());
  std::string body = raw_read_all(fd);
  ::close(fd);
  return body;
}

// Retention happens when the query body exits (the executor observes on
// the execution path, never from the watchdog), so a just-settled error
// response can precede its trace record by a beat — poll briefly.
std::string http_get_eventually(uint16_t port, const std::string& path) {
  for (int i = 0; i < 100; i++) {
    auto body = http_get(port, path);
    if (body.find("200 OK") != std::string::npos) return body;
    std::this_thread::sleep_for(20ms);
  }
  return http_get(port, path);
}

}  // namespace

TEST_F(NetTest, TraceIdRoundTripsEndToEndAndIsRetrievable) {
  obs::trace_store traces(64);
  obs::flight_recorder flightrec(64);
  e::registry reg;
  reg.add("g", small_graph());
  e::executor_options eopts;
  eopts.traces = &traces;
  eopts.flightrec = &flightrec;
  eopts.slow_trace_micros = 1;  // everything is "slow": armed + retained
  e::query_executor ex(reg, eopts);
  n::server_options sopts;
  sopts.http_port = 0;
  n::server srv(ex, sopts);
  srv.start();
  ASSERT_GT(srv.http_port(), 0);

  n::client_options copts;
  copts.trace_sample = 1.0;  // every request minted + sampled client-side
  n::client c(copts);
  c.connect("127.0.0.1", srv.port());
  auto r = c.run(bfs_request(0, 1, 6));
  // The response carries the id back; the client records it.
  ASSERT_TRUE(r.tid.valid());
  EXPECT_EQ(c.last_trace_id(), r.tid);
  const std::string hex = r.tid.to_hex();

  // GET /traces/<id>: the retained record, with the full armed trace —
  // per-round edge_map records and phase spans.
  auto body = http_get_eventually(srv.http_port(), "/traces/" + hex);
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find(hex), std::string::npos);
  EXPECT_NE(body.find("\"rounds\""), std::string::npos);
  EXPECT_NE(body.find("\"spans\""), std::string::npos);
  EXPECT_NE(body.find("\"outcome\":\"ok\""), std::string::npos);

  // GET /traces: the index lists it (summaries, newest first).
  auto index = http_get(srv.http_port(), "/traces");
  EXPECT_NE(index.find("200 OK"), std::string::npos);
  EXPECT_NE(index.find(hex), std::string::npos);
  EXPECT_NE(index.find("\"retained\""), std::string::npos);

  // GET /debug/flightrec: the summary ring saw the query too.
  auto flight = http_get(srv.http_port(), "/debug/flightrec");
  EXPECT_NE(flight.find("200 OK"), std::string::npos);
  EXPECT_NE(flight.find(hex), std::string::npos);
  EXPECT_NE(flight.find("\"entries\""), std::string::npos);

  // Unknown and malformed ids get JSON errors, not crashes.
  EXPECT_NE(http_get(srv.http_port(),
                     "/traces/00000000000000000000000000000001")
                .find("404"),
            std::string::npos);
  EXPECT_NE(http_get(srv.http_port(), "/traces/zzz").find("400"),
            std::string::npos);
  srv.stop();
}

TEST_F(NetTest, DeadlineExceededQueryIsRetrievablePostMortem) {
  obs::trace_store traces(64);
  obs::flight_recorder flightrec(64);
  e::registry reg;
  reg.add("g", small_graph());
  e::executor_options eopts;
  eopts.max_concurrency = 1;
  eopts.cache_capacity = 0;
  eopts.traces = &traces;
  eopts.flightrec = &flightrec;
  e::query_executor ex(reg, eopts);
  n::server_options sopts;
  sopts.http_port = 0;
  n::server srv(ex, sopts);
  srv.start();

  // Occupy the one dispatcher so the wire query blows its 1 ms budget.
  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::yield();

  n::client_options copts;
  copts.trace_sample = 1.0;
  n::client c(copts);
  c.connect("127.0.0.1", srv.port());
  n::wire_request req = bfs_request(0);
  req.deadline_ms = 1;
  EXPECT_THROW(c.run(req), e::deadline_exceeded_error);
  // The error response still carried the id — the post-mortem handle.
  const obs::trace_id tid = c.last_trace_id();
  ASSERT_TRUE(tid.valid());

  b.release.set_value();
  EXPECT_EQ(blocked.get().value, 7);

  // The retained record is reachable by that id and says what happened.
  auto body =
      http_get_eventually(srv.http_port(), "/traces/" + tid.to_hex());
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find(tid.to_hex()), std::string::npos);
  EXPECT_NE(body.find("\"outcome\":\"deadline\""), std::string::npos);
  srv.stop();
}

TEST_F(NetTest, ShedRefusalCarriesTraceIdAndRetryAdvice) {
  obs::trace_store traces(64);
  obs::flight_recorder flightrec(64);
  e::registry reg;
  reg.add("g", small_graph());
  e::executor_options eopts;
  eopts.max_concurrency = 1;
  eopts.shed_watermark = 1;
  eopts.cache_capacity = 0;
  eopts.traces = &traces;
  eopts.flightrec = &flightrec;
  e::query_executor ex(reg, eopts);
  n::server_options sopts;
  sopts.http_port = 0;
  n::server srv(ex, sopts);
  srv.start();

  blocker b;
  auto blocked = ex.submit(b.request("g"));
  while (b.started.load() == 0) std::this_thread::yield();
  e::query_request filler;
  filler.graph = "g";
  filler.kind = e::query_kind::component_id;
  filler.source = 1;
  auto queued = ex.submit(filler);

  n::client_options copts;
  copts.trace_sample = 1.0;
  n::client c(copts);
  c.connect("127.0.0.1", srv.port());
  n::wire_request req = bfs_request(0);
  req.priority = e::query_priority::low;
  obs::trace_id tid{};
  try {
    c.run(req);
    FAIL() << "low-priority request at the watermark must shed";
  } catch (const e::shed_error& ex_shed) {
    EXPECT_GT(ex_shed.retry_after.count(), 0);
    tid = c.last_trace_id();
  }
  ASSERT_TRUE(tid.valid());

  b.release.set_value();
  blocked.get();
  queued.get();

  // The slow-query log kept the refusal, with the advice the caller got.
  auto body =
      http_get_eventually(srv.http_port(), "/traces/" + tid.to_hex());
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("\"outcome\":\"shed\""), std::string::npos);
  EXPECT_NE(body.find("\"retry_after_ms\""), std::string::npos);
  srv.stop();
}

TEST_F(NetTest, ServerRefusalIsRetrievableByTraceId) {
  obs::trace_store traces(64);
  obs::flight_recorder flightrec(64);
  e::registry reg;
  reg.add("g", small_graph());
  e::executor_options eopts;
  eopts.traces = &traces;
  eopts.flightrec = &flightrec;
  e::query_executor ex(reg, eopts);
  n::server_options sopts;
  sopts.http_port = 0;
  n::server srv(ex, sopts);
  srv.start();

  // A 64-bit vertex id is refused by the server before admission; the
  // refusal still lands in the executor's trace store and flight recorder.
  n::client c;
  c.connect("127.0.0.1", srv.port());
  n::wire_request big = bfs_request(0);
  big.target = uint64_t{1} << 40;
  EXPECT_THROW(c.run(big), e::bad_request_error);
  const obs::trace_id tid = c.last_trace_id();
  ASSERT_TRUE(tid.valid()) << "the server mints an id for the refusal";

  auto body = http_get(srv.http_port(), "/traces/" + tid.to_hex());
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("\"outcome\":\"bad_request\""), std::string::npos);
  auto flight = http_get(srv.http_port(), "/debug/flightrec");
  EXPECT_NE(flight.find(tid.to_hex()), std::string::npos);
  // Never admitted, so no engine_queries_* counter moved.
  EXPECT_EQ(ex.stats().submitted, 0u);
  EXPECT_EQ(ex.stats().failed, 0u);
  srv.stop();
}
