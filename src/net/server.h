// Network query server (docs/NETWORK.md): the connection tier that makes
// the admission-controlled engine reachable over TCP.
//
// Architecture — one thread of its own, and no compute threads:
//
//   - One *event-loop* thread owns every socket: it poll()s the query and
//     HTTP listeners plus all live connections, accepts, reads bytes,
//     parses frames (net/protocol.h), and writes queued responses. Frame
//     decode happens here — the I/O thread — and a decoded request is
//     handed straight to the existing engine::query_executor, whose
//     admission queue, shed watermark, deadlines, and watchdog apply to
//     network traffic exactly as they do to in-process callers.
//     Immediate outcomes (shed, rejected, draining, per-connection
//     in-flight cap, protocol errors) are answered from the loop; the
//     refusals the executor never saw are still recorded in its flight
//     recorder and trace store (query_executor::observe_refusal).
//   - The executor's own dispatchers run the query bodies, and its
//     watchdog settles overdue ones, untouched. Each admitted request carries a continuation
//     (query_executor::submit(req, on_settle)) that runs on whichever
//     thread settles the query: it classifies the outcome, encodes the
//     response frame, and posts it to an outbox + wake pipe under one
//     mutex. The loop alone touches sockets, so no socket ever sees two
//     writers.
//
// Responses may complete out of submission order on a pipelined
// connection; the request's correlation id is echoed so clients match them
// up. Per-connection in-flight caps bound how much queue space one client
// can claim; past the cap the server answers `rejected` with retry_after
// advice instead of buffering unboundedly.
//
// The HTTP side port serves a handful of GET endpoints — /metrics
// (Prometheus text via obs::metrics_registry::render_text), /healthz,
// /traces (recent retained-trace index), /traces/<id> (one full trace,
// per-round JSON), and /debug/flightrec (the flight-recorder ring) — with
// Connection: close semantics; it exists so a scraper, load balancer, or
// an operator with curl needs no custom protocol. The trace endpoints
// answer 404 with a JSON error body when the executor has no ring
// attached (observability off).
//
// stop() is a graceful drain: listeners close first (no new connections),
// new request frames are answered `shutting_down`, then stop() waits up to
// drain_deadline for in-flight queries to finish before tearing sockets
// down. The outbox is per start(): a query still running past the deadline
// settles later into the closed one, which drops its response, even after
// the server is restarted or destroyed. Failpoints net.accept / net.read /
// net.write inject connection faults at each I/O boundary
// (docs/ROBUSTNESS.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/executor.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace ligra::net {

struct server_options {
  // Query listener port; 0 picks an ephemeral port (read it back via
  // port() — the loopback tests and benches do).
  uint16_t port = 0;
  // HTTP /metrics + /healthz side port; -1 disables, 0 is ephemeral.
  int http_port = -1;
  std::string bind_address = "127.0.0.1";
  // Request frames in flight per connection before the server answers
  // `rejected` with retry_after advice instead of admitting more.
  size_t max_inflight_per_conn = 32;
  size_t max_connections = 256;
  // How long stop() waits for in-flight queries before tearing down.
  std::chrono::milliseconds drain_deadline{5000};
};

class server {
 public:
  // Publishes engine_net_* metrics into the executor's registry, so one
  // /metrics exposition covers the network tier alongside everything else.
  server(engine::query_executor& ex, server_options opts = {});
  ~server();  // stop()s if still running

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  // Binds the listeners and starts the event loop. Throws
  // std::runtime_error on bind/listen failure.
  void start();

  // Graceful drain (see header comment). Idempotent; safe from any thread
  // except the server's own.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Actual bound ports (valid after start(); ephemeral requests resolved).
  uint16_t port() const { return port_; }
  uint16_t http_port() const { return http_port_; }

  // Live connection count (tests; the gauge mirrors it).
  size_t connections() const;

 private:
  struct connection {
    int fd = -1;
    uint64_t id = 0;
    bool http = false;
    std::string inbuf;
    std::deque<std::vector<char>> outq;
    size_t out_off = 0;       // sent bytes of outq.front()
    size_t inflight = 0;      // submitted, response not yet enqueued
    bool close_after_flush = false;
  };

  // Where continuations post responses; one per start() (server.cc).
  struct outbox;

  void event_loop();
  void accept_ready(int listen_fd, bool http);
  // Reads until EAGAIN; returns false when the connection must close.
  bool read_ready(connection& c);
  // Flushes outq until EAGAIN; returns false when the connection must close.
  bool write_ready(connection& c);
  void parse_frames(connection& c);
  void handle_request(connection& c, const frame_view& f);
  void handle_http(connection& c);
  // Appends an encoded frame to c's output queue (event-loop thread only).
  void enqueue_frame(connection& c, std::vector<char> frame);
  void close_connection(uint64_t id);
  void wake();

  engine::query_executor& ex_;
  server_options opts_;
  uint16_t port_ = 0;
  uint16_t http_port_ = 0;
  int listen_fd_ = -1;
  int http_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> terminate_{false};
  std::thread event_thread_;

  // Event-loop-owned (no lock): live connections by id.
  std::unordered_map<uint64_t, std::unique_ptr<connection>> conns_;
  uint64_t next_conn_id_ = 1;

  // Set by start() and dropped by stop() after the event loop exits; each
  // continuation holds its own reference.
  std::shared_ptr<outbox> outbox_;

  std::mutex stop_mutex_;  // serializes stop() callers

  // engine_net_* metric handles (executor registry).
  obs::counter* m_conns_total_;
  obs::gauge* g_conns_active_;
  obs::counter* m_accept_failures_;
  obs::counter* m_frames_in_;
  obs::counter* m_frames_out_;
  obs::counter* m_bytes_in_;
  obs::counter* m_bytes_out_;
  obs::counter* m_proto_errors_;
  obs::counter* m_requests_;
  obs::counter* m_http_requests_;
  obs::histogram* h_request_micros_;
};

}  // namespace ligra::net
