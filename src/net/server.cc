#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace_store.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace ligra::net {

namespace {

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Bound, listening, nonblocking IPv4 socket; throws on any failure.
int make_listener(const std::string& addr, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad bind address: " + addr);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(fd, 128) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("bind/listen on " + addr + ":" +
                             std::to_string(port) + ": " + strerror(err));
  }
  set_nonblocking(fd);
  return fd;
}

uint16_t bound_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return 0;
  return ntohs(sa.sin_port);
}

// HTTP/1.1 response with Connection: close (the endpoint is scrape-shaped:
// one request, one response, done).
std::vector<char> http_response(const std::string& status,
                                const std::string& content_type,
                                const std::string& body) {
  std::string head = "HTTP/1.1 " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  std::vector<char> out;
  out.reserve(head.size() + body.size());
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

// Every continuation holds the outbox by shared_ptr, so one that runs after
// stop() or ~server() finds it closed instead of freed memory, and a
// restarted server (which gets a new outbox) never sees its response.
struct server::outbox {
  explicit outbox(int wake) : wake_fd(wake) {}

  // Counts a request in flight before submit(); post() or, when submit()
  // throws, leave() un-counts it.
  void enter() {
    std::lock_guard<std::mutex> lock(mutex);
    inflight++;
  }
  void leave() {
    std::lock_guard<std::mutex> lock(mutex);
    leave_locked();
  }
  // Queues `frame` for connection `conn` and wakes the event loop, unless
  // stop() closed the box (then the response is dropped).
  void post(uint64_t conn, std::vector<char> frame) {
    std::lock_guard<std::mutex> lock(mutex);
    if (open) {
      frames.emplace_back(conn, std::move(frame));
      char b = 1;
      // Best-effort: a full pipe already guarantees a pending wake.
      [[maybe_unused]] ssize_t n = ::write(wake_fd, &b, 1);
    }
    leave_locked();
  }
  // Never below zero: a request un-counted before it was counted stays
  // counted, and stop() shows it by waiting out drain_deadline.
  void leave_locked() {
    if (inflight > 0 && --inflight == 0) idle.notify_all();
  }

  std::mutex mutex;
  std::condition_variable idle;  // inflight reached zero
  std::vector<std::pair<uint64_t, std::vector<char>>> frames;
  size_t inflight = 0;
  // Cleared by stop() before it closes the wake pipe: a closed box never
  // writes wake_fd.
  bool open = true;
  const int wake_fd;
};

server::server(engine::query_executor& ex, server_options opts)
    : ex_(ex),
      opts_(opts),
      m_conns_total_(&ex.metrics().get_counter("engine_net_connections_total")),
      g_conns_active_(&ex.metrics().get_gauge("engine_net_connections_active")),
      m_accept_failures_(
          &ex.metrics().get_counter("engine_net_accept_failures_total")),
      m_frames_in_(
          &ex.metrics().get_counter("engine_net_frames_total{dir=\"in\"}")),
      m_frames_out_(
          &ex.metrics().get_counter("engine_net_frames_total{dir=\"out\"}")),
      m_bytes_in_(
          &ex.metrics().get_counter("engine_net_bytes_total{dir=\"in\"}")),
      m_bytes_out_(
          &ex.metrics().get_counter("engine_net_bytes_total{dir=\"out\"}")),
      m_proto_errors_(
          &ex.metrics().get_counter("engine_net_protocol_errors_total")),
      m_requests_(&ex.metrics().get_counter("engine_net_requests_total")),
      m_http_requests_(
          &ex.metrics().get_counter("engine_net_http_requests_total")),
      h_request_micros_(
          &ex.metrics().get_histogram("engine_net_request_micros")) {
  if (opts_.max_inflight_per_conn == 0) opts_.max_inflight_per_conn = 1;
}

server::~server() { stop(); }

void server::start() {
  if (running_.load()) throw std::runtime_error("server already started");
  listen_fd_ = make_listener(opts_.bind_address, opts_.port);
  port_ = bound_port(listen_fd_);
  if (opts_.http_port >= 0) {
    try {
      http_fd_ = make_listener(opts_.bind_address,
                               static_cast<uint16_t>(opts_.http_port));
    } catch (...) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
    http_port_ = bound_port(http_fd_);
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    if (http_fd_ >= 0) ::close(http_fd_);
    listen_fd_ = http_fd_ = -1;
    throw std::runtime_error("pipe(): " + std::string(strerror(errno)));
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  draining_.store(false);
  terminate_.store(false);
  outbox_ = std::make_shared<outbox>(wake_wr_);
  running_.store(true, std::memory_order_release);
  event_thread_ = std::thread([this] { event_loop(); });
}

void server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;

  // Phase 1: stop accepting and admitting. The event loop closes the
  // listeners on its next wake; request frames that arrive during the
  // drain are answered `shutting_down`.
  draining_.store(true, std::memory_order_release);
  obs::log_info("net", "server draining",
                {{"port", static_cast<uint64_t>(port_)}});
  wake();

  // Phase 2: bounded drain — wait for every submitted query's response to
  // be posted (queries the executor is still running hold this up).
  outbox& box = *outbox_;
  {
    std::unique_lock<std::mutex> lock(box.mutex);
    box.idle.wait_until(lock,
                        std::chrono::steady_clock::now() + opts_.drain_deadline,
                        [&box] { return box.inflight == 0; });
  }

  // Phase 3: teardown. One last loop turn flushes what it can, then every
  // socket closes. Queries still running settle later into the closed
  // outbox.
  terminate_.store(true, std::memory_order_release);
  wake();
  event_thread_.join();
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.open = false;
  }
  outbox_.reset();
  ::close(wake_rd_);
  ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  running_.store(false, std::memory_order_release);
}

size_t server::connections() const {
  return static_cast<size_t>(g_conns_active_->value());
}

void server::wake() {
  if (wake_wr_ < 0) return;
  char b = 1;
  // Best-effort: a full pipe already guarantees a pending wake.
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
}

void server::event_loop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pfds slot (0 = not a conn)
  while (!terminate_.load(std::memory_order_acquire)) {
    if (draining_.load(std::memory_order_acquire)) {
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (http_fd_ >= 0) {
        ::close(http_fd_);
        http_fd_ = -1;
      }
    }

    pfds.clear();
    pfd_conn.clear();
    auto add = [&](int fd, short events, uint64_t conn_id) {
      pfds.push_back(pollfd{fd, events, 0});
      pfd_conn.push_back(conn_id);
    };
    add(wake_rd_, POLLIN, 0);
    if (listen_fd_ >= 0) add(listen_fd_, POLLIN, 0);
    if (http_fd_ >= 0) add(http_fd_, POLLIN, 0);
    for (auto& [id, c] : conns_) {
      short ev = 0;
      if (!c->close_after_flush) ev |= POLLIN;
      if (!c->outq.empty()) ev |= POLLOUT;
      if (ev == 0) ev = POLLOUT;  // close_after_flush with empty queue
      add(c->fd, ev, id);
    }

    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 200);

    // Wake pipe: drain it, then move finished responses from the outbox
    // into per-connection output queues.
    {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    {
      std::vector<std::pair<uint64_t, std::vector<char>>> ready;
      {
        std::lock_guard<std::mutex> lock(outbox_->mutex);
        ready.swap(outbox_->frames);
      }
      for (auto& [conn_id, frame] : ready) {
        auto it = conns_.find(conn_id);
        if (it == conns_.end()) continue;  // connection died first
        if (it->second->inflight > 0) it->second->inflight--;
        enqueue_frame(*it->second, std::move(frame));
      }
    }

    std::vector<uint64_t> to_close;
    for (size_t i = 0; i < pfds.size(); i++) {
      const short got = pfds[i].revents;
      if (got == 0) continue;
      const int fd = pfds[i].fd;
      if (fd == wake_rd_) continue;
      if (fd == listen_fd_ || fd == http_fd_) {
        accept_ready(fd, fd == http_fd_);
        continue;
      }
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;
      connection& c = *it->second;
      bool ok = true;
      if (got & (POLLERR | POLLHUP | POLLNVAL)) ok = (got & POLLIN) != 0;
      if (ok && (got & POLLIN)) ok = read_ready(c);
      if (ok && !c.outq.empty()) ok = write_ready(c);
      if (ok && c.close_after_flush && c.outq.empty()) ok = false;
      if (!ok) to_close.push_back(c.id);
    }
    for (uint64_t id : to_close) close_connection(id);

    // Eagerly flush connections whose output became ready via the outbox
    // (their POLLOUT interest was registered before the frames existed).
    std::vector<uint64_t> flush_close;
    for (auto& [id, c] : conns_) {
      if (c->outq.empty()) continue;
      if (!write_ready(*c) || (c->close_after_flush && c->outq.empty()))
        flush_close.push_back(id);
    }
    for (uint64_t id : flush_close) close_connection(id);
  }

  // Teardown: close everything the loop owns.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, c] : conns_) ids.push_back(id);
  for (uint64_t id : ids) close_connection(id);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
  listen_fd_ = http_fd_ = -1;
}

void server::accept_ready(int listen_fd, bool http) {
  for (;;) {
    int cfd = ::accept(listen_fd, nullptr, nullptr);
    if (cfd < 0) return;  // EAGAIN or transient error; poll again
    if (LIGRA_FAILPOINT("net.accept")) {
      // Injected accept failure: the connection is dropped on the floor —
      // the client sees a close and retries with backoff.
      m_accept_failures_->inc();
      ::close(cfd);
      continue;
    }
    if (conns_.size() >= opts_.max_connections) {
      m_accept_failures_->inc();
      obs::log_warn("net", "connection refused: max_connections reached",
                    {{"max_connections", opts_.max_connections}});
      ::close(cfd);
      continue;
    }
    set_nonblocking(cfd);
    if (!http) {
      int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto c = std::make_unique<connection>();
    c->fd = cfd;
    c->id = next_conn_id_++;
    c->http = http;
    conns_.emplace(c->id, std::move(c));
    m_conns_total_->inc();
    g_conns_active_->set(static_cast<int64_t>(conns_.size()));
  }
}

bool server::read_ready(connection& c) {
  char buf[64 * 1024];
  for (;;) {
    if (LIGRA_FAILPOINT("net.read")) return false;  // injected read fault
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) return !c.outq.empty() && c.close_after_flush;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    m_bytes_in_->inc(static_cast<uint64_t>(n));
    c.inbuf.append(buf, static_cast<size_t>(n));
    if (c.inbuf.size() > kMaxPayloadBytes + kFrameHeaderBytes + 8192)
      return false;  // runaway buffer; no valid frame can need this much
  }
  if (c.http) {
    handle_http(c);
  } else {
    parse_frames(c);
  }
  return true;
}

void server::parse_frames(connection& c) {
  size_t pos = 0;
  try {
    for (;;) {
      size_t consumed = 0;
      auto f = try_parse_frame(c.inbuf.data() + pos, c.inbuf.size() - pos,
                               &consumed);
      if (!f) break;
      m_frames_in_->inc();
      if (f->type != frame_type::request) {
        // A response frame sent *to* the server is a client bug; answer
        // with a protocol error and drop the connection.
        throw protocol_error("server expects request frames");
      }
      handle_request(c, *f);
      pos += consumed;
    }
    c.inbuf.erase(0, pos);
  } catch (const protocol_error& e) {
    // Framing is broken: there is no way to find the next frame boundary,
    // so answer with a typed protocol error and close once it flushes.
    m_proto_errors_->inc();
    obs::log_warn("net", "unframeable bytes; closing connection",
                  {{"conn", c.id}, {"error", e.what()}});
    enqueue_frame(c, encode_response_frame(make_error_response(
                         0, wire_status::protocol, e.what())));
    c.inbuf.clear();
    c.close_after_flush = true;
  }
}

void server::handle_request(connection& c, const frame_view& f) {
  wire_request wr;
  try {
    wr = decode_request(f.payload, f.payload_len, f.flags);
  } catch (const protocol_error& e) {
    // The frame boundary held (magic/length/CRC all passed) but the payload
    // is malformed — answer and keep the connection: the stream can resync.
    m_proto_errors_->inc();
    obs::log_warn("net", "malformed request payload",
                  {{"conn", c.id}, {"error", e.what()}});
    enqueue_frame(c, encode_response_frame(make_error_response(
                         0, wire_status::protocol, e.what())));
    return;
  }
  // Trace context: a client-sent id crosses the hop intact; when the client
  // sent none and this server observes, mint here so even refusals answered
  // below (draining / in-flight cap / bad request) carry a retrievable id.
  if (ex_.observing() && !wr.tid.valid()) wr.tid = obs::trace_id::mint();
  // Every early answer echoes the id the engine would have used.
  auto refuse = [&](const engine::outcome& o) {
    wire_response resp = make_error_response(wr.id, o.status, o.message,
                                             o.retry_after_ms);
    resp.tid = wr.tid;
    enqueue_frame(c, encode_response_frame(resp));
  };

  engine::query_request req;
  req.graph = std::move(wr.graph);
  req.kind = wr.kind;
  req.priority = wr.priority;
  req.source = static_cast<vertex_id>(wr.source);
  req.target = static_cast<vertex_id>(wr.target);
  req.k = wr.k;
  req.deadline = std::chrono::milliseconds(wr.deadline_ms);
  req.tid = wr.tid;
  req.sampled = wr.sampled;
  if (wr.kind == engine::query_kind::update)
    req.updates = std::make_shared<dynamic::update_batch>(std::move(wr.updates));

  // Refusals the executor never sees still land in its flight recorder and
  // trace store, so GET /traces/<id> explains them like any other outcome.
  engine::outcome refusal;
  if (draining_.load(std::memory_order_acquire)) {
    refusal = {wire_status::shutting_down, "server draining", 1000};
  } else if (c.inflight >= opts_.max_inflight_per_conn) {
    refusal = {wire_status::rejected,
               "connection in-flight cap (" +
                   std::to_string(opts_.max_inflight_per_conn) + ") reached",
               20};
  } else if (wr.source > kNoVertex || wr.target > kNoVertex) {
    refusal = {wire_status::bad_request, "vertex id out of 32-bit range", 0};
  }
  if (refusal.status != wire_status::ok) {
    ex_.observe_refusal(std::move(req), refusal);
    refuse(refusal);
    return;
  }

  // Counted in flight before submit(): a cache hit or an unknown graph
  // settles inside it, on this thread. The continuation touches nothing
  // the server owns, so it may run after stop() or ~server().
  c.inflight++;
  outbox_->enter();
  try {
    ex_.submit(std::move(req),
               [box = outbox_, micros = h_request_micros_, conn = c.id,
                id = wr.id, tid = wr.tid, t0 = mono_now()](
                   engine::query_result* r, std::exception_ptr err) {
                 wire_response resp;
                 if (r != nullptr) {
                   resp = make_response(id, *r);
                 } else {
                   const engine::outcome o = engine::classify(err);
                   resp = make_error_response(id, o.status, o.message,
                                              o.retry_after_ms);
                 }
                 // Error responses carry the query's id too: a
                 // deadline-exceeded caller needs exactly this id to fetch
                 // the post-mortem trace.
                 if (!resp.tid.valid()) resp.tid = tid;
                 micros->record(micros_since(t0));
                 box->post(conn, encode_response_frame(resp));
               });
    m_requests_->inc();
  } catch (...) {
    // Shed / rejected at admission: the executor recorded it and never
    // calls the continuation.
    c.inflight--;
    outbox_->leave();
    refuse(engine::classify(std::current_exception()));
  }
}

void server::enqueue_frame(connection& c, std::vector<char> frame) {
  m_frames_out_->inc();
  c.outq.push_back(std::move(frame));
}

bool server::write_ready(connection& c) {
  while (!c.outq.empty()) {
    if (LIGRA_FAILPOINT("net.write")) return false;  // injected write fault
    const auto& front = c.outq.front();
    ssize_t n = ::send(c.fd, front.data() + c.out_off,
                       front.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    m_bytes_out_->inc(static_cast<uint64_t>(n));
    c.out_off += static_cast<size_t>(n);
    if (c.out_off == front.size()) {
      c.outq.pop_front();
      c.out_off = 0;
    }
  }
  return true;
}

void server::handle_http(connection& c) {
  const size_t end = c.inbuf.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (c.inbuf.size() > 8192) c.close_after_flush = true;  // not a request
    return;
  }
  m_http_requests_->inc();
  // "GET /path HTTP/1.1" — method and path are all this endpoint needs.
  const std::string line = c.inbuf.substr(0, c.inbuf.find("\r\n"));
  c.inbuf.clear();
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  const std::string method = sp1 == std::string::npos ? "" : line.substr(0, sp1);
  const std::string path = (sp1 == std::string::npos || sp2 == std::string::npos)
                               ? ""
                               : line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::vector<char> resp;
  if (method != "GET") {
    resp = http_response("405 Method Not Allowed", "text/plain",
                         "only GET is served here\n");
  } else if (path == "/metrics") {
    resp = http_response("200 OK", "text/plain; version=0.0.4",
                         ex_.metrics().render_text());
  } else if (path == "/healthz") {
    resp = http_response("200 OK", "text/plain",
                         draining_.load() ? "draining\n" : "ok\n");
  } else if (path == "/traces") {
    obs::trace_store* ts = ex_.traces();
    if (ts == nullptr) {
      resp = http_response("404 Not Found", "application/json",
                           "{\"error\":\"trace store not attached\"}\n");
    } else {
      resp = http_response("200 OK", "application/json",
                           ts->render_index_json() + "\n");
    }
  } else if (path.rfind("/traces/", 0) == 0) {
    obs::trace_store* ts = ex_.traces();
    auto id = obs::trace_id::from_hex(path.substr(8));
    if (ts == nullptr) {
      resp = http_response("404 Not Found", "application/json",
                           "{\"error\":\"trace store not attached\"}\n");
    } else if (!id) {
      resp = http_response(
          "400 Bad Request", "application/json",
          "{\"error\":\"trace id must be 32 hex chars\"}\n");
    } else if (auto rec = ts->find(*id)) {
      resp = http_response("200 OK", "application/json",
                           rec->to_json(/*full=*/true) + "\n");
    } else {
      resp = http_response("404 Not Found", "application/json",
                           "{\"error\":\"no retained trace with that id\"}\n");
    }
  } else if (path == "/debug/flightrec") {
    obs::flight_recorder* fr = ex_.flightrec();
    if (fr == nullptr) {
      resp = http_response("404 Not Found", "application/json",
                           "{\"error\":\"flight recorder not attached\"}\n");
    } else {
      resp = http_response("200 OK", "application/json", fr->to_json() + "\n");
    }
  } else {
    resp = http_response("404 Not Found", "text/plain", "not found\n");
  }
  m_bytes_out_->inc(0);  // bytes counted at send time like every write
  c.outq.push_back(std::move(resp));
  c.close_after_flush = true;
}

void server::close_connection(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  g_conns_active_->set(static_cast<int64_t>(conns_.size()));
}

}  // namespace ligra::net
