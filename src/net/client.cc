#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "engine/status.h"
#include "util/rng.h"

namespace ligra::net {

client::client(client_options opts) : opts_(opts) {}

client::~client() { close(); }

void client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

void client::connect(const std::string& host, uint16_t port) {
  close();
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1)
    throw std::runtime_error("bad host address: " + host);

  auto backoff = opts_.first_backoff;
  int attempts = opts_.connect_attempts > 0 ? opts_.connect_attempts : 1;
  int last_err = 0;
  for (int i = 0; i < attempts; i++) {
    if (i > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, opts_.max_backoff);
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      return;
    }
    last_err = errno;
    ::close(fd);
  }
  throw std::runtime_error("connect to " + host + ":" + std::to_string(port) +
                           " failed after " + std::to_string(attempts) +
                           " attempts: " + strerror(last_err));
}

void client::send_all(const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      close();
      throw std::runtime_error("send failed: " + std::string(strerror(err)));
    }
    off += static_cast<size_t>(n);
  }
}

wire_response client::read_response() {
  char buf[64 * 1024];
  for (;;) {
    size_t consumed = 0;
    auto f = try_parse_frame(inbuf_.data(), inbuf_.size(), &consumed);
    if (f) {
      if (f->type != frame_type::response)
        throw protocol_error("client expects response frames");
      wire_response resp = decode_response(f->payload, f->payload_len, f->flags);
      inbuf_.erase(0, consumed);
      return resp;
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      close();
      throw std::runtime_error("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      close();
      throw std::runtime_error("recv failed: " + std::string(strerror(err)));
    }
    inbuf_.append(buf, static_cast<size_t>(n));
  }
}

engine::query_result client::run(wire_request req) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  if (req.id == 0) req.id = next_id_++;
  // Client-side sampling: mint an id and set the sampled bit on the drawn
  // fraction of requests. An explicit req.tid travels as given either way.
  if (!req.tid.valid() && opts_.trace_sample > 0.0) {
    const double u =
        static_cast<double>(ligra::hash64(sample_ctr_++) >> 11) * 0x1.0p-53;
    if (u < opts_.trace_sample) {
      req.tid = obs::trace_id::mint();
      req.sampled = true;
    }
  } else if (req.sampled && !req.tid.valid()) {
    req.tid = obs::trace_id::mint();
  }
  last_tid_ = req.tid;
  auto frame = encode_request_frame(req);
  send_all(frame.data(), frame.size());
  // Responses can complete out of order on a pipelined connection, but this
  // client is strictly one-at-a-time, so the next frame answers `req` —
  // anything else is a server bug worth surfacing.
  wire_response resp = read_response();
  if (resp.id != req.id && resp.id != 0)
    throw protocol_error("response id " + std::to_string(resp.id) +
                         " does not match request id " +
                         std::to_string(req.id));
  // Record the server's view of the id *before* error statuses rethrow:
  // the post-mortem fetch after a deadline error is the whole point.
  if (resp.tid.valid()) last_tid_ = resp.tid;
  throw_if_error(resp);
  engine::query_result r;
  r.kind = req.kind;
  r.value = resp.value;
  r.micros = resp.micros;
  r.cache_hit = resp.cache_hit;
  r.tid = resp.tid;
  r.topk.reserve(resp.topk.size());
  for (auto& [v, rank] : resp.topk) r.topk.emplace_back(v, rank);
  return r;
}

engine::query_result client::run_retrying(wire_request req, int max_attempts,
                                          size_t* sheds, size_t* rejects) {
  auto backoff = opts_.first_backoff;
  for (int attempt = 1;; attempt++) {
    try {
      return run(req);
    } catch (...) {
      const engine::outcome o = engine::classify(std::current_exception());
      const std::chrono::milliseconds advice(o.retry_after_ms);
      switch (o.status) {
        case engine::query_status::shed:
          if (sheds) (*sheds)++;
          if (attempt >= max_attempts) throw;
          // The server sized this wait to its queue depth; honor it.
          std::this_thread::sleep_for(advice);
          break;
        case engine::query_status::rejected:
        case engine::query_status::shutting_down:
          if (rejects) (*rejects)++;
          if (attempt >= max_attempts) throw;
          std::this_thread::sleep_for(advice.count() > 0 ? advice : backoff);
          backoff = std::min(backoff * 2, opts_.max_backoff);
          break;
        default:
          throw;
      }
    }
  }
}

}  // namespace ligra::net
