#include "net/protocol.h"

#include <cstring>

#include "util/crc32.h"

namespace ligra::net {

namespace {

// --- little-endian writers ---------------------------------------------------

void put_u8(std::vector<char>& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u16(std::vector<char>& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::vector<char>& out, uint32_t v) {
  for (int i = 0; i < 4; i++)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::vector<char>& out, uint64_t v) {
  for (int i = 0; i < 8; i++)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_double(std::vector<char>& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// --- bounds-checked reader ---------------------------------------------------

// Every decode goes through this cursor: reads past `len` throw instead of
// touching memory, which is the whole over-read defense — fuzzed frames
// land here with arbitrary counts and the cursor refuses them.
struct cursor {
  const char* p;
  size_t len;
  size_t off = 0;

  void need(size_t n) const {
    if (len - off < n)
      throw protocol_error("payload truncated: need " + std::to_string(n) +
                           " bytes at offset " + std::to_string(off) +
                           ", have " + std::to_string(len - off));
  }
  uint8_t u8() {
    need(1);
    return static_cast<uint8_t>(p[off++]);
  }
  uint16_t u16() {
    need(2);
    uint16_t v = static_cast<uint16_t>(static_cast<uint8_t>(p[off])) |
                 static_cast<uint16_t>(static_cast<uint8_t>(p[off + 1]) << 8);
    off += 2;
    return v;
  }
  uint32_t u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; i++)
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p[off + i])) << (8 * i);
    off += 4;
    return v;
  }
  uint64_t u64() {
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p[off + i])) << (8 * i);
    off += 8;
    return v;
  }
  double f64() {
    uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str(size_t n) {
    need(n);
    std::string s(p + off, n);
    off += n;
    return s;
  }
};

// Frame header minus magic and CRC — the bytes the CRC covers before the
// payload (version u16, type u8, flags u8, payload_len u32).
uint32_t header_crc(const char* hdr8, const char* payload, size_t payload_len) {
  uint32_t c = util::crc32(hdr8, 8);
  return util::crc32(payload, payload_len, c);
}

std::vector<char> seal_frame(frame_type type, std::vector<char> payload,
                             uint8_t flags = 0) {
  if (payload.size() > kMaxPayloadBytes)
    throw protocol_error("payload exceeds kMaxPayloadBytes: " +
                         std::to_string(payload.size()));
  std::vector<char> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  for (char m : kFrameMagic) out.push_back(m);
  // Untraced frames stay byte-identical to the v1 wire format, so they
  // interoperate with v1 peers; only frames that actually carry the trace
  // block announce version 2.
  put_u16(out, flags == 0 ? kMinProtocolVersion : kProtocolVersion);
  put_u8(out, static_cast<uint8_t>(type));
  put_u8(out, flags);
  put_u32(out, static_cast<uint32_t>(payload.size()));
  uint32_t crc = header_crc(out.data() + 4, payload.data(), payload.size());
  put_u32(out, crc);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

const char* wire_status_name(wire_status s) { return engine::status_name(s); }

std::optional<frame_view> try_parse_frame(const char* data, size_t len,
                                          size_t* consumed) {
  if (len < kFrameHeaderBytes) return std::nullopt;
  if (std::memcmp(data, kFrameMagic, sizeof(kFrameMagic)) != 0)
    throw protocol_error("bad frame magic");
  cursor c{data + 4, kFrameHeaderBytes - 4};
  const uint16_t version = c.u16();
  const uint8_t type = c.u8();
  const uint8_t flags = c.u8();  // CRC-covered; unknown bits ignored
  const uint32_t payload_len = c.u32();
  const uint32_t crc = c.u32();
  if (version < kMinProtocolVersion || version > kProtocolVersion)
    throw protocol_error("unsupported protocol version " +
                         std::to_string(version));
  if (type != static_cast<uint8_t>(frame_type::request) &&
      type != static_cast<uint8_t>(frame_type::response))
    throw protocol_error("unknown frame type " + std::to_string(type));
  if (payload_len > kMaxPayloadBytes)
    throw protocol_error("oversized payload length " +
                         std::to_string(payload_len));
  if (len - kFrameHeaderBytes < payload_len) return std::nullopt;
  const char* payload = data + kFrameHeaderBytes;
  if (header_crc(data + 4, payload, payload_len) != crc)
    throw protocol_error("frame CRC mismatch");
  *consumed = kFrameHeaderBytes + payload_len;
  return frame_view{static_cast<frame_type>(type), payload, payload_len,
                    version, flags};
}

std::vector<char> encode_request_frame(const wire_request& req) {
  if (req.graph.size() > UINT16_MAX)
    throw protocol_error("graph name too long: " +
                         std::to_string(req.graph.size()));
  std::vector<char> p;
  p.reserve(48 + req.graph.size() + 8 * req.updates.size());
  put_u64(p, req.id);
  put_u8(p, static_cast<uint8_t>(req.kind));
  put_u8(p, static_cast<uint8_t>(req.priority));
  put_u16(p, static_cast<uint16_t>(req.graph.size()));
  put_u32(p, req.k);
  put_u32(p, req.deadline_ms);
  put_u64(p, req.source);
  put_u64(p, req.target);
  put_u32(p, static_cast<uint32_t>(req.updates.inserts.size()));
  put_u32(p, static_cast<uint32_t>(req.updates.deletes.size()));
  p.insert(p.end(), req.graph.begin(), req.graph.end());
  for (const auto& e : req.updates.inserts) {
    put_u32(p, e.u);
    put_u32(p, e.v);
  }
  for (const auto& e : req.updates.deletes) {
    put_u32(p, e.u);
    put_u32(p, e.v);
  }
  uint8_t flags = 0;
  if (req.tid.valid()) {
    flags |= kFlagTrace;
    put_u64(p, req.tid.hi);
    put_u64(p, req.tid.lo);
    put_u8(p, req.sampled ? 1 : 0);
  }
  return seal_frame(frame_type::request, std::move(p), flags);
}

wire_request decode_request(const char* payload, size_t len, uint8_t flags) {
  cursor c{payload, len};
  wire_request r;
  r.id = c.u64();
  const uint8_t kind = c.u8();
  if (kind >= engine::kNumQueryKinds ||
      kind == static_cast<uint8_t>(engine::query_kind::custom))
    throw protocol_error("untransportable query kind " + std::to_string(kind));
  r.kind = static_cast<engine::query_kind>(kind);
  const uint8_t prio = c.u8();
  if (prio > static_cast<uint8_t>(engine::query_priority::high))
    throw protocol_error("bad priority " + std::to_string(prio));
  r.priority = static_cast<engine::query_priority>(prio);
  const uint16_t graph_len = c.u16();
  r.k = c.u32();
  r.deadline_ms = c.u32();
  r.source = c.u64();
  r.target = c.u64();
  const uint32_t n_ins = c.u32();
  const uint32_t n_del = c.u32();
  // Counts are validated against the remaining payload *before* any vector
  // reserve: an attacker-controlled count never sizes an allocation. A
  // frame announcing the trace flag must carry exactly the 17 extra block
  // bytes — a truncated or inflated block is structurally corrupt.
  const size_t variable = len - c.off;
  size_t want = static_cast<size_t>(graph_len) +
                8 * (static_cast<size_t>(n_ins) + n_del);
  if ((flags & kFlagTrace) != 0) want += 17;
  if (variable != want)
    throw protocol_error("request length mismatch: " + std::to_string(variable) +
                         " variable bytes, layout wants " +
                         std::to_string(want));
  r.graph = c.str(graph_len);
  r.updates.inserts.reserve(n_ins);
  for (uint32_t i = 0; i < n_ins; i++) {
    vertex_id u = c.u32(), v = c.u32();
    r.updates.inserts.emplace_back(u, v);
  }
  r.updates.deletes.reserve(n_del);
  for (uint32_t i = 0; i < n_del; i++) {
    vertex_id u = c.u32(), v = c.u32();
    r.updates.deletes.emplace_back(u, v);
  }
  if ((flags & kFlagTrace) != 0) {
    r.tid.hi = c.u64();
    r.tid.lo = c.u64();
    const uint8_t sampled = c.u8();
    if (sampled > 1)
      throw protocol_error("bad trace sampled byte " + std::to_string(sampled));
    r.sampled = sampled != 0;
    if (!r.tid.valid())
      throw protocol_error("trace flag set with a zero trace id");
  }
  if (r.kind != engine::query_kind::update && !r.updates.empty())
    throw protocol_error("update edges on a non-update request");
  return r;
}

std::vector<char> encode_response_frame(const wire_response& resp) {
  if (resp.message.size() > UINT16_MAX)
    throw protocol_error("response message too long");
  std::vector<char> p;
  p.reserve(40 + resp.message.size() + 12 * resp.topk.size());
  put_u64(p, resp.id);
  put_u8(p, static_cast<uint8_t>(resp.status));
  put_u8(p, resp.cache_hit ? 1 : 0);
  put_u16(p, static_cast<uint16_t>(resp.message.size()));
  put_u32(p, resp.retry_after_ms);
  put_u64(p, static_cast<uint64_t>(resp.value));
  put_double(p, resp.micros);
  put_u32(p, static_cast<uint32_t>(resp.topk.size()));
  p.insert(p.end(), resp.message.begin(), resp.message.end());
  for (const auto& [v, rank] : resp.topk) {
    put_u32(p, v);
    put_double(p, rank);
  }
  uint8_t flags = 0;
  if (resp.tid.valid()) {
    flags |= kFlagTrace;
    put_u64(p, resp.tid.hi);
    put_u64(p, resp.tid.lo);
  }
  return seal_frame(frame_type::response, std::move(p), flags);
}

wire_response decode_response(const char* payload, size_t len, uint8_t flags) {
  cursor c{payload, len};
  wire_response r;
  r.id = c.u64();
  const uint8_t status = c.u8();
  if (status >= engine::kNumStatuses)
    throw protocol_error("bad response status " + std::to_string(status));
  r.status = static_cast<wire_status>(status);
  r.cache_hit = c.u8() != 0;
  const uint16_t msg_len = c.u16();
  r.retry_after_ms = c.u32();
  r.value = static_cast<int64_t>(c.u64());
  r.micros = c.f64();
  const uint32_t n_topk = c.u32();
  const size_t variable = len - c.off;
  size_t want = static_cast<size_t>(msg_len) + 12 * static_cast<size_t>(n_topk);
  if ((flags & kFlagTrace) != 0) want += 16;
  if (variable != want)
    throw protocol_error("response length mismatch: " +
                         std::to_string(variable) + " variable bytes, layout wants " +
                         std::to_string(want));
  r.message = c.str(msg_len);
  r.topk.reserve(n_topk);
  for (uint32_t i = 0; i < n_topk; i++) {
    uint32_t v = c.u32();
    double rank = c.f64();
    r.topk.emplace_back(v, rank);
  }
  if ((flags & kFlagTrace) != 0) {
    r.tid.hi = c.u64();
    r.tid.lo = c.u64();
    if (!r.tid.valid())
      throw protocol_error("trace flag set with a zero trace id");
  }
  return r;
}

wire_response make_response(uint64_t id, const engine::query_result& r) {
  wire_response resp;
  resp.id = id;
  resp.status = wire_status::ok;
  resp.cache_hit = r.cache_hit;
  resp.value = r.value;
  resp.micros = r.micros;
  resp.tid = r.tid;
  resp.topk.reserve(r.topk.size());
  for (const auto& [v, rank] : r.topk) resp.topk.emplace_back(v, rank);
  return resp;
}

wire_response make_error_response(uint64_t id, wire_status status,
                                  const std::string& message,
                                  uint32_t retry_after_ms) {
  wire_response resp;
  resp.id = id;
  resp.status = status;
  resp.message = message;
  resp.retry_after_ms = retry_after_ms;
  return resp;
}

void throw_if_error(const wire_response& resp) {
  engine::rethrow(resp.status, resp.message, resp.retry_after_ms);
}

}  // namespace ligra::net
