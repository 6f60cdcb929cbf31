// Wire protocol of the network query tier (docs/NETWORK.md).
//
// Every message is one length-prefixed, CRC-checked binary frame:
//
//   frame header (16 bytes, little-endian, fixed-width):
//     "LGNP" magic | u16 version | u8 type | u8 flags |
//     u32 payload_len | u32 crc32
//   payload: payload_len bytes, layout per frame type below.
//
// The crc32 covers (version, type, flags, payload_len, payload) — header
// bytes [4, 12) plus the payload — so a flipped bit anywhere in a frame
// fails the check, exactly like the WAL record framing (dynamic/wal.h).
// Requests and responses share the header; `type` says which payload
// follows.
//
//   request payload:
//     u64 id | u8 kind | u8 priority | u16 graph_len | u32 k |
//     u32 deadline_ms | u64 source | u64 target |
//     u32 n_inserts | u32 n_deletes | graph_len × name byte |
//     n_inserts × (u32 u, u32 v) | n_deletes × (u32 u, u32 v)
//     [flag kFlagTrace: u64 trace_hi | u64 trace_lo | u8 sampled]
//
//   response payload:
//     u64 id | u8 status | u8 cache_hit | u16 msg_len | u32 retry_after_ms |
//     i64 value | u64 micros_bits (IEEE-754 double) | u32 n_topk |
//     msg_len × message byte | n_topk × (u32 vertex, u64 rank_bits)
//     [flag kFlagTrace: u64 trace_hi | u64 trace_lo]
//
// `id` is a client-chosen correlation token echoed verbatim in the
// response, so pipelined requests on one connection match up. `status`
// carries the engine's structured error taxonomy over the wire
// (docs/ROBUSTNESS.md): cancelled / deadline / shed (+ retry_after_ms) /
// rejected / not_found / bad_request / load / shutting_down / protocol /
// internal — every robustness feature a local caller sees, a remote
// client sees too.
//
// Versioning (docs/OBSERVABILITY.md): protocol v2 added the optional
// trailing trace block, announced per-frame by the kFlagTrace header flag
// — a 128-bit correlation id (and, on requests, the caller's sampling
// decision) that survives the hop, so GET /traces/<id> on the server finds
// the query a remote client started. Encoders emit version 1 frames when
// no trace id travels (byte-identical to the v1 wire format — an untraced
// client still interoperates with a v1 server), version 2 when one does.
// Decoders accept [kMinProtocolVersion, kProtocolVersion], ignore unknown
// flag bits, and reject structurally bad trace blocks (truncated, or a
// sampled byte that is neither 0 nor 1) as protocol errors. A v1 peer
// fed a v2 frame fails the version check before touching the payload —
// a clean protocol_error, never a crash.
//
// Parsing is defensive by construction: try_parse_frame() never reads past
// the buffer it is given (short input means "need more bytes", corrupt
// input throws protocol_error), and the decode_* functions read through a
// bounds-checked cursor that throws instead of over-reading. The fuzz
// suite in tests/test_net.cc flips, truncates, and inflates every byte of
// both frame kinds to hold that line.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dynamic/update_batch.h"
#include "engine/query.h"
#include "engine/status.h"

namespace ligra::net {

// Structurally invalid bytes (engine/status.h). The server answers with a
// `protocol` error frame (when framing still holds) or closes the
// connection (when it cannot resync); the client surfaces it.
using engine::protocol_error;

inline constexpr char kFrameMagic[4] = {'L', 'G', 'N', 'P'};
// Current speaking version and the oldest version still decoded. v1 frames
// (no trace block, flags 0) remain fully supported.
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr uint16_t kMinProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 16;
// Header flag bits. kFlagTrace announces the trailing trace block (v2+);
// unknown bits are ignored by decoders so future flags stay additive.
inline constexpr uint8_t kFlagTrace = 0x1;
// Largest accepted payload; a length prefix past this is corruption (or
// abuse), not a frame worth buffering for.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class frame_type : uint8_t { request = 1, response = 2 };

// Response status: `ok` or one typed error — the engine's status table
// (engine/status.h), whose codes are the wire byte, so client-side code
// rethrows the exact exception a local caller would have caught.
using wire_status = engine::query_status;

const char* wire_status_name(wire_status s);

// One query request as it crosses the wire — the transportable subset of
// engine::query_request (closures and trace pointers cannot travel;
// query_kind::custom is rejected at decode).
struct wire_request {
  uint64_t id = 0;  // echoed in the response
  engine::query_kind kind = engine::query_kind::bfs_distance;
  engine::query_priority priority = engine::query_priority::normal;
  std::string graph;
  uint64_t source = 0;
  uint64_t target = kNoVertex;
  uint32_t k = 10;
  uint32_t deadline_ms = 0;  // 0 = no deadline
  // Trace context (v2 trace block): zero id = untraced. `sampled` asks the
  // server for full trace retention regardless of latency or outcome.
  obs::trace_id tid{};
  bool sampled = false;
  dynamic::update_batch updates;  // kind == update only
};

struct wire_response {
  uint64_t id = 0;
  wire_status status = wire_status::ok;
  bool cache_hit = false;
  int64_t value = 0;
  double micros = 0.0;
  std::vector<std::pair<uint32_t, double>> topk;  // pagerank_topk only
  uint32_t retry_after_ms = 0;  // shed / rejected / shutting_down advice
  std::string message;          // error frames only
  // The query's correlation id as the server knows it (echoed from the
  // request, or minted server-side when the server observes). Zero when
  // neither end traces.
  obs::trace_id tid{};
};

// A parsed frame boundary inside a caller-owned buffer: `payload` points
// into the buffer passed to try_parse_frame and is valid only as long as
// those bytes are. `version`/`flags` come from the header; pass `flags` to
// the decode_* call so it knows whether a trace block trails the payload.
struct frame_view {
  frame_type type = frame_type::request;
  const char* payload = nullptr;
  uint32_t payload_len = 0;
  uint16_t version = kProtocolVersion;
  uint8_t flags = 0;
};

// Scans `data[0, len)` for one complete frame. Returns std::nullopt when
// the buffer holds a valid prefix of a frame (read more bytes and retry);
// returns the frame and sets `consumed` to its total size when one is
// complete; throws protocol_error when the bytes cannot be a frame (bad
// magic, unknown version or type, oversized length prefix, CRC mismatch).
std::optional<frame_view> try_parse_frame(const char* data, size_t len,
                                          size_t* consumed);

// Whole-frame encoders (header + CRC + payload).
std::vector<char> encode_request_frame(const wire_request& req);
std::vector<char> encode_response_frame(const wire_response& resp);

// Payload decoders for a frame try_parse_frame accepted. Bounds-checked:
// throw protocol_error on any structurally impossible payload (truncated
// fields, counts that overrun the length prefix, out-of-range enums).
// `flags` is the accepted frame's header flags (frame_view::flags): with
// kFlagTrace set the trailing trace block is required and validated.
wire_request decode_request(const char* payload, size_t len,
                            uint8_t flags = 0);
wire_response decode_response(const char* payload, size_t len,
                              uint8_t flags = 0);

// make_response fills a response frame from a finished query;
// make_error_response from a classified failure (engine::classify);
// throw_if_error turns a received error response back into the typed
// engine exception (engine::rethrow).
wire_response make_response(uint64_t id, const engine::query_result& r);
wire_response make_error_response(uint64_t id, wire_status status,
                                  const std::string& message,
                                  uint32_t retry_after_ms = 0);
void throw_if_error(const wire_response& resp);

}  // namespace ligra::net
