// klinq::net wire protocol — length-prefixed binary frames.
//
// Every frame is a fixed 24-byte header followed by `payload_size` bytes of
// type-specific payload. The header carries a CRC32 over its first 20 bytes,
// so a desynced or corrupted stream is detected at the next frame boundary
// instead of being misparsed into a garbage payload length; payload bytes are
// not checksummed (TCP already covers transport corruption — the header CRC
// exists to catch *framing* bugs and hostile bytes, where the cost of
// trusting a bad length field is unbounded memory).
//
//   offset  size  field
//        0     4  magic        0x514E4C4B ("KLNQ" little-endian)
//        4     1  version      kProtocolVersion (currently 2; 1 accepted)
//        5     1  type         frame_type
//        6     1  lane         serve::lane_class (requests; 0 elsewhere)
//        7     1  flags        v2: kTraceFlag on request frames; v1: must be 0
//        8     8  request_id   client-chosen correlation id (echoed back)
//       16     4  payload_size bytes following the header
//       20     4  crc32        IEEE CRC32 over header bytes [0, 20)
//
// Version negotiation is per connection: the server accepts both v1 and v2
// frames and answers each connection with the version of the first frame it
// received from it, so a v1 client never sees a v2 byte. The only v2
// addition is the flags byte (reserved-and-zero under v1): kTraceFlag marks
// a request frame whose payload starts with a 16-byte trace context
// (trace_id u64 + parent span u64, little-endian, counted in payload_size)
// ahead of the request_payload below. Unknown flag bits, or the trace flag
// on a non-request frame, are rejected as bad_type — hostile bytes in the
// flags byte stay typed errors, exactly as the reserved byte was under v1.
//
// All integers are little-endian. Frame types:
//
//   request   client → server  evaluate one trace block (request_payload)
//   response  server → client  terminal result for a request
//   cancel    client → server  cancel the in-flight request with this id
//   ping      client → server  liveness probe (empty payload)
//   pong      server → client  ping echo (request_id echoed)
//   error     server → client  typed rejection (error_payload); for protocol
//                              errors the connection closes after it
//   busy      server → client  overload shed (busy_payload) — retriable; the
//                              connection stays open
//   goodbye   server → client  orderly close notification (empty payload)
//
// request_payload layout (header.payload_size must equal exactly
// 24 + shots * 2 * samples_per_quadrature * 4):
//
//   offset  size  field
//        0     4  qubit
//        4     1  engine        serve::engine_kind
//        5     3  reserved      must be 0
//        8     8  deadline_seconds (f64; 0 = server default)
//       16     4  samples_per_quadrature
//       20     4  shots
//       24     …  shots rows of 2N f32 samples ([I… | Q…] per row)
//
// response_payload layout (states/logits present only when status == ok):
//
//   offset  size  field
//        0     1  status        serve::request_status
//        1     1  engine
//        2     2  reserved
//        4     4  shots
//        8     8  model_version
//       16     8  latency_seconds (f64)
//       24  shots u8 states, then shots × 4 bytes of engine-native logits
//                 (f32 for float_student, raw Q16.16 for fixed_q16)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/serve/request.hpp"

namespace klinq::net {

inline constexpr std::uint32_t kMagic = 0x514E4C4Bu;  // "KLNQ"
inline constexpr std::uint8_t kProtocolVersion = 2;
/// Oldest version decode_header still accepts (per-connection negotiation:
/// the server answers in whatever version the client spoke first).
inline constexpr std::uint8_t kMinProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
inline constexpr std::size_t kRequestPayloadHeaderSize = 24;
inline constexpr std::size_t kResponsePayloadHeaderSize = 24;
/// v2 flags-byte bit: this request frame's payload starts with a 16-byte
/// trace context. Every other flag bit is reserved and rejected.
inline constexpr std::uint8_t kTraceFlag = 0x01;
inline constexpr std::size_t kTraceContextSize = 16;

enum class frame_type : std::uint8_t {
  request = 1,
  response = 2,
  cancel = 3,
  ping = 4,
  pong = 5,
  error = 6,
  busy = 7,
  goodbye = 8,
};

const char* frame_type_name(frame_type type) noexcept;

/// Why a busy frame shed the request. Every reason is retriable; the
/// connection stays open.
enum class busy_reason : std::uint16_t {
  /// The server-wide inflight budget (or the serve layer itself) is full.
  server_busy = 0,
  /// This connection is at its max_inflight_per_connection quota.
  connection_inflight = 1,
  /// This connection is at its inflight payload byte budget.
  connection_bytes = 2,
  /// The front end is draining; no new work is admitted.
  draining = 3,
};

const char* busy_reason_name(busy_reason reason) noexcept;

/// Typed protocol errors. Any of these closes the offending connection
/// (after the error frame is flushed); only that connection.
enum class error_code : std::uint16_t {
  malformed_frame = 0,  // bad magic / bad header CRC
  bad_version = 1,
  bad_type = 2,
  oversize_frame = 3,  // payload_size above the configured bound
  decode_error = 4,    // request payload inconsistent with its own header
  internal = 5,
};

const char* error_code_name(error_code code) noexcept;

/// IEEE 802.3 CRC32 (reflected, poly 0xEDB88320), the zlib/PNG polynomial.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// Decoded frame header.
struct frame_header {
  std::uint8_t version = kProtocolVersion;
  frame_type type = frame_type::ping;
  serve::lane_class lane = serve::lane_class::bulk;
  std::uint8_t flags = 0;  // v2 only; encode_header zeroes it for v1 frames
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;

  bool has_trace() const noexcept { return (flags & kTraceFlag) != 0; }
};

/// Client-stamped trace correlation carried as the first kTraceContextSize
/// payload bytes of a kTraceFlag request frame (both fields u64 LE).
struct trace_context {
  std::uint64_t trace_id = 0;     // 0 = untraced
  std::uint64_t parent_span = 0;  // client's RTT span id
};

/// Serializes `ctx` into exactly kTraceContextSize bytes.
void encode_trace_context(const trace_context& ctx, std::uint8_t* out) noexcept;

/// Parses kTraceContextSize bytes (the caller checked the length).
trace_context decode_trace_context(const std::uint8_t* data) noexcept;

/// Serializes `header` (computing the CRC) into exactly kHeaderSize bytes.
void encode_header(const frame_header& header, std::uint8_t* out) noexcept;

/// Outcome of decode_header: ok, or the typed error the server must answer
/// with before closing the connection.
enum class header_verdict : std::uint8_t {
  ok,
  bad_magic,
  bad_crc,
  bad_version,
  bad_type,
};

/// Parses kHeaderSize bytes. On any non-ok verdict `out` holds whatever was
/// parsed before the check failed (request_id is valid for bad_version /
/// bad_type, so the error frame can still correlate).
header_verdict decode_header(const std::uint8_t* data,
                             frame_header& out) noexcept;

/// Fixed-size prefix of a request payload (everything but the samples).
struct request_info {
  std::uint32_t qubit = 0;
  serve::engine_kind engine = serve::engine_kind::fixed_q16;
  double deadline_seconds = 0.0;
  std::uint32_t samples_per_quadrature = 0;
  std::uint32_t shots = 0;
};

/// Exact payload size for a request with these dimensions.
constexpr std::size_t request_payload_size(std::uint32_t shots,
                                           std::uint32_t samples) noexcept {
  return kRequestPayloadHeaderSize +
         static_cast<std::size_t>(shots) * 2 * samples * sizeof(float);
}

/// Serializes a full request frame (header + payload) for `traces`. A
/// non-null `trace` with a nonzero trace_id emits a v2 kTraceFlag frame
/// whose payload is the 16-byte context followed by the request payload;
/// otherwise the frame is an unflagged v2 frame with the plain payload.
std::vector<std::uint8_t> encode_request(std::uint64_t request_id,
                                         const request_info& info,
                                         serve::lane_class lane,
                                         const data::trace_dataset& traces,
                                         const trace_context* trace = nullptr);

/// Decodes a request payload into `traces` (shaped by request_rows, then
/// filled — the dataset the readout_request then borrows). Throws
/// invalid_argument_error when the payload disagrees with its own dimensions
/// or the reserved bytes are nonzero.
request_info decode_request(std::span<const std::uint8_t> payload,
                            data::trace_dataset& traces);

/// Parses and checks a request payload's fixed prefix (its first
/// kRequestPayloadHeaderSize bytes) against the payload's total size, with
/// decode_request's checks. The server calls it as soon as the prefix has
/// arrived, so the rows can be read straight into their dataset.
request_info decode_request_prefix(const std::uint8_t* prefix,
                                   std::size_t payload_size);

/// Shapes `traces` to the request's first `shots` rows (shots <=
/// info.shots) of 2·samples columns and returns their storage as the wire's
/// row bytes (rows are contiguous f32, wire order). Rows already stored keep
/// their bytes, so the storage can grow as rows arrive; nothing is cleared:
/// the caller writes every byte before the dataset is read.
std::span<std::uint8_t> request_rows(const request_info& info,
                                     std::size_t shots,
                                     data::trace_dataset& traces);

/// Serializes a full response frame for a finished result. Non-ok statuses
/// carry no data rows (their buffers are unspecified by contract).
/// `version` is the connection's negotiated protocol version.
std::vector<std::uint8_t> encode_response(std::uint64_t request_id,
                                          const serve::readout_result& result,
                                          std::uint8_t version =
                                              kProtocolVersion);

/// Client-side decoded response.
struct response_view {
  serve::request_status status = serve::request_status::ok;
  serve::engine_kind engine = serve::engine_kind::fixed_q16;
  std::uint32_t shots = 0;
  std::uint64_t model_version = 0;
  double latency_seconds = 0.0;
  std::vector<std::uint8_t> states;
  std::vector<float> logits;           // float_student
  std::vector<std::int32_t> registers;  // fixed_q16 raw Q16.16 bits
};

/// Throws invalid_argument_error on a size-inconsistent payload.
response_view decode_response(std::span<const std::uint8_t> payload);

/// Small control frames. `version` is the connection's negotiated protocol
/// version (server-side frames echo the version the client spoke).
std::vector<std::uint8_t> encode_control(frame_type type,
                                         std::uint64_t request_id,
                                         std::uint8_t version =
                                             kProtocolVersion);
std::vector<std::uint8_t> encode_busy(std::uint64_t request_id,
                                      busy_reason reason,
                                      std::uint8_t version = kProtocolVersion);
std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       error_code code,
                                       const std::string& message,
                                       std::uint8_t version =
                                           kProtocolVersion);

/// Decoded busy/error payloads (client side).
busy_reason decode_busy(std::span<const std::uint8_t> payload);
struct error_view {
  error_code code = error_code::internal;
  std::string message;
};
error_view decode_error(std::span<const std::uint8_t> payload);

}  // namespace klinq::net
