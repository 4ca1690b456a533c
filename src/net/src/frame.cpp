#include "klinq/net/frame.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "klinq/common/error.hpp"

namespace klinq::net {

namespace {

// Little-endian load/store via memcpy (the project targets x86-64; a
// big-endian port would byte-swap here and nowhere else).
template <typename T>
void store(std::uint8_t* out, T value) noexcept {
  std::memcpy(out, &value, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* in) noexcept {
  T value;
  std::memcpy(&value, in, sizeof(T));
  return value;
}

struct crc_table {
  std::array<std::uint32_t, 256> entries{};
  crc_table() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

bool valid_frame_type(std::uint8_t raw) noexcept {
  return raw >= static_cast<std::uint8_t>(frame_type::request) &&
         raw <= static_cast<std::uint8_t>(frame_type::goodbye);
}

std::vector<std::uint8_t> frame_with_payload(const frame_header& header,
                                             std::size_t payload_size) {
  std::vector<std::uint8_t> bytes(kHeaderSize + payload_size);
  frame_header h = header;
  h.payload_size = static_cast<std::uint32_t>(payload_size);
  encode_header(h, bytes.data());
  return bytes;
}

}  // namespace

const char* busy_reason_name(busy_reason reason) noexcept {
  switch (reason) {
    case busy_reason::server_busy: return "server-busy";
    case busy_reason::connection_inflight: return "connection-inflight";
    case busy_reason::connection_bytes: return "connection-bytes";
    case busy_reason::draining: return "draining";
  }
  return "unknown";
}

const char* error_code_name(error_code code) noexcept {
  switch (code) {
    case error_code::malformed_frame: return "malformed-frame";
    case error_code::bad_version: return "bad-version";
    case error_code::bad_type: return "bad-type";
    case error_code::oversize_frame: return "oversize-frame";
    case error_code::decode_error: return "decode-error";
    case error_code::internal: return "internal";
  }
  return "unknown";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  static const crc_table table;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table.entries[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void encode_header(const frame_header& header, std::uint8_t* out) noexcept {
  store<std::uint32_t>(out, kMagic);
  out[4] = header.version;
  out[5] = static_cast<std::uint8_t>(header.type);
  out[6] = static_cast<std::uint8_t>(header.lane);
  out[7] = header.flags;
  store<std::uint64_t>(out + 8, header.request_id);
  store<std::uint32_t>(out + 16, header.payload_size);
  store<std::uint32_t>(out + 20, crc32(out, 20));
}

header_verdict decode_header(const std::uint8_t* data,
                             frame_header& out) noexcept {
  if (load<std::uint32_t>(data) != kMagic) return header_verdict::bad_magic;
  if (load<std::uint32_t>(data + 20) != crc32(data, 20)) {
    return header_verdict::bad_crc;
  }
  out.version = data[4];
  out.request_id = load<std::uint64_t>(data + 8);
  out.payload_size = load<std::uint32_t>(data + 16);
  if (out.version != kProtocolVersion) return header_verdict::bad_version;
  // The lane byte is validated here (it is enum-typed downstream). Only
  // kTraceFlag — and only on request frames — is defined in the flags byte;
  // anything else in it stays a typed rejection.
  out.flags = data[7];
  const bool flags_ok =
      (out.flags & ~kTraceFlag) == 0 &&
      (out.flags == 0 ||
       data[5] == static_cast<std::uint8_t>(frame_type::request));
  if (!valid_frame_type(data[5]) || data[6] > 1 || !flags_ok) {
    return header_verdict::bad_type;
  }
  out.type = static_cast<frame_type>(data[5]);
  out.lane = static_cast<serve::lane_class>(data[6]);
  return header_verdict::ok;
}

void encode_trace_context(const trace_context& ctx,
                          std::uint8_t* out) noexcept {
  store<std::uint64_t>(out, ctx.trace_id);
  store<std::uint64_t>(out + 8, ctx.parent_span);
}

trace_context decode_trace_context(const std::uint8_t* data) noexcept {
  trace_context ctx;
  ctx.trace_id = load<std::uint64_t>(data);
  ctx.parent_span = load<std::uint64_t>(data + 8);
  return ctx;
}

std::vector<std::uint8_t> encode_request(std::uint64_t request_id,
                                         const request_info& info,
                                         serve::lane_class lane,
                                         const data::trace_dataset& traces,
                                         const trace_context* trace) {
  const std::uint32_t shots = static_cast<std::uint32_t>(traces.size());
  const std::uint32_t samples =
      static_cast<std::uint32_t>(traces.samples_per_quadrature());
  const bool traced = trace != nullptr && trace->trace_id != 0;
  frame_header header;
  header.type = frame_type::request;
  header.lane = lane;
  header.request_id = request_id;
  if (traced) header.flags = kTraceFlag;
  std::vector<std::uint8_t> bytes = frame_with_payload(
      header, request_payload_size(shots, samples) +
                  (traced ? kTraceContextSize : 0));
  std::uint8_t* p = bytes.data() + kHeaderSize;
  if (traced) {
    encode_trace_context(*trace, p);
    p += kTraceContextSize;
  }
  store<std::uint32_t>(p, info.qubit);
  p[4] = static_cast<std::uint8_t>(info.engine);
  p[5] = p[6] = p[7] = 0;
  store<double>(p + 8, info.deadline_seconds);
  store<std::uint32_t>(p + 16, samples);
  store<std::uint32_t>(p + 20, shots);
  std::uint8_t* rows = p + kRequestPayloadHeaderSize;
  const std::size_t row_bytes = 2 * samples * sizeof(float);
  for (std::uint32_t r = 0; r < shots; ++r) {
    std::memcpy(rows + r * row_bytes, traces.trace(r).data(), row_bytes);
  }
  return bytes;
}

request_info decode_request_prefix(const std::uint8_t* p,
                                   std::size_t payload_size) {
  KLINQ_REQUIRE(payload_size >= kRequestPayloadHeaderSize,
                "net: request payload shorter than its fixed prefix");
  request_info info;
  info.qubit = load<std::uint32_t>(p);
  const std::uint8_t engine_raw = p[4];
  KLINQ_REQUIRE(engine_raw <= 1, "net: request names an unknown engine");
  KLINQ_REQUIRE(p[5] == 0 && p[6] == 0 && p[7] == 0,
                "net: request reserved bytes must be zero");
  info.engine = static_cast<serve::engine_kind>(engine_raw);
  info.deadline_seconds = load<double>(p + 8);
  KLINQ_REQUIRE(
      std::isfinite(info.deadline_seconds) && info.deadline_seconds >= 0.0,
      "net: request deadline must be finite and non-negative");
  info.samples_per_quadrature = load<std::uint32_t>(p + 16);
  info.shots = load<std::uint32_t>(p + 20);
  KLINQ_REQUIRE(info.shots == 0 || info.samples_per_quadrature > 0,
                "net: request has shots but zero samples per quadrature");
  // Divided, not multiplied: shots × row bytes can wrap 64 bits, and a
  // wrapped product must not pass for a small payload.
  const std::size_t samples = info.samples_per_quadrature;
  const std::size_t row_bytes = 2 * samples * sizeof(float);
  const std::size_t rows_bytes = payload_size - kRequestPayloadHeaderSize;
  KLINQ_REQUIRE(
      info.shots == 0 ? rows_bytes == 0
                      : rows_bytes % row_bytes == 0 &&
                            rows_bytes / row_bytes == info.shots,
      "net: request payload size disagrees with its shots × samples header");
  return info;
}

std::span<std::uint8_t> request_rows(const request_info& info,
                                     std::size_t shots,
                                     data::trace_dataset& traces) {
  KLINQ_REQUIRE(shots <= info.shots, "net: request_rows past the last shot");
  // This is the buffer the readout_request hands the shard scheduler, so the
  // payload lands exactly once, straight in serving memory.
  if (traces.samples_per_quadrature() != info.samples_per_quadrature) {
    traces = data::trace_dataset(shots, info.samples_per_quadrature);
  }
  traces.resize_traces_for_overwrite(shots);
  la::matrix_f& rows = traces.features();
  return {reinterpret_cast<std::uint8_t*>(rows.data()),
          rows.size() * sizeof(float)};
}

std::vector<std::uint8_t> encode_response(std::uint64_t request_id,
                                          const serve::readout_result& result) {
  const bool ok = result.status == serve::request_status::ok;
  const std::uint32_t shots =
      static_cast<std::uint32_t>(result.states.size());
  const std::size_t data_bytes =
      ok ? static_cast<std::size_t>(shots) * (1 + sizeof(float)) : 0;
  frame_header header;
  header.type = frame_type::response;
  header.request_id = request_id;
  std::vector<std::uint8_t> bytes =
      frame_with_payload(header, kResponsePayloadHeaderSize + data_bytes);
  std::uint8_t* p = bytes.data() + kHeaderSize;
  p[0] = static_cast<std::uint8_t>(result.status);
  p[1] = static_cast<std::uint8_t>(result.engine);
  p[2] = p[3] = 0;
  store<std::uint32_t>(p + 4, ok ? shots : 0);
  store<std::uint64_t>(p + 8, result.model_version);
  store<double>(p + 16, result.latency_seconds);
  if (ok) {
    std::uint8_t* states = p + kResponsePayloadHeaderSize;
    std::memcpy(states, result.states.data(), shots);
    std::uint8_t* values = states + shots;
    if (result.engine == serve::engine_kind::fixed_q16) {
      for (std::uint32_t r = 0; r < shots; ++r) {
        store<std::int32_t>(values + r * 4, result.registers[r].raw());
      }
    } else {
      std::memcpy(values, result.logits.data(),
                  static_cast<std::size_t>(shots) * sizeof(float));
    }
  }
  return bytes;
}

response_view decode_response(std::span<const std::uint8_t> payload) {
  KLINQ_REQUIRE(payload.size() >= kResponsePayloadHeaderSize,
                "net: response payload shorter than its fixed prefix");
  const std::uint8_t* p = payload.data();
  response_view view;
  KLINQ_REQUIRE(p[0] <= 3, "net: response carries an unknown status");
  KLINQ_REQUIRE(p[1] <= 1, "net: response carries an unknown engine");
  view.status = static_cast<serve::request_status>(p[0]);
  view.engine = static_cast<serve::engine_kind>(p[1]);
  view.shots = load<std::uint32_t>(p + 4);
  view.model_version = load<std::uint64_t>(p + 8);
  view.latency_seconds = load<double>(p + 16);
  const std::size_t data_bytes =
      static_cast<std::size_t>(view.shots) * (1 + sizeof(float));
  KLINQ_REQUIRE(payload.size() == kResponsePayloadHeaderSize + data_bytes,
                "net: response payload size disagrees with its shot count");
  if (view.shots > 0) {
    const std::uint8_t* states = p + kResponsePayloadHeaderSize;
    view.states.assign(states, states + view.shots);
    const std::uint8_t* values = states + view.shots;
    if (view.engine == serve::engine_kind::fixed_q16) {
      view.registers.resize(view.shots);
      for (std::uint32_t r = 0; r < view.shots; ++r) {
        view.registers[r] = load<std::int32_t>(values + r * 4);
      }
    } else {
      view.logits.resize(view.shots);
      std::memcpy(view.logits.data(), values,
                  static_cast<std::size_t>(view.shots) * sizeof(float));
    }
  }
  return view;
}

std::vector<std::uint8_t> encode_control(frame_type type,
                                         std::uint64_t request_id) {
  frame_header header;
  header.type = type;
  header.request_id = request_id;
  return frame_with_payload(header, 0);
}

std::vector<std::uint8_t> encode_busy(std::uint64_t request_id,
                                      busy_reason reason) {
  frame_header header;
  header.type = frame_type::busy;
  header.request_id = request_id;
  std::vector<std::uint8_t> bytes = frame_with_payload(header, 2);
  store<std::uint16_t>(bytes.data() + kHeaderSize,
                       static_cast<std::uint16_t>(reason));
  return bytes;
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       error_code code,
                                       const std::string& message) {
  frame_header header;
  header.type = frame_type::error;
  header.request_id = request_id;
  std::vector<std::uint8_t> bytes = frame_with_payload(header, 2 + message.size());
  store<std::uint16_t>(bytes.data() + kHeaderSize,
                       static_cast<std::uint16_t>(code));
  std::memcpy(bytes.data() + kHeaderSize + 2, message.data(), message.size());
  return bytes;
}

busy_reason decode_busy(std::span<const std::uint8_t> payload) {
  KLINQ_REQUIRE(payload.size() == 2, "net: busy payload must be 2 bytes");
  const std::uint16_t raw = load<std::uint16_t>(payload.data());
  KLINQ_REQUIRE(raw <= 3, "net: unknown busy reason");
  return static_cast<busy_reason>(raw);
}

error_view decode_error(std::span<const std::uint8_t> payload) {
  KLINQ_REQUIRE(payload.size() >= 2, "net: error payload shorter than its code");
  error_view view;
  const std::uint16_t raw = load<std::uint16_t>(payload.data());
  KLINQ_REQUIRE(raw <= 5, "net: unknown error code");
  view.code = static_cast<error_code>(raw);
  view.message.assign(reinterpret_cast<const char*>(payload.data()) + 2,
                      payload.size() - 2);
  return view;
}

}  // namespace klinq::net
