// klinq::net::client — minimal blocking client for the klinq wire protocol.
//
// Built for tests, the chaos smoke tool, and loopback benches, not as a
// production SDK: one socket, synchronous sends, and a read_frame() that
// blocks (bounded by a receive timeout) until one complete frame arrives.
// The raw send_bytes()/fd() escape hatches exist so the protocol fuzz tests
// can write arbitrary garbage and half-frames through a real connection.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "klinq/net/frame.hpp"
#include "klinq/obs/trace.hpp"

namespace klinq::net {

/// One received frame: the decoded header plus its raw payload bytes.
struct client_frame {
  frame_header header;
  std::vector<std::uint8_t> payload;
};

class client {
 public:
  /// Connects (blocking) to the front end. Throws invalid_argument_error on
  /// connection failure.
  client(const std::string& host, std::uint16_t port);
  ~client();

  client(const client&) = delete;
  client& operator=(const client&) = delete;
  client(client&& other) noexcept;
  client& operator=(client&& other) noexcept;

  /// Arms end-to-end wire tracing: every sampled send_request stamps a fresh
  /// trace_id + a client RTT span id into the frame's trace context, and
  /// the RTT span (category "client", covering send → reply) is recorded
  /// into `ring` when the reply arrives. `ring` is borrowed and must outlive
  /// the client; pass sample_rate in [0, 1] (deterministic head sampling).
  void enable_tracing(obs::trace_ring* ring, double sample_rate = 1.0);

  /// Arms keepalive: while blocked in read_frame()/read_reply(), a ping is
  /// sent every `interval_seconds` of wire silence, and a pong that misses
  /// its `timeout_seconds` deadline fails every pending request — the read
  /// throws io_error and the connection is closed (a half-dead server must
  /// not hold callers hostage until their own timeout). Keepalive pings use
  /// a reserved id space (top bit set) and their pongs are consumed
  /// internally, never surfaced to read_frame callers.
  void enable_keepalive(double interval_seconds, double timeout_seconds);

  /// Sends a request frame; returns the auto-assigned request id.
  std::uint64_t send_request(
      const request_info& info, const data::trace_dataset& traces,
      serve::lane_class lane = serve::lane_class::bulk);
  /// Sends a request frame with an explicit id (duplicate-id tests).
  void send_request_with_id(std::uint64_t request_id, const request_info& info,
                            const data::trace_dataset& traces,
                            serve::lane_class lane = serve::lane_class::bulk);
  void send_cancel(std::uint64_t request_id);
  void send_ping(std::uint64_t request_id);
  void send_goodbye();

  /// Raw bytes straight onto the socket — the fuzz tests' hostile-client
  /// primitive.
  void send_bytes(const std::uint8_t* data, std::size_t size);
  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    send_bytes(bytes.data(), bytes.size());
  }

  /// Blocks for the next complete frame. nullopt when the peer closed the
  /// connection or `timeout_seconds` elapsed first. Throws on a malformed
  /// header (the server never sends one).
  std::optional<client_frame> read_frame(double timeout_seconds = 5.0);

  /// Next reply (response, busy, or error) for `request_id`, skipping
  /// pongs/goodbyes. Replies for other ids encountered along the way are
  /// stashed and handed out by a later read_reply for their id, so replies
  /// may be collected in any order. nullopt on close/timeout.
  std::optional<client_frame> read_reply(std::uint64_t request_id,
                                         double timeout_seconds = 5.0);

  int fd() const noexcept { return fd_; }
  bool is_open() const noexcept { return fd_ >= 0; }
  void close();

 private:
  struct pending_trace {
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;   // the RTT span, parent of the server spans
    std::uint64_t start_us = 0;  // trace_clock_us() at send
  };

  void maybe_record_rtt(const client_frame& frame);

  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::vector<std::uint8_t> read_buffer_;
  std::vector<client_frame> stashed_replies_;  // out-of-order read_reply

  // Wire tracing (enable_tracing).
  obs::trace_ring* traces_ = nullptr;  // borrowed
  obs::trace_sampler sampler_{1.0};
  std::vector<pending_trace> pending_traces_;

  // Keepalive (enable_keepalive). awaiting_pong_id_ == 0 means no ping is
  // outstanding.
  double keepalive_interval_seconds_ = 0.0;
  double keepalive_timeout_seconds_ = 0.0;
  std::uint64_t next_ping_id_ = 0;
  std::uint64_t awaiting_pong_id_ = 0;
  std::chrono::steady_clock::time_point last_activity_at_{};
  std::chrono::steady_clock::time_point pong_deadline_{};
};

}  // namespace klinq::net
