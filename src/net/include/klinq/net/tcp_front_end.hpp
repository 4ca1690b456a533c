// klinq::net::tcp_front_end — the network-facing serving front end.
//
// Multiplexes many concurrent TCP client connections into one
// readout_server's submit/ticket machinery, designed around failure:
// hostile clients, partial frames, disconnects mid-request, and saturation
// are treated as the normal case.
//
// Threading: one loop thread, owned by the front end, polls the listen
// socket, every connection socket and a wake pipe, and handles what poll()
// reported in one turn:
//   1. reads: accepts (enforcing the connection cap: an over-cap connection
//      gets a best-effort busy frame and is closed at once), then reads each
//      readable connection until its socket is drained, parsing, admitting
//      and submitting requests as their frames complete. A request frame's
//      rows are read straight into a recycled trace buffer once its header
//      and fixed prefix are parsed; only the row bytes that arrived with the
//      header are copied. The buffer grows with the bytes that arrive (from
//      a read buffer's worth, doubling), never to the announced size at
//      once, and the spare buffers kept for reuse are bounded in bytes. A
//      prefix that does not decode has the rest of its frame skipped.
//   2. same-turn replies: a request that completed inside try_submit (a
//      small feedback request, or any request on a workerless pool) is
//      answered in the turn that admitted it, and that connection's replies
//      are flushed before the next connection is read;
//   3. one pool wake, where the loop thread may run on one CPU alone (a
//      process pinned to one CPU): the turn holds a
//      thread_pool::deferred_wake guard, so the bulk shards it submitted
//      wake the pool workers once, at its end, instead of preempting the
//      loop mid-turn. With spare CPUs a woken worker runs beside the loop,
//      and the wake is not deferred: a held shard would start up to one
//      turn later, which measured slower probes on 4 unpinned CPUs;
//   4. flush: finished tickets rung in by the doorbell become responses,
//      every write queue is flushed, and the idle/stall deadlines are
//      enforced.
// A connection's write queue is one contiguous byte buffer: each reply
// frame is appended to it, and a flush sends every pending byte with one
// send() (a turn that answers many requests on a connection makes one
// system call, not one per frame). The sent head is dropped when the buffer
// drains or passes half of it. A frame that would take the queue over
// max_write_queue_bytes is refused, with every later one, and the connection
// is evicted at the end of that turn; a refused response counts as a
// dropped result, not a sent one.
// No other thread touches a socket.
//
// Locking: one mutex, `state_mutex`, guards connections and the ticket map.
// The loop holds it around all of a turn's event handling and releases it
// across poll(); stats(), connections() and shutdown() take it between
// turns. The completion doorbell (the server's on_complete) runs on
// whichever thread finished the request and never takes state_mutex: it
// fires the net.complete fault site, appends the ticket id to a small
// mutex-guarded vector and writes a wake byte. The loop consumes that vector
// after reads and hangups, so a ticket is always registered before its
// completion is processed, and a departed client's result is dropped rather
// than queued. A same-turn reply keeps that contract: with a fault armed it
// fires net.complete off the lock, then checks its connection for a hangup
// and drops the result, counted, if the client left.
//
// Robustness contracts (each has a test in tests/test_net.cpp and a chaos
// scenario in `klinq_serve --listen --chaos`):
//   * Admission: per-connection inflight and payload-byte quotas, a
//     server-wide inflight budget with a reserve only the feedback lane may
//     use, all on top of the serve layer's own max_inflight. Rejection is an
//     explicit retriable `busy` frame — never an unbounded queue.
//   * Malformed frames (bad magic/CRC/version/type, oversize length,
//     undecodable payload) kill exactly the offending connection with a
//     typed error frame; the server and every other connection keep going.
//   * Slow clients: read-idle and write-stall deadlines plus a bounded
//     write queue; a slow-loris connection is evicted, its tickets
//     reconciled like a disconnect.
//   * Disconnect reconciliation: every in-flight ticket of a dead
//     connection is cancelled through the server's cancel() path and its
//     result claimed and dropped (counted) by the loop — tickets are never
//     leaked, so ticket accounting reconciles exactly.
//   * Graceful drain: stop accepting → shed new requests (busy/draining) →
//     resolve every in-flight ticket → flush write queues → goodbye frames
//     → close. Bounded by drain_timeout_seconds, then force-cancel.
//
// Fault sites compiled into this path: net.accept, net.read, net.write,
// net.decode, net.complete (see klinq/fault/fault.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/serve/readout_server.hpp"

namespace klinq::net {

struct front_end_config {
  /// Listen address; loopback by default (tests, benches, the smoke tool).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Listen backlog handed to ::listen.
  int listen_backlog = 64;
  /// Connection cap: accepts beyond it are answered with a busy frame and
  /// closed. Must be positive.
  std::size_t max_connections = 64;
  /// Per-connection inflight request quota. Must be positive.
  std::size_t max_inflight_per_connection = 16;
  /// Per-connection inflight payload byte budget (the decoded trace bytes a
  /// connection may have unresolved at once). Must be positive.
  std::size_t max_inflight_bytes_per_connection = std::size_t{64} << 20;
  /// Server-wide network inflight budget (across all connections), on top
  /// of the serve layer's own max_inflight. Must be positive.
  std::size_t max_inflight = 256;
  /// Slots of max_inflight only feedback-lane requests may use: bulk is
  /// admitted while net inflight < max_inflight - feedback_reserve, so a
  /// saturating bulk client cannot starve the feedback lane's admission.
  /// Must be < max_inflight.
  std::size_t feedback_reserve = 0;
  /// Evict a connection that has an unfinished frame (or nothing at all)
  /// and sends no bytes for this long — the slow-loris defense. 0 disables.
  double read_idle_seconds = 0.0;
  /// Evict a connection whose write queue makes no progress for this long
  /// (a reader that stopped reading). 0 disables.
  double write_stall_seconds = 0.0;
  /// Bound on a connection's queued unsent bytes; exceeding it evicts (a
  /// client not draining responses must not grow server memory). Must be
  /// positive.
  std::size_t max_write_queue_bytes = std::size_t{16} << 20;
  /// Frames whose header announces a payload above this are answered with
  /// an oversize error and the connection closed. Must be positive.
  std::size_t max_frame_payload = std::size_t{64} << 20;
  /// shutdown(): how long to wait for in-flight tickets and write queues
  /// before force-cancelling. Must be finite and non-negative.
  double drain_timeout_seconds = 5.0;
  /// Poll readiness timeout (granularity of the idle/stall deadlines).
  /// Must be positive.
  double poll_interval_seconds = 0.05;
  /// Metrics backend (borrowed; must outlive the front end). Null gives the
  /// front end a private registry.
  obs::metric_registry* metrics = nullptr;
  /// Distributed-tracing sink (borrowed; must outlive the front end). When
  /// set and armed, requests arriving with a trace context get
  /// net.read/net.decode/net.admit/net.write spans recorded here (same
  /// trace_clock_us timeline as the serve spans). Null or disarmed: the
  /// per-frame cost is one relaxed load.
  obs::trace_ring* traces = nullptr;

  /// Throws invalid_argument_error on any inconsistent field.
  void validate() const;

  /// `base` with environment overrides applied: KLINQ_LISTEN ("host:port"
  /// or a bare port) sets bind_address/port, and each KLINQ_NET_* variable
  /// (MAX_CONNECTIONS, MAX_INFLIGHT, MAX_INFLIGHT_PER_CONNECTION,
  /// MAX_INFLIGHT_BYTES_PER_CONNECTION, FEEDBACK_RESERVE, READ_IDLE_SECONDS,
  /// WRITE_STALL_SECONDS, MAX_WRITE_QUEUE_BYTES, MAX_FRAME_PAYLOAD,
  /// DRAIN_TIMEOUT_SECONDS) overrides the matching field. Throws
  /// invalid_argument_error on an unparsable value, naming the variable.
  static front_end_config from_env(front_end_config base);
  /// from_env applied to a default-constructed config.
  static front_end_config from_env();
};

/// Point-in-time counters (a view over the labeled metric cells).
struct front_end_stats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over the connection cap
  std::uint64_t connections_closed = 0;    // all removals, evictions included
  std::uint64_t connections_evicted = 0;   // slow-loris / write-stall / quota
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t malformed_frames = 0;
  // completions for departed clients, or refused at the write-queue bound
  std::uint64_t results_dropped = 0;
  std::uint64_t cancels_received = 0;
  std::uint64_t pings_received = 0;
  std::uint64_t pongs_sent = 0;
  std::size_t open_connections = 0;
  std::size_t inflight = 0;

  /// Throws invalid_argument_error when the counters are mutually
  /// inconsistent — the reconciliation check the chaos harness runs.
  void validate() const;
};

/// Point-in-time view of one live connection (the /statusz table).
struct connection_info {
  std::uint64_t id = 0;
  std::size_t inflight = 0;
  std::size_t inflight_bytes = 0;
  std::size_t write_queue_bytes = 0;
  /// Requests admitted on this connection, by lane.
  std::uint64_t admitted_bulk = 0;
  std::uint64_t admitted_feedback = 0;
  double age_seconds = 0.0;
  /// Seconds since the last byte arrived from the client.
  double idle_seconds = 0.0;
  bool closing = false;
};

class tcp_front_end {
 public:
  /// Binds, listens, installs the server's completion doorbell, and starts
  /// the loop thread. The server is borrowed and must outlive the front
  /// end; the front end must be its only ticket consumer while running (it
  /// installs server.set_on_complete, so the server must have no unresolved
  /// tickets and no other on_complete user). A constructor that throws (a
  /// taken port, a busy server) leaves no open descriptor, no doorbell in
  /// the server and no collector in the metric registry.
  tcp_front_end(serve::readout_server& server, front_end_config config = {});

  /// shutdown() if still serving.
  ~tcp_front_end();

  tcp_front_end(const tcp_front_end&) = delete;
  tcp_front_end& operator=(const tcp_front_end&) = delete;

  /// The bound TCP port (the ephemeral one when config.port was 0).
  std::uint16_t port() const noexcept;

  /// Graceful drain and stop (idempotent): stop accepting, shed new
  /// requests, resolve every in-flight ticket (bounded by
  /// drain_timeout_seconds, then force-cancel), flush write queues, send
  /// goodbye frames, close every connection, join the loop thread, and
  /// uninstall the server doorbell.
  void shutdown();

  front_end_stats stats() const;

  /// Live per-connection table (unordered); the /statusz data source.
  std::vector<connection_info> connections() const;

  /// True while shutdown() is shedding new work (the /healthz drain signal).
  bool draining() const noexcept;

  /// The metric registry backing the klinq_net_* families.
  const obs::metric_registry& metrics() const noexcept;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace klinq::net
