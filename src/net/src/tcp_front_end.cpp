#include "klinq/net/tcp_front_end.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
// The kernel header defines struct sched_param, as glibc does: rename its copy.
#define sched_param linux_sched_param
#include <linux/sched/types.h>
#undef sched_param
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/fault/fault.hpp"
#include "klinq/net/frame.hpp"

namespace klinq::net {

void front_end_config::validate() const {
  KLINQ_REQUIRE(!bind_address.empty(),
                "front_end_config: bind_address must not be empty");
  KLINQ_REQUIRE(listen_backlog > 0,
                "front_end_config: listen_backlog must be positive");
  KLINQ_REQUIRE(max_connections > 0,
                "front_end_config: max_connections must be positive");
  KLINQ_REQUIRE(
      max_inflight_per_connection > 0,
      "front_end_config: max_inflight_per_connection must be positive");
  KLINQ_REQUIRE(
      max_inflight_bytes_per_connection > 0,
      "front_end_config: max_inflight_bytes_per_connection must be positive");
  KLINQ_REQUIRE(max_inflight > 0,
                "front_end_config: max_inflight must be positive");
  KLINQ_REQUIRE(feedback_reserve < max_inflight,
                "front_end_config: feedback_reserve must leave at least one "
                "slot for the bulk lane");
  KLINQ_REQUIRE(std::isfinite(read_idle_seconds) && read_idle_seconds >= 0.0,
                "front_end_config: read_idle_seconds must be finite and "
                "non-negative");
  KLINQ_REQUIRE(
      std::isfinite(write_stall_seconds) && write_stall_seconds >= 0.0,
      "front_end_config: write_stall_seconds must be finite and non-negative");
  KLINQ_REQUIRE(max_write_queue_bytes > 0,
                "front_end_config: max_write_queue_bytes must be positive");
  KLINQ_REQUIRE(max_frame_payload >= kRequestPayloadHeaderSize,
                "front_end_config: max_frame_payload cannot admit even an "
                "empty request");
  KLINQ_REQUIRE(
      std::isfinite(drain_timeout_seconds) && drain_timeout_seconds >= 0.0,
      "front_end_config: drain_timeout_seconds must be finite and "
      "non-negative");
  KLINQ_REQUIRE(
      std::isfinite(poll_interval_seconds) && poll_interval_seconds > 0.0,
      "front_end_config: poll_interval_seconds must be finite and positive");
}

void front_end_stats::validate() const {
  KLINQ_REQUIRE(connections_closed <= connections_accepted,
                "front_end_stats: closed more connections than accepted");
  KLINQ_REQUIRE(connections_evicted <= connections_closed,
                "front_end_stats: evictions exceed closes");
  KLINQ_REQUIRE(open_connections ==
                    connections_accepted - connections_closed,
                "front_end_stats: open connections disagree with "
                "accepted - closed");
  // The exact-reconciliation invariant the chaos harness exists to prove:
  // every admitted request is either answered, dropped for a departed
  // client, or still in flight — no fourth bucket, no leaks.
  KLINQ_REQUIRE(responses_sent + results_dropped + inflight ==
                    requests_admitted,
                "front_end_stats: ticket accounting does not reconcile "
                "(admitted != responses + dropped + inflight)");
  // (malformed_frames is deliberately NOT bounded by frames_received:
  // frames_received counts only well-formed frames, while a malformed
  // header is rejected before it ever counts as received.)
  KLINQ_REQUIRE(cancels_received <= frames_received,
                "front_end_stats: cancel frames exceed frames received");
  KLINQ_REQUIRE(pings_received <= frames_received,
                "front_end_stats: ping frames exceed frames received");
  // Every received ping queues exactly one pong (even on a connection that
  // is already flushing toward close).
  KLINQ_REQUIRE(pongs_sent == pings_received,
                "front_end_stats: pongs sent disagree with pings received");
}

namespace {

std::uint64_t parse_env_u64(const char* name, const char* value) {
  try {
    std::size_t consumed = 0;
    const std::uint64_t parsed = std::stoull(value, &consumed);
    KLINQ_REQUIRE(consumed == std::strlen(value), "trailing garbage");
    return parsed;
  } catch (const std::exception&) {
    throw invalid_argument_error(std::string(name) + ": '" + value +
                                 "' is not a valid unsigned integer");
  }
}

double parse_env_seconds(const char* name, const char* value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    KLINQ_REQUIRE(consumed == std::strlen(value), "trailing garbage");
    return parsed;
  } catch (const std::exception&) {
    throw invalid_argument_error(std::string(name) + ": '" + value +
                                 "' is not a valid number of seconds");
  }
}

}  // namespace

front_end_config front_end_config::from_env() {
  return from_env(front_end_config{});
}

front_end_config front_end_config::from_env(front_end_config base) {
  if (const char* listen = std::getenv("KLINQ_LISTEN")) {
    const std::string spec(listen);
    const std::size_t colon = spec.rfind(':');
    std::string port_text = spec;
    if (colon != std::string::npos) {
      const std::string host = spec.substr(0, colon);
      if (!host.empty()) base.bind_address = host;
      port_text = spec.substr(colon + 1);
    }
    const std::uint64_t port =
        parse_env_u64("KLINQ_LISTEN", port_text.c_str());
    KLINQ_REQUIRE(port <= 65535, "KLINQ_LISTEN: port out of range");
    base.port = static_cast<std::uint16_t>(port);
  }
  const auto read_size = [](const char* name, std::size_t& field) {
    if (const char* value = std::getenv(name)) {
      field = static_cast<std::size_t>(parse_env_u64(name, value));
    }
  };
  const auto read_seconds = [](const char* name, double& field) {
    if (const char* value = std::getenv(name)) {
      field = parse_env_seconds(name, value);
    }
  };
  read_size("KLINQ_NET_MAX_CONNECTIONS", base.max_connections);
  read_size("KLINQ_NET_MAX_INFLIGHT", base.max_inflight);
  read_size("KLINQ_NET_MAX_INFLIGHT_PER_CONNECTION",
            base.max_inflight_per_connection);
  read_size("KLINQ_NET_MAX_INFLIGHT_BYTES_PER_CONNECTION",
            base.max_inflight_bytes_per_connection);
  read_size("KLINQ_NET_FEEDBACK_RESERVE", base.feedback_reserve);
  read_seconds("KLINQ_NET_READ_IDLE_SECONDS", base.read_idle_seconds);
  read_seconds("KLINQ_NET_WRITE_STALL_SECONDS", base.write_stall_seconds);
  read_size("KLINQ_NET_MAX_WRITE_QUEUE_BYTES", base.max_write_queue_bytes);
  read_size("KLINQ_NET_MAX_FRAME_PAYLOAD", base.max_frame_payload);
  read_seconds("KLINQ_NET_DRAIN_TIMEOUT_SECONDS", base.drain_timeout_seconds);
  return base;
}

namespace {

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort — latency tuning, not correctness.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Set on the loop thread while try_submit runs: a doorbell that rings there
/// belongs to a request that completed inline, and is answered in the same
/// turn instead of through the wake pipe.
struct inline_completion {
  const void* front_end = nullptr;
  std::optional<std::uint64_t> ticket_id;
};
thread_local inline_completion* t_inline_completion = nullptr;

/// Size of a connection's read buffer: frame headers, small frames and the
/// first bytes of a request payload land there. The rest of a request's rows
/// is read straight into its trace buffer.
constexpr std::size_t kReadBufferBytes = std::size_t{64} << 10;

/// Answered requests' trace buffers kept for reuse: at most this many, of at
/// most this much sample storage in all; a buffer beyond either is freed when
/// its request is answered.
constexpr std::size_t kSpareTraceBuffers = 16;
constexpr std::size_t kSpareTraceBytes = std::size_t{16} << 20;

/// Bytes of sample storage a trace buffer holds without reallocating.
std::size_t capacity_bytes(const data::trace_dataset& traces) noexcept {
  return traces.features().capacity() * sizeof(float);
}

/// Asks the kernel for the shortest fair-scheduler slice (0.1 ms) for the
/// calling thread, keeping its policy and nice value. The result is ignored.
void request_short_slice() {
  sched_attr attr{};
  attr.size = sizeof(attr);
  attr.sched_policy = SCHED_OTHER;
  attr.sched_nice = ::getpriority(PRIO_PROCESS, 0);
  attr.sched_runtime = 100000;
  [[maybe_unused]] const long rc = ::syscall(SYS_sched_setattr, 0, &attr, 0);
}

/// True when the calling thread may run on one CPU only, as in a process
/// pinned to one CPU: a pool worker woken there takes that CPU from its
/// waker. With more CPUs a woken worker can run beside the waker.
bool confined_to_one_cpu() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  return ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 &&
         CPU_COUNT(&cpus) == 1;
}

/// A file descriptor closed on destruction, so a constructor that throws
/// after opening its sockets leaks none of them.
struct owned_fd {
  int fd = -1;
  owned_fd() = default;
  owned_fd(const owned_fd&) = delete;
  owned_fd& operator=(const owned_fd&) = delete;
  ~owned_fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

struct tcp_front_end::impl {
  /// A request frame from its parsed prefix to its last byte.
  struct request_frame {
    frame_header header;
    trace_context tctx;
    /// The request payload's size (trace context excluded): what the byte
    /// budget counts.
    std::size_t payload_bytes = 0;
    request_info info;
    /// The dataset the rows are read straight into. Null when the prefix did
    /// not decode (`error` says why): the rest of the frame is skipped.
    std::unique_ptr<data::trace_dataset> traces;
    std::string error;
    /// The row storage shaped so far: whole rows, grown as bytes arrive.
    std::span<std::uint8_t> rows;
    /// The frame's bytes after its prefix (the rows, or the bytes to skip),
    /// and how many of them have arrived.
    std::size_t rows_total = 0;
    std::size_t rows_filled = 0;
  };

  // One client connection, owned by the loop thread (stats() and
  // connections() read it under state_mutex).
  struct connection {
    int fd = -1;
    std::uint64_t id = 0;
    /// Unparsed bytes are read_buffer[read_begin, read_end).
    std::vector<std::uint8_t> read_buffer;
    std::size_t read_begin = 0;
    std::size_t read_end = 0;
    /// The request whose prefix is parsed and whose rows are still arriving.
    std::optional<request_frame> body;
    std::deque<std::vector<std::uint8_t>> write_queue;
    std::size_t write_queue_bytes = 0;
    std::size_t write_offset = 0;  // sent bytes of write_queue.front()
    std::size_t inflight = 0;
    std::size_t inflight_bytes = 0;
    /// request_id → ticket id (a duplicate request_id overwrites; cancel
    /// then targets the most recent).
    std::unordered_map<std::uint64_t, std::uint64_t> requests;
    double last_read_at = 0.0;
    double last_write_progress_at = 0.0;
    double accepted_at = 0.0;
    /// Protocol version of the first frame this client sent; every outbound
    /// frame echoes it (0 = nothing received yet → current version).
    std::uint8_t version = 0;
    /// Requests admitted on this connection, by lane (the /statusz mix).
    std::array<std::uint64_t, 2> lane_admitted{};
    /// Protocol violation or client goodbye: stop reading, flush the write
    /// queue (error/goodbye frame included), then close.
    bool closing = false;
    /// closing was an eviction/violation (for the evicted counter).
    bool evict = false;
    // --- wire tracing (sampled requests only) ----------------------------
    /// trace_clock_us() when the current socket-read batch started — the
    /// start of the net.read span for any traced request it completes.
    std::uint64_t read_batch_start_us = 0;
    /// Cumulative queued/flushed byte counters: a net.write span completes
    /// when flushed_bytes_total reaches the target stamped at queue time.
    std::uint64_t queued_bytes_total = 0;
    std::uint64_t flushed_bytes_total = 0;
    struct write_span {
      std::uint64_t trace_id = 0;
      std::uint64_t parent_span = 0;
      std::uint64_t start_us = 0;
      std::uint64_t target = 0;  // queued_bytes_total to reach
    };
    std::vector<write_span> write_spans;  // dropped on close, unemitted
  };

  /// One admitted network request: who to answer, and the decoded trace
  /// buffer the serve layer is borrowing (owned here until completion).
  struct inflight_ticket {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    std::size_t payload_bytes = 0;
    serve::engine_kind engine = serve::engine_kind::fixed_q16;
    serve::lane_class lane = serve::lane_class::bulk;
    std::unique_ptr<data::trace_dataset> traces;
    /// Wire trace context (trace_id 0 = untraced) — carried through to the
    /// completion path so the net.write span joins the same trace.
    std::uint64_t trace_id = 0;
    std::uint64_t trace_parent = 0;
  };

  serve::readout_server& server;
  front_end_config config;
  std::unique_ptr<obs::metric_registry> owned_metrics;
  obs::metric_registry* metrics = nullptr;

  owned_fd listen_fd;
  std::uint16_t bound_port = 0;
  owned_fd wake_read;  // loop wakeup (doorbell, shutdown)
  owned_fd wake_write;

  stopwatch clock;
  std::atomic<bool> draining{false};
  std::atomic<bool> stopping{false};
  bool shut_down = false;  // shutdown() ran to completion (main thread only)

  // --- state_mutex domain ------------------------------------------------
  mutable std::mutex state_mutex;
  /// The loop thread's hold on state_mutex (loop thread only).
  std::unique_lock<std::mutex> turn_lock{state_mutex, std::defer_lock};
  std::uint64_t next_conn_id = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<connection>> conns;
  std::unordered_map<std::uint64_t, inflight_ticket> tickets;
  /// Trace buffers of answered requests, reused by the next ones, and their
  /// total capacity_bytes.
  std::vector<std::unique_ptr<data::trace_dataset>> spare_traces;
  std::size_t spare_bytes = 0;

  // --- the doorbell's hand-off (never nested in state_mutex) -------------
  std::mutex done_mutex;
  std::vector<std::uint64_t> done_ids;  // finished tickets, not yet consumed

  // --- metric cells (pre-resolved; recording is lock-free) ---------------
  obs::counter* accepted_cell = nullptr;
  obs::counter* rejected_cell = nullptr;
  obs::counter* closed_cell = nullptr;
  obs::counter* evicted_cell = nullptr;
  obs::counter* frames_in_cell = nullptr;
  obs::counter* frames_out_cell = nullptr;
  obs::counter* bytes_in_cell = nullptr;
  obs::counter* bytes_out_cell = nullptr;
  obs::counter* admitted_cell = nullptr;
  obs::counter* responses_cell = nullptr;
  obs::counter* dropped_cell = nullptr;
  obs::counter* cancels_cell = nullptr;
  obs::counter* pings_cell = nullptr;
  obs::counter* pongs_cell = nullptr;
  std::array<obs::counter*, 4> shed_cells{};       // by busy_reason
  std::array<obs::counter*, 6> malformed_cells{};  // by error_code
  obs::gauge* open_conns_cell = nullptr;
  obs::gauge* inflight_cell = nullptr;
  std::array<obs::log_histogram*, 2> lane_seconds{};  // by lane_class
  std::uint64_t collector_id = 0;

  std::thread poll_thread;  // last: it uses every member above

  explicit impl(serve::readout_server& srv, front_end_config cfg)
      : server(srv), config(std::move(cfg)) {
    config.validate();
    open_sockets();
    init_metrics();
    // Last, once a taken port or a bad config can no longer throw: only now
    // may the server and the registry hold pointers into this impl. A server
    // with unresolved tickets throws here, before anything is registered.
    server.set_on_complete(
        [this](serve::ticket t, serve::request_status) { doorbell(t.id); });
    try {
      // Pull collector: every snapshot() re-derives the two gauges from the
      // authoritative maps, so the scraped families cannot drift from the
      // front end's own accounting (collectors run outside registry locks,
      // so taking state_mutex here is cycle-free).
      collector_id = metrics->add_collector([this] {
        const std::lock_guard lock(state_mutex);
        open_conns_cell->set(static_cast<double>(conns.size()));
        inflight_cell->set(static_cast<double>(tickets.size()));
      });
      poll_thread = std::thread([this] { poll_loop(); });
    } catch (...) {
      if (collector_id != 0) metrics->remove_collector(collector_id);
      server.set_on_complete({});
      throw;
    }
  }

  void init_metrics() {
    if (config.metrics != nullptr) {
      metrics = config.metrics;
    } else {
      owned_metrics = std::make_unique<obs::metric_registry>();
      metrics = owned_metrics.get();
    }
    obs::metric_registry& m = *metrics;
    const char* conn_help = "Connection lifecycle events";
    accepted_cell = &m.get_counter("klinq_net_connections_total",
                                   {{"event", "accepted"}}, conn_help);
    rejected_cell = &m.get_counter("klinq_net_connections_total",
                                   {{"event", "rejected"}}, conn_help);
    closed_cell = &m.get_counter("klinq_net_connections_total",
                                 {{"event", "closed"}}, conn_help);
    evicted_cell = &m.get_counter("klinq_net_connections_total",
                                  {{"event", "evicted"}}, conn_help);
    frames_in_cell = &m.get_counter("klinq_net_frames_total",
                                    {{"dir", "in"}}, "Frames by direction");
    frames_out_cell = &m.get_counter("klinq_net_frames_total",
                                     {{"dir", "out"}}, "Frames by direction");
    bytes_in_cell = &m.get_counter("klinq_net_bytes_total", {{"dir", "in"}},
                                   "Socket bytes by direction");
    bytes_out_cell = &m.get_counter("klinq_net_bytes_total", {{"dir", "out"}},
                                    "Socket bytes by direction");
    admitted_cell = &m.get_counter("klinq_net_requests_admitted_total", {},
                                   "Request frames admitted into the server");
    responses_cell = &m.get_counter("klinq_net_responses_total", {},
                                    "Response frames queued to clients");
    dropped_cell =
        &m.get_counter("klinq_net_results_dropped_total", {},
                       "Completed results dropped because the client left");
    cancels_cell = &m.get_counter("klinq_net_cancels_total", {},
                                  "Cancel frames received");
    pings_cell = &m.get_counter("klinq_net_pings_received_total", {},
                                "Ping frames received (client keepalive)");
    pongs_cell = &m.get_counter("klinq_net_pongs_sent_total", {},
                                "Pong frames queued in answer to pings");
    for (std::size_t r = 0; r < shed_cells.size(); ++r) {
      shed_cells[r] = &m.get_counter(
          "klinq_net_shed_total",
          {{"reason", busy_reason_name(static_cast<busy_reason>(r))}},
          "Requests shed with a retriable busy frame, by reason");
    }
    for (std::size_t c = 0; c < malformed_cells.size(); ++c) {
      malformed_cells[c] = &m.get_counter(
          "klinq_net_malformed_frames_total",
          {{"reason", error_code_name(static_cast<error_code>(c))}},
          "Protocol violations that closed the offending connection");
    }
    open_conns_cell = &m.get_gauge("klinq_net_open_connections", {},
                                   "Currently open client connections");
    inflight_cell = &m.get_gauge("klinq_net_inflight", {},
                                 "Admitted requests not yet answered");
    for (std::size_t l = 0; l < lane_seconds.size(); ++l) {
      lane_seconds[l] = &m.get_histogram(
          "klinq_net_request_seconds",
          {{"lane", serve::lane_name(static_cast<serve::lane_class>(l))}},
          "Admission to response-queued latency, by latency class");
    }
  }

  void open_sockets() {
    int pipe_fds[2];
    KLINQ_REQUIRE(::pipe2(pipe_fds, O_NONBLOCK) == 0, "net: pipe() failed");
    wake_read.fd = pipe_fds[0];
    wake_write.fd = pipe_fds[1];
    listen_fd.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    KLINQ_REQUIRE(listen_fd.fd >= 0, "net: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    KLINQ_REQUIRE(
        ::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) == 1,
        "net: bind_address is not a valid IPv4 address");
    KLINQ_REQUIRE(::bind(listen_fd.fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "net: bind() failed (port in use?)");
    KLINQ_REQUIRE(::listen(listen_fd.fd, config.listen_backlog) == 0,
                  "net: listen() failed");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    KLINQ_REQUIRE(::getsockname(listen_fd.fd,
                                reinterpret_cast<sockaddr*>(&bound), &len) == 0,
                  "net: getsockname() failed");
    bound_port = ntohs(bound.sin_port);
  }

  // --- doorbell (runs on whichever thread finished the request) ----------

  void doorbell(std::uint64_t ticket_id) {
    inline_completion* caught = t_inline_completion;
    if (caught != nullptr && caught->front_end == this && !caught->ticket_id) {
      // Ran inline inside try_submit (a small feedback request, or a
      // workerless pool): handle_request answers it in this turn.
      caught->ticket_id = ticket_id;
      return;
    }
    fire_complete_site();
    enqueue_done(ticket_id);
  }

  /// The net.complete site. A doorbell fires it on the completing thread, so
  /// delay mode stalls only the response path while admission quotas fill —
  /// deterministic fodder for the shedding tests. A same-turn reply fires it
  /// on the loop thread, off the lock.
  static void fire_complete_site() {
    try {
      fault::trigger("net.complete");
    } catch (const std::exception&) {
      // A throwing completion site must not lose the ticket.
    }
  }

  /// Hands a finished ticket to the loop's next turn.
  void enqueue_done(std::uint64_t ticket_id) {
    bool first = false;
    {
      const std::lock_guard lock(done_mutex);
      first = done_ids.empty();
      done_ids.push_back(ticket_id);
    }
    // A non-empty vector already has a wake byte in flight: the loop drains
    // the pipe before it swaps the vector out.
    if (first) wake_poll();
  }

  void wake_poll() {
    const std::uint8_t byte = 1;
    // The pipe being full is fine: a queued byte already guarantees a wake.
    [[maybe_unused]] const ssize_t n = ::write(wake_write.fd, &byte, 1);
  }

  // --- wire tracing -------------------------------------------------------

  /// The armed ring, or null — the hot-path gate (one relaxed load).
  obs::trace_ring* trace_sink() const noexcept {
    return config.traces != nullptr && config.traces->armed() ? config.traces
                                                              : nullptr;
  }

  /// Outbound frames echo the version the client spoke first.
  static std::uint8_t conn_version(const connection& conn) noexcept {
    return conn.version != 0 ? conn.version : kProtocolVersion;
  }

  static void record_net_span(obs::trace_ring& ring, std::uint64_t trace_id,
                              std::uint64_t parent, const char* name,
                              std::uint64_t start_us, std::uint64_t end_us) {
    obs::trace_span span;
    span.trace_id = trace_id;
    span.span_id = ring.next_span_id();
    span.parent_span = parent;
    span.start_us = start_us;
    span.duration_us = end_us > start_us ? end_us - start_us : 0;
    span.name = name;
    span.category = "net";
    ring.record(std::move(span));
  }

  // --- the loop thread ----------------------------------------------------
  //
  // Every handler from poll_loop() down to the shutdown section runs with
  // state_mutex held: the loop takes it once per turn, around all event
  // handling, and releases it across poll() (and, with a fault armed, across
  // a same-turn reply's net.complete site).

  void poll_loop() {
    std::vector<pollfd> pfds;
    std::vector<connection*> pfd_conns;  // pfds[i + 2] watches pfd_conns[i]
    std::vector<std::uint64_t> done;
    const int timeout_ms =
        std::max(1, static_cast<int>(config.poll_interval_seconds * 1000.0));
    // Small feedback requests run on this thread (try_submit). A short slice
    // gives it an earlier EEVDF deadline on wake-up (kernels >= 6.12), so it
    // preempts a running bulk shard sooner at the same CPU share; older
    // kernels ignore the request.
    request_short_slice();
    // Where the pool's workers share this thread's only CPU, a worker woken
    // mid-turn preempts the loop before it has answered what it holds: the
    // turn then wakes the pool once, at its end. With spare CPUs the wake is
    // not deferred; there the deferral measured slower probes (the CPU mask
    // is read once, when the loop starts).
    const bool one_wake_per_turn = confined_to_one_cpu();
    turn_lock.lock();
    // shutdown() sets stopping only after its bounded flush window, so
    // leaving at once cannot strand a flushable write queue.
    while (!stopping.load(std::memory_order_relaxed)) {
      pfds.assign({{wake_read.fd, POLLIN, 0}, {listen_fd.fd, POLLIN, 0}});
      pfd_conns.clear();
      for (auto& [id, conn] : conns) {
        short events = conn->closing ? 0 : POLLIN;
        if (!conn->write_queue.empty()) events |= POLLOUT;
        if (events == 0) events = POLLERR;  // still watch for hangup
        pfds.push_back({conn->fd, events, 0});
        pfd_conns.push_back(conn.get());
      }
      turn_lock.unlock();
      ::poll(pfds.data(), pfds.size(), timeout_ms);
      if (pfds[0].revents & POLLIN) {
        std::uint8_t drain_buf[64];
        while (::read(wake_read.fd, drain_buf, sizeof(drain_buf)) > 0) {
        }
      }
      turn_lock.lock();
      std::optional<thread_pool::deferred_wake> one_wake;
      if (one_wake_per_turn) one_wake.emplace(global_thread_pool());
      if (pfds[1].revents & POLLIN) accept_connections();
      // Only this thread adds or removes connections, so each pointer stays
      // valid until its own handler closes it.
      for (std::size_t i = 0; i < pfd_conns.size(); ++i) {
        connection& conn = *pfd_conns[i];
        const short revents = pfds[i + 2].revents;
        if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
          close_connection(conn);
        } else if (revents & POLLIN) {
          // The replies answered in this turn go out before the next
          // connection is read.
          if (handle_readable(conn) && !conn.write_queue.empty() &&
              !flush_writes(conn)) {
            conn.evict = true;
            close_connection(conn);
          }
        }
      }
      // Completions drain after the hangups, so a departed client's result
      // is dropped (counted), not queued.
      {
        const std::lock_guard done_lock(done_mutex);
        done.swap(done_ids);
      }
      for (const std::uint64_t ticket_id : done) process_completion(ticket_id);
      done.clear();
      flush_and_reap();
    }
    // Exiting: close every remaining socket (tickets were reconciled by
    // shutdown before stopping was set).
    for (auto& [id, conn] : conns) {
      ::close(conn->fd);
      closed_cell->inc();
      if (conn->evict) evicted_cell->inc();
    }
    conns.clear();
    open_conns_cell->set(0.0);
    turn_lock.unlock();
  }

  /// Accepts until the backlog is empty. Over the connection cap (or while
  /// draining) a connection gets a busy frame and is closed at once.
  void accept_connections() {
    for (;;) {
      const int fd = ::accept4(listen_fd.fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // EAGAIN: the backlog is drained
      }
      try {
        fault::trigger("net.accept");
      } catch (const std::exception&) {
        ::close(fd);  // a flaky accept: the connection never registers
        rejected_cell->inc();
        continue;
      }
      const bool drain = draining.load(std::memory_order_relaxed);
      if (drain || conns.size() >= config.max_connections) {
        const busy_reason reason =
            drain ? busy_reason::draining : busy_reason::server_busy;
        // Counted before the send: a client that reads its busy frame
        // always finds the rejection in stats().
        rejected_cell->inc();
        shed_cells[static_cast<std::size_t>(reason)]->inc();
        const std::vector<std::uint8_t> busy = encode_busy(0, reason);
        ::send(fd, busy.data(), busy.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      set_nodelay(fd);
      auto conn = std::make_unique<connection>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->last_read_at = clock.seconds();
      conn->last_write_progress_at = conn->last_read_at;
      conn->accepted_at = conn->last_read_at;
      conns.emplace(conn->id, std::move(conn));
      accepted_cell->inc();
      open_conns_cell->set(static_cast<double>(conns.size()));
    }
  }

  /// Reads until the socket is drained, parsing after every read so a
  /// request's rows go straight into its trace buffer once its prefix is
  /// parsed. Returns false when the connection was closed.
  bool handle_readable(connection& conn) {
    if (trace_sink() != nullptr) {
      // Anchor for the net.read span of any traced request this batch of
      // socket reads completes (one clock read per readiness event).
      conn.read_batch_start_us = obs::trace_clock_us();
    }
    while (!conn.closing) {
      if (conn.read_buffer.size() - conn.read_end < kReadBufferBytes / 4) {
        compact_read_buffer(conn, kReadBufferBytes);
      }
      std::array<iovec, 2> iov{};
      std::size_t parts = 0;
      if (conn.body) {
        const std::span<std::uint8_t> room = row_room(*conn.body);
        if (!room.empty()) iov[parts++] = {room.data(), room.size()};
      }
      iov[parts++] = {conn.read_buffer.data() + conn.read_end,
                      conn.read_buffer.size() - conn.read_end};
      const std::size_t wanted = iov[0].iov_len + iov[1].iov_len;
      const ssize_t n = ::readv(conn.fd, iov.data(), static_cast<int>(parts));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        close_connection(conn);  // orderly peer close, or a hard read error
        return false;
      }
      bytes_in_cell->inc(static_cast<std::uint64_t>(n));
      conn.last_read_at = clock.seconds();
      bool discard = false;
      try {
        // drop: the bytes vanish, desyncing the framing — downstream the
        // malformed-frame path takes over, which is the point.
        discard = fault::trigger("net.read") == fault::action::drop;
      } catch (const std::exception&) {
        conn.evict = true;
        close_connection(conn);
        return false;
      }
      if (!discard) {
        std::size_t got = static_cast<std::size_t>(n);
        if (parts == 2) {
          const std::size_t rows = std::min(got, iov[0].iov_len);
          conn.body->rows_filled += rows;
          got -= rows;
        }
        conn.read_end += got;
        parse_frames(conn);
      }
      if (static_cast<std::size_t>(n) < wanted) break;
    }
    return true;
  }

  /// Moves the unparsed bytes to the front of the read buffer and grows the
  /// buffer to at least `size` bytes.
  static void compact_read_buffer(connection& conn, std::size_t size) {
    const std::size_t unparsed = conn.read_end - conn.read_begin;
    if (conn.read_begin > 0 && unparsed > 0) {
      std::memmove(conn.read_buffer.data(),
                   conn.read_buffer.data() + conn.read_begin, unparsed);
    }
    conn.read_begin = 0;
    conn.read_end = unparsed;
    if (conn.read_buffer.size() < size) conn.read_buffer.resize(size);
  }

  /// Parses the read buffer: feeds the current request its rows, starts
  /// every request whose prefix is in, and handles every complete control
  /// frame. May mark the connection closing (protocol violation).
  void parse_frames(connection& conn) {
    while (!conn.closing) {
      if (conn.body) {
        if (!feed_body(conn)) break;
        continue;
      }
      const std::size_t available = conn.read_end - conn.read_begin;
      if (available < kHeaderSize) break;
      const std::uint8_t* frame = conn.read_buffer.data() + conn.read_begin;
      frame_header header;
      const header_verdict verdict = decode_header(frame, header);
      if (verdict != header_verdict::ok) {
        const error_code code =
            verdict == header_verdict::bad_version ? error_code::bad_version
            : verdict == header_verdict::bad_type  ? error_code::bad_type
                                                   : error_code::malformed_frame;
        protocol_error(conn, header.request_id, code,
                       "frame header rejected");
        break;
      }
      if (header.payload_size > config.max_frame_payload) {
        protocol_error(conn, header.request_id, error_code::oversize_frame,
                       "payload length above the configured bound");
        break;
      }
      // Per-connection version negotiation: the first well-formed frame
      // fixes the dialect; every outbound frame echoes it (conn_version).
      if (conn.version == 0) conn.version = header.version;
      if (header.type == frame_type::request) {
        if (!start_request(conn, header)) break;
        continue;
      }
      const std::size_t frame_size = kHeaderSize + header.payload_size;
      if (available < frame_size) {
        compact_read_buffer(conn, std::max(frame_size, kReadBufferBytes));
        break;
      }
      frames_in_cell->inc();
      handle_frame(conn, header);
      conn.read_begin += frame_size;
    }
    if (conn.read_begin == conn.read_end) conn.read_begin = conn.read_end = 0;
  }

  /// Starts a request frame once its header, trace context and fixed prefix
  /// are in the read buffer: a prefix that decodes gets a recycled trace
  /// buffer for its rows; one that does not keeps its error, and the rest of
  /// the frame is skipped. False when the prefix has not arrived yet.
  bool start_request(connection& conn, const frame_header& header) {
    const std::size_t context = header.has_trace() ? kTraceContextSize : 0;
    const std::size_t prefix = std::min<std::size_t>(
        header.payload_size, context + kRequestPayloadHeaderSize);
    const std::size_t available = conn.read_end - conn.read_begin;
    if (available < kHeaderSize + prefix) return false;
    const std::uint8_t* payload =
        conn.read_buffer.data() + conn.read_begin + kHeaderSize;
    request_frame req;
    req.header = header;
    req.rows_total = header.payload_size - prefix;
    // A trace-flagged frame too short for its context is rejected when it
    // is complete (finish_body), before admission.
    if (header.payload_size >= context) {
      if (context != 0) req.tctx = decode_trace_context(payload);
      req.payload_bytes = header.payload_size - context;
      try {
        req.info = decode_request_prefix(payload + context, req.payload_bytes);
        req.traces = lease_traces(req.rows_total);
        grow_rows(req, available - kHeaderSize - prefix);
      } catch (const std::exception& e) {
        drop_rows(req, e.what());  // reported after admission, as before
      }
    }
    conn.read_begin += kHeaderSize + prefix;
    conn.body = std::move(req);
    return true;
  }

  /// Moves the read buffer's bytes into the current request's rows (or
  /// skips them, for a prefix that did not decode) and handles the request
  /// once its last byte is in. False when more bytes are needed.
  bool feed_body(connection& conn) {
    request_frame& req = *conn.body;
    while (req.rows_filled < req.rows_total &&
           conn.read_begin < conn.read_end) {
      std::size_t take = std::min(conn.read_end - conn.read_begin,
                                  req.rows_total - req.rows_filled);
      const std::span<std::uint8_t> room = row_room(req);
      if (req.traces != nullptr) {
        take = std::min(take, room.size());
        std::memcpy(room.data(), conn.read_buffer.data() + conn.read_begin,
                    take);
      }
      req.rows_filled += take;
      conn.read_begin += take;
    }
    if (req.rows_filled < req.rows_total) return false;
    finish_body(conn);
    return true;
  }

  /// The last byte of the current request arrived: handle it.
  void finish_body(connection& conn) {
    request_frame req = std::move(*conn.body);
    conn.body.reset();
    frames_in_cell->inc();
    if (req.header.has_trace() && req.header.payload_size < kTraceContextSize) {
      protocol_error(conn, req.header.request_id, error_code::decode_error,
                     "trace-flagged request shorter than its context");
      return;
    }
    handle_request(conn, req);
    recycle_traces(std::move(req.traces));
  }

  /// Shapes the request's row storage to whole rows covering at least
  /// `bytes` row bytes, and at least double what it had, a read buffer's
  /// worth, and what the leased buffer holds without reallocating — so the
  /// memory a request takes follows the bytes that arrived, not the size its
  /// header announced. Throws when the storage cannot be shaped.
  static void grow_rows(request_frame& req, std::size_t bytes) {
    const std::size_t row_bytes =
        2 * std::size_t{req.info.samples_per_quadrature} * sizeof(float);
    const std::size_t reusable =
        req.traces->samples_per_quadrature() ==
                req.info.samples_per_quadrature
            ? capacity_bytes(*req.traces)
            : 0;
    const std::size_t target =
        std::max({bytes, 2 * req.rows.size(), kReadBufferBytes, reusable});
    const std::size_t shots =
        row_bytes == 0 ? 0
                       : std::min<std::size_t>(
                             req.info.shots, (target + row_bytes - 1) / row_bytes);
    req.rows = request_rows(req.info, shots, *req.traces);
  }

  /// The request's unfilled row storage, grown first when it is full; empty
  /// when its rows are skipped. A storage that cannot grow has the rest of
  /// the frame skipped and the request answered with the error.
  std::span<std::uint8_t> row_room(request_frame& req) {
    if (req.traces != nullptr && req.rows_filled == req.rows.size()) {
      try {
        grow_rows(req, req.rows_filled + 1);
      } catch (const std::exception& e) {
        drop_rows(req, e.what());
      }
    }
    return req.traces != nullptr ? req.rows.subspan(req.rows_filled)
                                 : std::span<std::uint8_t>{};
  }

  /// The request's rows are skipped from now on; admission reports `why`.
  void drop_rows(request_frame& req, const char* why) {
    req.error = why;
    req.rows = {};
    recycle_traces(std::move(req.traces));
  }

  /// A recycled trace buffer for `row_bytes` of rows: the spare with the
  /// smallest capacity that holds them (filling it reallocates and clears
  /// nothing), else the largest; a new one when there is no spare.
  std::unique_ptr<data::trace_dataset> lease_traces(std::size_t row_bytes) {
    if (spare_traces.empty()) return std::make_unique<data::trace_dataset>();
    const auto fits_better = [row_bytes](const auto& a, const auto& b) {
      const std::size_t x = capacity_bytes(*a);
      const std::size_t y = capacity_bytes(*b);
      if ((x >= row_bytes) != (y >= row_bytes)) return x >= row_bytes;
      return x >= row_bytes ? x < y : x > y;
    };
    const auto best =
        std::min_element(spare_traces.begin(), spare_traces.end(), fits_better);
    std::unique_ptr<data::trace_dataset> traces = std::move(*best);
    *best = std::move(spare_traces.back());
    spare_traces.pop_back();
    spare_bytes -= capacity_bytes(*traces);
    return traces;
  }

  void recycle_traces(std::unique_ptr<data::trace_dataset> traces) {
    if (traces == nullptr) return;
    const std::size_t bytes = capacity_bytes(*traces);
    if (spare_traces.size() < kSpareTraceBuffers &&
        spare_bytes + bytes <= kSpareTraceBytes) {
      spare_bytes += bytes;
      spare_traces.push_back(std::move(traces));
    }
  }

  /// A complete control frame (requests go through start_request).
  void handle_frame(connection& conn, const frame_header& header) {
    switch (header.type) {
      case frame_type::request:
        return;
      case frame_type::cancel: {
        cancels_cell->inc();
        const auto it = conn.requests.find(header.request_id);
        if (it == conn.requests.end()) return;  // finished or unknown: benign
        const std::uint64_t ticket_id = it->second;
        if (tickets.find(ticket_id) == tickets.end()) return;
        // Still unresolved (completion consumes tickets under this mutex),
        // so cancel() cannot see a consumed ticket. false = already done.
        server.cancel(serve::ticket{ticket_id});
        return;
      }
      case frame_type::ping:
        pings_cell->inc();
        queue_frame(conn, encode_control(frame_type::pong, header.request_id,
                                         conn_version(conn)));
        pongs_cell->inc();
        return;
      case frame_type::goodbye:
        conn.closing = true;  // orderly: flush what is queued, then close
        return;
      case frame_type::response:
      case frame_type::pong:
      case frame_type::busy:
      case frame_type::error:
        protocol_error(conn, header.request_id, error_code::bad_type,
                       "server-to-client frame type from a client");
        return;
    }
  }

  /// Admission and submission of one complete request frame (a prefix that
  /// did not decode is reported once admitted). A request that completes
  /// inside try_submit is answered here, in the turn that admitted it. A
  /// request that is not admitted leaves its trace buffer in `req`, for the
  /// caller to recycle.
  void handle_request(connection& conn, request_frame& req) {
    const frame_header& header = req.header;
    const trace_context& tctx = req.tctx;
    obs::trace_ring* ring = trace_sink();
    const bool traced = ring != nullptr && tctx.trace_id != 0;
    const std::uint64_t admit_start_us = traced ? obs::trace_clock_us() : 0;
    if (traced) {
      record_net_span(*ring, tctx.trace_id, tctx.parent_span, "net.read",
                      conn.read_batch_start_us != 0 ? conn.read_batch_start_us
                                                    : admit_start_us,
                      admit_start_us);
    }

    // Admission control, cheapest checks first; every rejection is an
    // explicit retriable busy frame, never an unbounded queue.
    const std::optional<busy_reason> rejection = admission_verdict(conn, req);
    if (rejection) {
      shed(conn, header.request_id, *rejection);
      return;
    }

    const std::uint64_t decode_start_us = traced ? obs::trace_clock_us() : 0;
    try {
      fault::trigger("net.decode");
    } catch (const std::exception& e) {
      protocol_error(conn, header.request_id, error_code::decode_error,
                     e.what());
      return;
    }
    if (req.traces == nullptr) {
      protocol_error(conn, header.request_id, error_code::decode_error,
                     req.error);
      return;
    }
    if (traced) {
      record_net_span(*ring, tctx.trace_id, tctx.parent_span, "net.decode",
                      decode_start_us, obs::trace_clock_us());
    }

    serve::readout_request request;
    request.qubit = req.info.qubit;
    request.traces = req.traces.get();
    request.engine = req.info.engine;
    request.deadline_seconds = req.info.deadline_seconds;
    request.lane = header.lane;
    if (traced) {
      request.trace_id = tctx.trace_id;
      request.trace_parent = tctx.parent_span;
    }
    std::optional<serve::ticket> ticket;
    // May run the whole request inline (small feedback, workerless pool): the
    // doorbell then rings here, and the ticket is answered after the
    // registration below. Nothing rings when try_submit throws or sheds.
    inline_completion completed_inline{this, std::nullopt};
    t_inline_completion = &completed_inline;
    try {
      ticket = server.try_submit(request);
    } catch (const std::exception& e) {
      t_inline_completion = nullptr;
      // Semantically invalid (bad qubit, missing engine path): a protocol
      // contract violation, handled like any malformed frame.
      protocol_error(conn, header.request_id, error_code::decode_error,
                     e.what());
      return;
    }
    t_inline_completion = nullptr;
    if (!ticket) {
      shed(conn, header.request_id, busy_reason::server_busy);
      return;
    }
    inflight_ticket entry;
    entry.conn_id = conn.id;
    entry.request_id = header.request_id;
    entry.payload_bytes = req.payload_bytes;
    entry.engine = req.info.engine;
    entry.lane = header.lane;
    entry.traces = std::move(req.traces);
    if (traced) {
      entry.trace_id = tctx.trace_id;
      entry.trace_parent = tctx.parent_span;
    }
    tickets.emplace(ticket->id, std::move(entry));
    conn.requests[header.request_id] = ticket->id;
    ++conn.inflight;
    conn.inflight_bytes += req.payload_bytes;
    ++conn.lane_admitted[static_cast<std::size_t>(header.lane)];
    admitted_cell->inc();
    inflight_cell->set(static_cast<double>(tickets.size()));
    if (traced) {
      record_net_span(*ring, tctx.trace_id, tctx.parent_span, "net.admit",
                      admit_start_us, obs::trace_clock_us());
    }
    if (completed_inline.ticket_id) {
      answer_same_turn(conn, *completed_inline.ticket_id);
    }
  }

  /// The busy reason that sheds this request, if any.
  std::optional<busy_reason> admission_verdict(const connection& conn,
                                               const request_frame& req) const {
    if (draining.load(std::memory_order_relaxed)) return busy_reason::draining;
    if (conn.inflight >= config.max_inflight_per_connection) {
      return busy_reason::connection_inflight;
    }
    if (conn.inflight_bytes + req.payload_bytes >
        config.max_inflight_bytes_per_connection) {
      return busy_reason::connection_bytes;
    }
    const std::size_t budget =
        req.header.lane == serve::lane_class::feedback
            ? config.max_inflight
            : config.max_inflight - config.feedback_reserve;
    if (tickets.size() >= budget) return busy_reason::server_busy;
    return std::nullopt;
  }

  /// Queues the reply of a ticket that completed inside try_submit. With a
  /// fault armed, net.complete keeps its meaning: the site fires off the
  /// lock, and when the client hung up meanwhile its result is dropped,
  /// counted, and the connection closes as if its read had returned EOF.
  void answer_same_turn(connection& conn, std::uint64_t ticket_id) {
    bool client_left = false;
    if (fault::any_armed()) {
      turn_lock.unlock();
      fire_complete_site();
      turn_lock.lock();
      pollfd hangup{conn.fd, POLLRDHUP, 0};
      client_left = ::poll(&hangup, 1, 0) > 0 &&
                    (hangup.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0;
      if (client_left) conn.closing = true;
    }
    process_completion(ticket_id, client_left);
  }

  void shed(connection& conn, std::uint64_t request_id, busy_reason reason) {
    shed_cells[static_cast<std::size_t>(reason)]->inc();
    queue_frame(conn, encode_busy(request_id, reason, conn_version(conn)));
  }

  /// Typed error frame, then close exactly this connection (reads stop now;
  /// the frame flushes before the fd closes).
  void protocol_error(connection& conn, std::uint64_t request_id,
                      error_code code, const std::string& message) {
    malformed_cells[static_cast<std::size_t>(code)]->inc();
    queue_frame(
        conn, encode_error(request_id, code, message, conn_version(conn)));
    queue_frame(
        conn, encode_control(frame_type::goodbye, 0, conn_version(conn)));
    conn.closing = true;
    conn.evict = true;
  }

  void queue_frame(connection& conn, std::vector<std::uint8_t> bytes) {
    if (conn.write_queue.empty()) {
      conn.last_write_progress_at = clock.seconds();
    }
    conn.write_queue_bytes += bytes.size();
    conn.queued_bytes_total += bytes.size();
    conn.write_queue.push_back(std::move(bytes));
    frames_out_cell->inc();
    if (conn.write_queue_bytes > config.max_write_queue_bytes) {
      // The client is not draining responses; its queue must not grow the
      // server. Evict — reconciliation happens at close.
      conn.closing = true;
      conn.evict = true;
    }
  }

  /// Writes as much of the queue as the socket accepts. Returns false when
  /// the connection must be evicted (write error / injected fault).
  bool flush_writes(connection& conn) {
    try {
      if (fault::trigger("net.write") == fault::action::drop) {
        return true;  // skip this flush round — a stalled sender
      }
    } catch (const std::exception&) {
      return false;
    }
    while (!conn.write_queue.empty()) {
      const std::vector<std::uint8_t>& front = conn.write_queue.front();
      const std::size_t remaining = front.size() - conn.write_offset;
      const ssize_t n = ::send(conn.fd, front.data() + conn.write_offset,
                               remaining, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          complete_write_spans(conn);  // earlier frames may be out
          return true;
        }
        if (errno == EINTR) continue;
        return false;
      }
      bytes_out_cell->inc(static_cast<std::uint64_t>(n));
      conn.write_queue_bytes -= static_cast<std::size_t>(n);
      conn.flushed_bytes_total += static_cast<std::uint64_t>(n);
      conn.write_offset += static_cast<std::size_t>(n);
      conn.last_write_progress_at = clock.seconds();
      if (conn.write_offset == front.size()) {
        conn.write_queue.pop_front();
        conn.write_offset = 0;
      }
    }
    complete_write_spans(conn);
    return true;
  }

  /// Emits net.write spans whose response bytes have fully left the socket
  /// buffer (flushed_bytes_total reached the target stamped at queue time).
  void complete_write_spans(connection& conn) {
    if (conn.write_spans.empty()) return;
    obs::trace_ring* ring = trace_sink();
    const std::uint64_t now_us =
        ring != nullptr ? obs::trace_clock_us() : 0;
    std::erase_if(conn.write_spans, [&](const connection::write_span& ws) {
      if (conn.flushed_bytes_total < ws.target) return false;
      if (ring != nullptr) {
        record_net_span(*ring, ws.trace_id, ws.parent_span, "net.write",
                        ws.start_us, now_us);
      }
      return true;
    });
  }

  /// The tail of each iteration: flushes every write queue, then closes what
  /// must go — write failures and expired deadlines (evicted), and closing
  /// connections whose queue has drained.
  void flush_and_reap() {
    const double now = clock.seconds();
    std::vector<connection*> done;
    for (auto& [id, conn] : conns) {
      if (!conn->write_queue.empty() && !flush_writes(*conn)) {
        conn->evict = true;  // write error or injected fault
      } else if (conn->closing) {
        if (!conn->write_queue.empty()) continue;  // still flushing
      } else if (config.read_idle_seconds > 0.0 &&
                 now - conn->last_read_at > config.read_idle_seconds) {
        conn->evict = true;  // slow loris: trickling or silent
      } else if (config.write_stall_seconds > 0.0 &&
                 !conn->write_queue.empty() &&
                 now - conn->last_write_progress_at >
                     config.write_stall_seconds) {
        conn->evict = true;  // reader stopped reading
      } else {
        continue;
      }
      done.push_back(conn.get());
    }
    for (connection* conn : done) close_connection(*conn);
  }

  /// Removes a connection and reconciles its in-flight tickets: every one
  /// still unresolved is cancelled through the server, and the loop drops
  /// its result, counted, when the doorbell delivers it.
  void close_connection(connection& conn) {
    // Entries still in `tickets` are unconsumed (only this thread consumes
    // them, under this lock), so cancel() cannot throw for a consumed
    // ticket; false (already done) is fine.
    for (const auto& [request_id, ticket_id] : conn.requests) {
      if (tickets.contains(ticket_id)) server.cancel(serve::ticket{ticket_id});
    }
    closed_cell->inc();
    if (conn.evict) evicted_cell->inc();
    ::close(conn.fd);
    conns.erase(conn.id);  // destroys conn
    open_conns_cell->set(static_cast<double>(conns.size()));
  }

  /// Consumes a finished ticket and queues its response, or drops the
  /// result, counted, when its client is gone (or `client_left`).
  void process_completion(std::uint64_t ticket_id, bool client_left = false) {
    const auto it = tickets.find(ticket_id);
    if (it == tickets.end()) return;  // foreign ticket: not ours to consume
    inflight_ticket entry = std::move(it->second);
    tickets.erase(it);
    serve::readout_result result;
    try {
      // The doorbell fired, so the ticket is done: wait() returns
      // immediately. Consuming under state_mutex is what makes the
      // disconnect path's cancel() race-free (see close_connection).
      server.wait(serve::ticket{ticket_id}, result);
    } catch (const std::exception&) {
      // A failed request rethrows its shard error; the client gets the
      // terminal status instead of the exception text.
      result.status = serve::request_status::failed;
      result.engine = entry.engine;
      result.states.clear();
      result.registers.clear();
      result.logits.clear();
    }
    inflight_cell->set(static_cast<double>(tickets.size()));
    // The ticket is consumed, so the serve layer is done with the rows.
    recycle_traces(std::move(entry.traces));
    const auto conn_it = conns.find(entry.conn_id);
    if (conn_it != conns.end()) {
      connection& conn = *conn_it->second;
      --conn.inflight;
      conn.inflight_bytes -= entry.payload_bytes;
      const auto req_it = conn.requests.find(entry.request_id);
      if (req_it != conn.requests.end() && req_it->second == ticket_id) {
        conn.requests.erase(req_it);
      }
    }
    if (conn_it == conns.end() || client_left) {
      // Disconnect reconciliation: the client left; the result is dropped,
      // counted, and the ticket is still consumed — never leaked.
      dropped_cell->inc();
      return;
    }
    connection& conn = *conn_it->second;
    lane_seconds[static_cast<std::size_t>(entry.lane)]->record(
        result.latency_seconds);
    const std::uint64_t write_start_us =
        entry.trace_id != 0 && trace_sink() != nullptr ? obs::trace_clock_us()
                                                       : 0;
    queue_frame(
        conn, encode_response(entry.request_id, result, conn_version(conn)));
    responses_cell->inc();
    if (write_start_us != 0) {
      // The net.write span runs from response-queued to the flush that
      // drains it off the write queue (completed in flush_writes).
      conn.write_spans.push_back({entry.trace_id, entry.trace_parent,
                                  write_start_us, conn.queued_bytes_total});
    }
  }

  // --- shutdown -----------------------------------------------------------

  void shutdown() {
    if (shut_down) return;
    shut_down = true;
    draining.store(true, std::memory_order_relaxed);
    // Phase 1: resolve every in-flight ticket. New requests are shed with
    // busy(draining); cancels and pings still work. Bounded by the drain
    // timeout, then force-cancel — every ticket still resolves (cancelled),
    // so the wait below terminates.
    const double deadline = clock.seconds() + config.drain_timeout_seconds;
    bool forced = false;
    for (;;) {
      {
        const std::lock_guard lock(state_mutex);
        if (tickets.empty()) break;
        if (!forced && clock.seconds() >= deadline) {
          forced = true;
          for (const auto& [ticket_id, entry] : tickets) {
            server.cancel(serve::ticket{ticket_id});
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Phase 2: goodbye frames, then give the loop one drain window to flush
    // the write queues.
    {
      const std::lock_guard lock(state_mutex);
      for (auto& [id, conn] : conns) {
        if (!conn->closing) {
          queue_frame(*conn, encode_control(frame_type::goodbye, 0,
                                            conn_version(*conn)));
        }
      }
    }
    wake_poll();
    const double flush_deadline =
        clock.seconds() + config.drain_timeout_seconds;
    for (;;) {
      bool flushed = true;
      {
        const std::lock_guard lock(state_mutex);
        for (const auto& [id, conn] : conns) {
          if (!conn->write_queue.empty()) flushed = false;
        }
      }
      if (flushed || clock.seconds() >= flush_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Phase 3: stop the loop. The wake byte interrupts its poll(), and it
    // closes every socket on the way out.
    stopping.store(true, std::memory_order_relaxed);
    wake_poll();
    poll_thread.join();
    // The registry may outlive the front end (shared backend): unbind the
    // pull collector before the impl it captures goes away.
    metrics->remove_collector(collector_id);
    // The server outlives the front end; detach the doorbell so it cannot
    // call into a destroyed impl. Every net ticket was consumed above, and
    // the front end was the sole submitter by contract.
    server.set_on_complete({});
  }

  front_end_stats stats() const {
    const std::lock_guard lock(state_mutex);
    front_end_stats s;
    s.connections_accepted = accepted_cell->value();
    s.connections_rejected = rejected_cell->value();
    s.connections_closed = closed_cell->value();
    s.connections_evicted = evicted_cell->value();
    s.frames_received = frames_in_cell->value();
    s.frames_sent = frames_out_cell->value();
    s.bytes_received = bytes_in_cell->value();
    s.bytes_sent = bytes_out_cell->value();
    s.requests_admitted = admitted_cell->value();
    s.responses_sent = responses_cell->value();
    for (const obs::counter* cell : shed_cells) {
      s.busy_rejections += cell->value();
    }
    for (const obs::counter* cell : malformed_cells) {
      s.malformed_frames += cell->value();
    }
    s.results_dropped = dropped_cell->value();
    s.cancels_received = cancels_cell->value();
    s.pings_received = pings_cell->value();
    s.pongs_sent = pongs_cell->value();
    s.open_connections = conns.size();
    s.inflight = tickets.size();
    return s;
  }

  std::vector<connection_info> connection_table() const {
    const std::lock_guard lock(state_mutex);
    const double now = clock.seconds();
    std::vector<connection_info> out;
    out.reserve(conns.size());
    for (const auto& [id, conn] : conns) {
      connection_info info;
      info.id = id;
      info.protocol_version = conn->version;
      info.inflight = conn->inflight;
      info.inflight_bytes = conn->inflight_bytes;
      info.write_queue_bytes = conn->write_queue_bytes;
      info.admitted_bulk = conn->lane_admitted[0];
      info.admitted_feedback = conn->lane_admitted[1];
      info.age_seconds = now - conn->accepted_at;
      info.idle_seconds = now - conn->last_read_at;
      info.closing = conn->closing;
      out.push_back(info);
    }
    return out;
  }
};

tcp_front_end::tcp_front_end(serve::readout_server& server,
                             front_end_config config)
    : impl_(std::make_unique<impl>(server, std::move(config))) {}

tcp_front_end::~tcp_front_end() {
  try {
    impl_->shutdown();
  } catch (const std::exception& e) {
    log_warn("tcp_front_end: shutdown failed in destructor: ", e.what());
  }
}

std::uint16_t tcp_front_end::port() const noexcept {
  return impl_->bound_port;
}

void tcp_front_end::shutdown() { impl_->shutdown(); }

front_end_stats tcp_front_end::stats() const { return impl_->stats(); }

std::vector<connection_info> tcp_front_end::connections() const {
  return impl_->connection_table();
}

bool tcp_front_end::draining() const noexcept {
  return impl_->draining.load(std::memory_order_relaxed);
}

const obs::metric_registry& tcp_front_end::metrics() const noexcept {
  return *impl_->metrics;
}

}  // namespace klinq::net
