// Distributed request tracing: a shared microsecond clock, a bounded span
// ring with tail retention, and a Chrome trace-event (Perfetto-loadable)
// exporter.
//
// Spans from every layer of one request — the client's RTT span, the TCP
// front end's read/decode/admit/write spans, the serve layer's
// hold/queue/exec spans — carry the same client-stamped 64-bit trace_id and
// timestamps from the same process-global steady epoch (trace_clock_us), so
// grouping the ring by trace_id reconstructs the request's full wire-to-wire
// timeline. chrome_trace_json() renders that as trace-event JSON that
// chrome://tracing and ui.perfetto.dev load directly.
//
// Cost discipline: the hot-path gate (armed) is one relaxed atomic load, and
// producers additionally skip span construction for requests whose trace_id
// is zero (unsampled), so disabled or head-sampled-out tracing costs one load
// and one branch per site.
//
// Head sampling alone would lose the requests worth looking at, so the ring
// also keeps failed and slow requests in a kept set apart from its span FIFO
// (trace_ring::keep), sampled or not and armed or not.
// Enabled from the environment:
//
//   KLINQ_TRACE_FILE=/path/trace.json  KLINQ_TRACE_SAMPLE=0.01
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace klinq::obs {

/// Microseconds since a process-global steady_clock epoch (the epoch is
/// captured on first use). All spans across client/net/serve stamp from
/// this one clock so their intervals nest on a single timeline; the unit
/// matches the Chrome trace-event "ts"/"dur" fields.
std::uint64_t trace_clock_us() noexcept;

struct trace_span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  // 0 = root
  std::uint64_t start_us = 0;     // trace_clock_us() at span start
  std::uint64_t duration_us = 0;
  std::string name;      // e.g. "net.read", "serve.exec", "client.rtt"
  std::string category;  // track grouping: "client" | "net" | "serve"
};

/// One request retained by the ring's tail policy (trace_ring::keep).
struct kept_trace {
  std::uint64_t trace_id = 0;  // the wire trace id, or a fresh one
  std::string status;          // terminal status, e.g. "ok" / "failed"
  bool anomalous = false;      // failed, timed out or cancelled
  std::uint64_t duration_us = 0;
  std::vector<trace_span> spans;  // stage breakdown, wall order
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Bounded MPSC-friendly span store. record() under a mutex is fine because
/// only sampled requests reach it; the armed() gate is the hot-path check.
class trace_ring {
 public:
  explicit trace_ring(std::size_t capacity = 4096);

  /// Hot-path gate: one relaxed load. Producers must not build spans when
  /// this is false.
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }
  void set_armed(bool armed) noexcept {
    armed_.store(armed, std::memory_order_relaxed);
  }

  /// Process-unique nonzero ids (shared by every layer recording here).
  std::uint64_t next_span_id() noexcept;
  std::uint64_t next_trace_id() noexcept;

  /// Stores a completed span; overwrites the oldest when full. No-op (and
  /// not counted) when disarmed.
  void record(trace_span span);

  /// All stored spans, oldest first.
  std::vector<trace_span> spans() const;

  struct trace_view {
    std::uint64_t trace_id = 0;
    std::vector<trace_span> spans;  // wall order
    std::uint64_t start_us = 0;
    std::uint64_t duration_us = 0;  // earliest start → latest end
  };

  /// Completed traces grouped by id, most recently finished first, at most
  /// `max_traces` of them.
  std::vector<trace_view> traces(std::size_t max_traces = 32) const;

  std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Spans overwritten because the ring was full.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Tail retention: the newest anomalous requests and the slowest ok ones.
  static constexpr std::size_t kKeptAnomalies = 32;
  static constexpr std::size_t kKeptSlowest = 8;

  /// Tail-retention gate: no load for an anomaly, one relaxed load
  /// otherwise. May rarely admit an entry keep() then drops, never the
  /// reverse. Producers build a kept_trace only when this is true.
  bool should_keep(std::uint64_t duration_us, bool anomalous) const noexcept {
    return anomalous ||
           duration_us >= slowest_bar_.load(std::memory_order_relaxed);
  }

  /// Retains an entry in the kept set, armed or not: an anomaly overwrites
  /// the oldest once kKeptAnomalies are held; an ok entry displaces the
  /// fastest of the kKeptSlowest when it is slower.
  void keep(kept_trace entry);

  /// The kept set: anomalies oldest first, then the slowest ok requests
  /// fastest first.
  std::vector<kept_trace> kept() const;

  /// Empties the ring and the kept set and resets the recorded/dropped
  /// counters.
  void clear();

 private:
  const std::size_t capacity_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> next_span_{1};
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<trace_span> ring_;  // ring, next_ = oldest once wrapped
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::vector<kept_trace> anomalies_;  // ring, next_anomaly_ = oldest
  std::size_t next_anomaly_ = 0;
  std::vector<kept_trace> slowest_;  // ascending by duration_us
  // Smallest ok duration should_keep admits: 0 until the slowest set is
  // full, then one past its fastest member.
  std::atomic<std::uint64_t> slowest_bar_{0};
};

/// Process-wide ring shared by client, front end, and server (leaked
/// singleton, same discipline as default_registry()).
trace_ring& default_trace_ring();

/// Deterministic head sampler (rate in [0, 1]; 0 never samples, 1 samples
/// everything). Counter-based: call n is sampled iff
/// ceil((n+1)*rate) > ceil(n*rate), so the first N calls yield round(N*rate)
/// traces regardless of timing, and a rate of 1/k samples calls 0, k, 2k, ...
class trace_sampler {
 public:
  explicit trace_sampler(double rate) noexcept;
  // Copyable (the atomic counter is carried over) so holders can reassign.
  trace_sampler(const trace_sampler& other) noexcept
      : rate_(other.rate_),
        count_(other.count_.load(std::memory_order_relaxed)) {}
  trace_sampler& operator=(const trace_sampler& other) noexcept {
    rate_ = other.rate_;
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }
  bool sample() noexcept;
  double rate() const noexcept { return rate_; }

 private:
  double rate_ = 0.0;
  std::atomic<std::uint64_t> count_{0};
};

/// Renders spans as Chrome trace-event JSON ("X" complete events with
/// microsecond ts/dur; trace/span/parent ids in args). Loads in
/// chrome://tracing and Perfetto.
std::string chrome_trace_json(const std::vector<trace_span>& spans);

/// Writes chrome_trace_json of the ring to a file at stop()/destruction.
class trace_file_sink {
 public:
  /// Verifies the path is writable now (throws io_error otherwise) so a
  /// misconfigured KLINQ_TRACE_FILE fails at startup, not at exit.
  trace_file_sink(trace_ring& ring, std::string path);
  ~trace_file_sink();

  trace_file_sink(const trace_file_sink&) = delete;
  trace_file_sink& operator=(const trace_file_sink&) = delete;

  /// Writes the trace file once. Idempotent.
  void stop();

 private:
  trace_ring& ring_;
  std::string path_;
  bool stopped_ = false;
};

/// When KLINQ_TRACE_FILE is set: arms `ring` and returns a sink writing to
/// that path at stop/exit; null (ring untouched) when unset.
std::unique_ptr<trace_file_sink> start_trace_sink_from_env(trace_ring& ring);

/// KLINQ_TRACE_SAMPLE clamped to [0, 1]; defaults to 1 (trace everything
/// once tracing is armed).
double trace_sample_rate_from_env();

}  // namespace klinq::obs
