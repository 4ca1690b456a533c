// Request/result types of the sharded readout serving engine.
//
// The serving unit mirrors the paper's deployment unit: one independent
// discriminator per qubit (§I contribution 2), which makes qubit × trace-
// block work items shardable with no cross-qubit synchronization. A request
// borrows a trace block for one qubit and names the engine to run it
// through; the result carries the hard decisions plus the engine's native
// logits (Q16.16 registers or float), bit-identical to the serial per-qubit
// path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"

namespace klinq::serve {

/// Which datapath evaluates the traces.
enum class engine_kind : std::uint8_t {
  /// Bit-accurate Q16.16 hardware model (the FPGA decision).
  fixed_q16,
  /// Distilled float student (the software reference).
  float_student,
};

const char* engine_name(engine_kind engine) noexcept;

/// How a request resolved. Every submitted ticket reaches exactly one of
/// these — a server never leaves a ticket unresolvable.
enum class request_status : std::uint8_t {
  /// All shards computed; buffers are bit-identical to the serial path.
  ok,
  /// The request's deadline expired before every shard ran: unstarted
  /// shards were skipped. Rows covered by shards that did complete (and
  /// were streamed via on_shard) are valid; the rest are unspecified.
  timed_out,
  /// cancel(ticket) landed while the request was in flight; remaining
  /// shards were skipped. Buffer contents are unspecified.
  cancelled,
  /// A shard (or the on_shard callback) threw; wait() rethrows the first
  /// error after consuming the ticket.
  failed,
};

const char* status_name(request_status status) noexcept;

/// Latency class of a request — the scheduler honors it end to end.
enum class lane_class : std::uint8_t {
  /// Throughput lane: split into shards and dispatched FIFO.
  bulk = 0,
  /// Mid-circuit feedback lane: a request of at most one kernel tile runs on
  /// the submitting thread, so it never waits behind bulk work; a larger one
  /// is dispatched FIFO like bulk work. Per-lane p50/p99 SLO histograms
  /// track the separation.
  feedback = 1,
};

const char* lane_name(lane_class lane) noexcept;

/// Non-owning handles to one qubit's deployed models. Either pointer may be
/// null when that path is not served; submitting a request for a missing
/// path throws. Both models must outlive the server.
struct qubit_engine {
  const kd::student_model* student = nullptr;
  const hw::fixed_discriminator<fx::q16_16>* hardware = nullptr;
};

/// One unit of streamed work: a block of traces for one qubit. The dataset
/// is borrowed and must stay alive and unmodified until the ticket is
/// consumed (or the server is destroyed).
struct readout_request {
  std::size_t qubit = 0;
  const data::trace_dataset* traces = nullptr;
  engine_kind engine = engine_kind::fixed_q16;
  /// Soft deadline in seconds from submit; 0 inherits
  /// server_config::default_deadline_seconds (0 there too = no deadline).
  /// Shards that have not started when it expires are skipped and the
  /// ticket resolves with request_status::timed_out instead of making a
  /// late answer (worthless to a feedback-loop caller) block wait().
  /// A shard already running is finished, not interrupted — expiry is
  /// checked at shard start, so enforcement granularity is one shard.
  double deadline_seconds = 0.0;
  /// Latency class; small feedback requests run on the submitting thread.
  /// A feedback request with deadline_seconds == 0 inherits
  /// server_config::feedback_default_deadline_seconds before falling back
  /// to default_deadline_seconds.
  lane_class lane = lane_class::bulk;
  /// Wire-level trace correlation (0 = untraced, the default — the server
  /// then records no spans for this request). Stamped by the TCP front end
  /// from the frame's trace context; the serve stage spans (queue/exec)
  /// are emitted into server_config::traces under this id, parented to
  /// trace_parent (the client's RTT span).
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;
};

/// Completed measurement of one request. `states[r]` is the hard decision
/// (1 = state |1⟩) for trace r; the engine's native logits ride along in
/// `registers` (fixed_q16) or `logits` (float_student) — the other vector is
/// empty. Values are bit-identical to the serial per-qubit path.
struct readout_result {
  std::size_t qubit = 0;
  engine_kind engine = engine_kind::fixed_q16;
  std::vector<std::uint8_t> states;
  std::vector<fx::q16_16> registers;
  std::vector<float> logits;
  /// submit() → completion wall time.
  double latency_seconds = 0.0;
  /// Model version that evaluated this request (0 = static engine binding).
  /// Every shot of a request runs on the same version, even if the registry
  /// published a replacement mid-flight (per-request version pinning).
  std::uint64_t model_version = 0;
  /// How the request resolved; buffers are fully valid only for ok (see
  /// request_status for the per-status guarantees).
  request_status status = request_status::ok;
};

/// Opaque handle returned by submit(); consumed by wait().
struct ticket {
  std::uint64_t id = 0;
};

/// Streaming partial-result notification: one finished shard of a request.
/// The spans alias the request's result buffers for exactly the completed
/// row range [row_begin, row_end); they are valid for the duration of the
/// callback only (the final result is still claimed through the ticket —
/// this is an early peek, not a transfer of ownership). Over a request's
/// lifetime every row is reported exactly once, regardless of shard size;
/// zero-shot requests produce no event.
struct shard_event {
  ticket request{};
  std::size_t qubit = 0;
  engine_kind engine = engine_kind::fixed_q16;
  std::uint64_t model_version = 0;
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  /// Hard decisions for [row_begin, row_end).
  std::span<const std::uint8_t> states;
  /// Engine-native logits for the range: `registers` on fixed_q16, `logits`
  /// on float_student (the other span is empty).
  std::span<const fx::q16_16> registers;
  std::span<const float> logits;
};

/// Invoked from worker threads (or the submitting thread, for an inline
/// feedback request) as each shard finishes — latency-critical consumers
/// act on finished 64-shot tiles before the whole request drains. Must be
/// thread-safe (shards of one request may complete concurrently)
/// and fast (it runs on the shard executor); an exception thrown from the
/// callback fails the request and is rethrown by wait().
using shard_callback = std::function<void(const shard_event&)>;

/// Invoked exactly once per submitted ticket, the moment the request reaches
/// its terminal status (the same instant wait() would unblock). Runs on
/// whatever thread finished the request — a shard executor, or the
/// submitting thread for zero-shot, inline feedback or workerless-pool
/// requests — with no server lock held. The result is *not* passed: the
/// callback is a doorbell for an event-driven consumer (the TCP front end's
/// poll loop), which claims the result with wait()/poll() at its leisure.
/// Must not throw; may call back into the server except drain()/destructor.
using completion_callback = std::function<void(ticket, request_status)>;

}  // namespace klinq::serve
