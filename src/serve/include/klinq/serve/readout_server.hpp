// Streaming multi-qubit readout server (the ROADMAP's "multi-qubit sharded
// serving" item).
//
// submit() splits a (qubit × trace-block) request into shards and enqueues
// them on the shared thread pool; shards of different requests — and of
// different qubits — interleave freely because every qubit's discriminator
// is independent (the paper's per-qubit property). Results come back through
// tickets: poll() to test, wait() to block and collect. All shard outputs
// are bit-identical to the serial per-qubit path (Q16.16 registers and
// float logits), enforced by tests/test_serve.cpp.
//
// Backpressure: at most `max_inflight` tickets may be unresolved at once;
// submit() blocks until a slot frees, try_submit() returns nullopt instead.
// This bounds both queue memory and result-buffer memory under sustained
// overload.
//
// Dispatch: every non-empty request takes one of two paths, with
// bit-identical results either way. A feedback request of at most
// kMaxInlineShots shots (one kernel tile) runs on the submitting thread,
// inside submit()/try_submit(), through the same cancel/deadline/fault/
// completion path as a dispatched shard, so it never waits behind a running
// bulk shard. Every other request is split into shards and dispatched FIFO.
//
// Steady-state allocation: completed slots are recycled through a
// free-list, and each thread that runs shards keeps one engine scratch
// arena for them. The wait(ticket, result&) overload swaps buffers with the
// caller, so a submit/wait loop that reuses one readout_result performs
// zero heap allocations once warm.
//
// Engine acquisition: the server resolves a request's engines through an
// engine_provider at submit time (the vector constructor wraps a static
// provider for the original fixed-binding behavior). A versioned provider —
// klinq::registry::model_registry — may hot-swap models while traffic flows:
// each request pins the version active at its submit and every one of its
// shards runs on that snapshot (the lease's shared_ptr keeps it alive), so
// publication is never disruptive and no request observes a torn model.
//
// Streaming partial results: server_config::on_shard delivers each finished
// shard's row range (decisions + engine-native logits) from the thread that
// produced it, before the whole request drains — see shard_event in
// request.hpp for the aliasing/threading contract.
//
// Failure model: a request always resolves — as ok, timed_out (its deadline
// expired before every shard ran; late answers are worthless to feedback
// loops, so unstarted shards are skipped rather than computed), cancelled
// (cancel(ticket) landed in flight), or failed (a shard threw; wait()
// rethrows). Skipped and failed shards still run completion accounting, so
// wait() never blocks forever. Persistent failures self-heal:
// failure_threshold consecutive shard failures on one qubit ask the engine
// provider to demote the serving version (the registry rolls back to
// last-known-good). The fault points compiled into this path
// (klinq/fault/fault.hpp: "serve.submit.lease", "serve.shard.run") let tests
// and the --chaos demo inject all of it deterministically.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "klinq/common/stopwatch.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/serve/engine_provider.hpp"
#include "klinq/serve/request.hpp"
#include "klinq/serve/telemetry.hpp"

namespace klinq::serve {

struct server_config {
  /// Rows per shard; 0 = four engine tiles (256 shots). The server rounds
  /// it up to whole tiles (hw::quantized_network::kBatchTile shots each) so
  /// a shard boundary never splits a cache tile; shard_shots() reports the
  /// result. Validated at server construction: values above kMaxShardShots
  /// (a wrapped negative from a careless cast, say) are rejected instead of
  /// silently clamped.
  std::size_t shard_shots = 0;
  /// Maximum unresolved tickets before submit() blocks. Must be positive.
  std::size_t max_inflight = 64;
  /// Streaming partial results: invoked from worker threads as each shard of
  /// a request finishes (see shard_callback's contract in request.hpp); on
  /// the submitting thread, before submit() returns, for an inline feedback
  /// request or a workerless pool. Empty disables the notifications.
  shard_callback on_shard;
  /// Deadline applied to requests that do not carry their own
  /// readout_request::deadline_seconds; 0 = no default deadline. Must be
  /// finite and non-negative.
  double default_deadline_seconds = 0.0;
  /// Deadline applied to *feedback-lane* requests that carry no explicit
  /// deadline — feedback callers are deadline-scheduled by definition, so
  /// they get their own (typically much tighter) default. 0 falls back to
  /// default_deadline_seconds. Must be finite and non-negative.
  double feedback_default_deadline_seconds = 0.0;
  /// Completion doorbell: invoked exactly once per submitted ticket at the
  /// moment it reaches a terminal status, with no server lock held (see
  /// completion_callback in request.hpp); like on_shard, it may fire before
  /// submit() returns. Empty disables it. The TCP front end uses this to
  /// wake its poll loop instead of polling.
  completion_callback on_complete;
  /// Consecutive shard failures on one qubit before the server asks the
  /// engine provider to demote the serving version (the registry rolls back
  /// to last-known-good and marks the qubit degraded; a static binding
  /// ignores the request). The counter resets on any successful shard and
  /// after each demotion attempt. Must be positive — effectively disable
  /// the policy with a large value, not 0.
  std::size_t failure_threshold = 8;
  /// Metrics backend (borrowed; must outlive the server). Null — the
  /// default — gives the server a private registry, so per-server counts
  /// stay isolated; point it at obs::default_registry() (as klinq_serve
  /// does) to land every subsystem in one dump. Either way the families
  /// are identical and readable through readout_server::metrics().
  obs::metric_registry* metrics = nullptr;
  /// Span store (borrowed; must outlive the server). When armed, requests
  /// carrying a nonzero readout_request::trace_id get their queue/exec
  /// stage spans recorded here on completion, on the same trace_clock_us
  /// timeline the network layers stamp. Armed or not, its kept set retains
  /// every failed, timed-out or cancelled request and the slowest ok ones
  /// with the same spans. Null — the default — gives the server a private
  /// ring that is never armed, so only the kept set fills. Either way it is
  /// readable through readout_server::traces().
  obs::trace_ring* traces = nullptr;

  /// Largest accepted shard_shots value; anything above is a config bug,
  /// not a workload.
  static constexpr std::size_t kMaxShardShots = std::size_t{1} << 24;

  /// Largest feedback request that runs inline on the submitting thread —
  /// one engine kernel tile (hw::quantized_network::kBatchTile ==
  /// nn::kernels::max_tile_lanes), a few microseconds of engine work.
  static constexpr std::size_t kMaxInlineShots = 64;

  /// Throws invalid_argument_error on any inconsistent field (also run by
  /// the readout_server constructor, so a bad config never half-starts a
  /// server).
  void validate() const;
};

class readout_server {
 public:
  /// Serves the given per-qubit engines (borrowed; must outlive the server)
  /// with a fixed construction-time binding — every result reports model
  /// version 0. Each entry must expose at least one datapath; throws
  /// invalid_argument_error otherwise (and for an empty vector or an invalid
  /// config).
  explicit readout_server(std::vector<qubit_engine> qubits,
                          server_config config = {});

  /// Serves engines acquired per request from `provider` (borrowed; must
  /// outlive the server) — the hot-swap path: each submit pins the version
  /// active at submit time for every shard of that request, and results
  /// report it in readout_result::model_version.
  explicit readout_server(const engine_provider& provider,
                          server_config config = {});

  /// Blocks until every enqueued shard has finished. Unconsumed results are
  /// discarded — but not silently: every dropped non-ok result is logged
  /// (its counters were already recorded at completion time).
  ~readout_server();

  readout_server(const readout_server&) = delete;
  readout_server& operator=(const readout_server&) = delete;

  std::size_t qubit_count() const noexcept { return provider_->qubit_count(); }
  /// Rows per shard after the tile round-up (see server_config::shard_shots).
  std::size_t shard_shots() const noexcept { return shard_shots_; }

  /// Enqueues a request (or runs a small feedback one), blocking while the
  /// server is at max_inflight.
  /// Throws invalid_argument_error for a bad qubit index, null traces, or a
  /// missing engine path.
  ticket submit(const readout_request& request);

  /// Non-blocking submit: nullopt when the server is at max_inflight.
  std::optional<ticket> try_submit(const readout_request& request);

  /// True once the ticket's result is complete (wait() will not block).
  bool poll(ticket t) const;

  /// Blocks until complete and returns the result, consuming the ticket.
  /// The result's `status` reports how it resolved (ok / timed_out /
  /// cancelled); a failed request rethrows its first shard error instead.
  readout_result wait(ticket t);

  /// Zero-allocation variant: swaps the completed buffers into `out`
  /// (out's previous buffers are recycled into the slot pool).
  void wait(ticket t, readout_result& out);

  /// Requests cancellation of an in-flight ticket: shards that have not
  /// started are skipped (running shards finish — cancellation is
  /// shard-granular) and the ticket resolves with
  /// request_status::cancelled. Returns false when the request had already
  /// completed (its result stays claimable as-is); throws for an unknown or
  /// consumed ticket. The ticket must still be consumed by wait().
  bool cancel(ticket t);

  /// Blocks until every currently submitted request has completed (results
  /// stay claimable by ticket).
  void drain();

  /// Installs (or clears) the completion doorbell after construction. Only
  /// legal while no ticket is unresolved — swapping the callback under live
  /// traffic would let in-flight completions race the handoff.
  void set_on_complete(completion_callback callback);

  server_stats stats() const;

  /// The metric registry backing this server's labeled families (the
  /// private one, or server_config::metrics when shared). Snapshot/export
  /// through it: metrics().prometheus_text(), metrics().snapshot(), ...
  const obs::metric_registry& metrics() const noexcept { return *metrics_; }

  /// The span store behind this server (the private one, or
  /// server_config::traces when shared). Its kept() set holds every
  /// anomalous completion plus the slowest ok requests, each with its
  /// queue/exec spans.
  const obs::trace_ring& traces() const noexcept { return *traces_; }

 private:
  static constexpr std::uint64_t kNoVersionYet =
      ~static_cast<std::uint64_t>(0);

  struct slot {
    std::uint64_t id = 0;
    readout_result result;
    /// The request's borrowed trace block, immutable after submit.
    const data::trace_dataset* traces = nullptr;
    std::size_t shots = 0;
    std::size_t remaining_shards = 0;  // guarded by mutex_
    bool done = false;                 // guarded by mutex_
    std::exception_ptr error;          // first shard failure; rethrown by wait
    stopwatch timer;
    /// Effective deadline (seconds from submit; 0 = none). Immutable after
    /// submit, so shard executors read it without the mutex.
    double deadline_seconds = 0.0;
    /// Set by cancel() under mutex_ (so it cannot race the done flag), read
    /// lock-free by shard executors deciding whether to skip.
    std::atomic<bool> cancelled{false};
    /// Latency class, immutable after submit (per-lane SLO accounting).
    lane_class lane = lane_class::bulk;
    /// A shard was skipped because the deadline had expired (guarded by
    /// mutex_).
    bool deadline_expired = false;
    /// The request's pinned model view: set at submit, read (lock-free) by
    /// every shard executor, released when the last shard completes.
    engine_lease lease;
    // --- stage-tracing timestamps, seconds relative to `timer` ----------
    /// Earliest shard-execution start (min across shards; guarded by
    /// mutex_). Negative until the first shard reports in.
    double first_exec_at = -1.0;
    /// Total shards this request was split into (for kept traces).
    std::size_t shard_count = 0;
    // --- wire tracing (sampled requests only) ----------------------------
    /// Trace correlation copied from the readout_request at submit; 0 means
    /// untraced and the span-emission branch in finish_request_locked is
    /// skipped entirely.
    std::uint64_t trace_id = 0;
    std::uint64_t trace_parent = 0;
    /// trace_clock_us() at submit — the absolute anchor that places the
    /// relative stage stamps (first_exec_at / latency) on the
    /// shared trace timeline. Stamped only for traced requests; a kept
    /// untraced request is anchored at completion instead.
    std::uint64_t submit_us = 0;
  };

  /// Validates the request and acquires the provider's current engines for
  /// it — the version active now is the one every shard of this request will
  /// run on.
  engine_lease lease_for(const readout_request& request) const;
  ticket submit_locked(const readout_request& request, engine_lease lease,
                       std::unique_lock<std::mutex>& lock);
  /// One shard's pass through execute_range: what its preamble decided and
  /// how its execution ended — the input to complete_shard.
  struct shard_run {
    slot* s = nullptr;
    double exec_begin = 0.0;  // on the request's own submit timer
    bool cancelled = false;   // skipped: cancel() landed before the start
    bool expired = false;     // skipped: deadline passed before the start
    bool event_fired = false;
    std::exception_ptr error;
    bool skipped() const noexcept { return cancelled || expired; }
  };

  /// Rows [begin, end) through the slot's pinned engine, on this thread's
  /// scratch arena.
  void run_shard(slot& s, std::size_t begin, std::size_t end) const;
  /// Shard preamble: stamps the exec start, then checks cancellation, the
  /// deadline and the "serve.shard.run" fault point. True when the shard
  /// should execute; a skipped or faulted shard still goes through
  /// complete_shard.
  bool start_shard(shard_run& run) const;
  /// The on_shard event for rows [begin, end) of a request's result.
  static shard_event shard_event_for(const slot& s, std::size_t begin,
                                     std::size_t end);
  /// Runs one contiguous row range of a request (a dispatched shard, or a
  /// whole inline feedback request) and completes it.
  void execute_range(slot* raw, std::size_t begin, std::size_t end);
  /// Completion of one shard: shard timing, error and failure counting, any
  /// demote (with mutex_ released but before the shard is accounted, so the
  /// tripping request resolves after its rollback), shard accounting, and —
  /// for the request's last shard — status precedence,
  /// finish_request_locked and, with the lock released, the doorbell. The
  /// shard leaves outstanding_shards_ only after its last read of the
  /// server: the last shard re-takes mutex_ after the doorbell to do so.
  void complete_shard(const shard_run& run);
  void recycle_locked(std::unique_ptr<slot> s, readout_result* swap_with);

  /// Backs the vector constructor; null when serving an external provider.
  std::unique_ptr<static_engine_provider> owned_provider_;
  const engine_provider* provider_ = nullptr;
  server_config config_;
  std::size_t shard_shots_ = 0;  // config_.shard_shots after the round-up

  mutable std::mutex mutex_;
  std::condition_variable completed_;  // slot done / all shards drained
  std::condition_variable capacity_;   // inflight dropped below the bound
  std::uint64_t next_ticket_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<slot>> active_;
  std::vector<std::unique_ptr<slot>> free_slots_;
  /// Shards submitted and not yet finished with the server; drain(), the
  /// destructor and set_on_complete wait for it to reach zero.
  std::size_t outstanding_shards_ = 0;

  // --- telemetry: labeled metric cells -----------------------------------
  // Every count lives in a metric family of `metrics_` (the private
  // registry, or server_config::metrics). Handles are pre-resolved here so
  // the submit/shard paths never touch a registry lock — recording is the
  // cell's relaxed atomic. stats() sums the cells back into server_stats.

  /// Per-(qubit, engine, status) stage-histogram handles. The `ok` column
  /// is resolved at construction (the hot path); anomalous statuses are
  /// resolved lazily at their first completion (under mutex_ — the
  /// anomaly path is not throughput-critical until it happens once).
  struct stage_cells {
    obs::log_histogram* queue = nullptr;
    obs::log_histogram* exec = nullptr;
  };
  /// Handles for one (qubit, engine) pair.
  struct engine_cells {
    obs::counter* submitted = nullptr;
    obs::counter* shots_submitted = nullptr;
    obs::counter* shots_completed = nullptr;
    obs::counter* shard_failures = nullptr;       // lazy (failure path)
    std::array<obs::counter*, 4> completed{};     // by request_status
    std::array<stage_cells, 4> stages{};          // by request_status
    obs::log_histogram* shard_exec = nullptr;
  };
  struct qubit_cells {
    obs::counter* version_switches = nullptr;
    obs::counter* rollbacks = nullptr;            // lazy (failure path)
  };

  /// Resolves the eager handle tables against metrics_.
  void init_metrics();
  /// Returns the (qubit, engine, status) cells, resolving lazily for
  /// non-ok statuses. Requires mutex_ (the lazy write).
  engine_cells& cells_locked(std::size_t qubit, engine_kind engine);
  stage_cells& stages_locked(std::size_t qubit, engine_kind engine,
                             request_status status);
  /// Completion bookkeeping shared by the shard path and the zero-shot
  /// submit path: status counters, stage/latency records, stage spans for
  /// traced requests and the trace ring's kept set. Requires mutex_; `raw`
  /// must already be done with its status and latency resolved.
  void finish_request_locked(slot* raw, engine_kind engine);

  std::unique_ptr<obs::metric_registry> owned_metrics_;
  obs::metric_registry* metrics_ = nullptr;
  std::unique_ptr<obs::trace_ring> owned_traces_;
  obs::trace_ring* traces_ = nullptr;

  stopwatch uptime_;
  std::vector<std::array<engine_cells, 2>> cells_;  // [qubit][engine_kind]
  std::vector<qubit_cells> qubit_cells_;
  obs::counter* shard_events_cell_ = nullptr;
  obs::gauge* inflight_cell_ = nullptr;
  obs::log_histogram* request_seconds_ = nullptr;
  /// Per-lane SLO series, indexed by lane_class: submissions and
  /// submit→completion latency (the feedback-vs-bulk separation the network
  /// front end's scheduler must demonstrate).
  std::array<obs::counter*, 2> lane_submitted_{};
  std::array<obs::log_histogram*, 2> lane_seconds_{};

  /// Consecutive shard failures per qubit (guarded by mutex_); reaching
  /// config_.failure_threshold triggers a provider demote and resets.
  std::vector<std::size_t> consecutive_failures_;
  /// Last acquired version per qubit (guarded by mutex_); the sentinel marks
  /// "no request yet" so the first acquisition is not counted as a switch.
  std::vector<std::uint64_t> last_version_;
};

}  // namespace klinq::serve
