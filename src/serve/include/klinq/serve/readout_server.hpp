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
// Small-request batching: with `coalesce_shots` > 0, requests of at most
// that many shots (never more than one 64-lane kernel tile) are held in a
// per-(qubit, engine) pending batch and merged into ONE dispatched task —
// one queue round-trip and one arena acquisition for the whole batch — once
// the batch accumulates a full shard's worth of shots. Inside the task the
// members are lane-packed: grouped by pinned engine version and trace
// duration, then fused into shared 64-lane kernel tiles, so one fc_plane /
// mac_tile invocation evaluates many requests' shots instead of each member
// paying a full padded tile alone. Partial batches are flushed by wait()
// (only the awaited ticket's batch — other streams keep accumulating), by
// drain() and destruction (everything), and whenever the inflight window
// would otherwise fill with undispatched parked work (submit at capacity,
// try_submit returning nullopt, or parking itself meeting a full window) —
// so every ticket completes and non-blocking producers cannot livelock.
// poll() alone does NOT flush (a held ticket polls false until something
// flushes). Batching changes no observable result: the fixed datapath is
// exact integer arithmetic and the float plane kernels are lane-invariant,
// so every member's registers/logits are bit-identical to unbatched
// execution, and each member still resolves individually (its own status,
// deadline, cancellation, on_shard event, and stage spans). The trade is
// per-request latency (hold time is included in the latency telemetry) —
// built for mid-circuit clients streaming many small same-qubit blocks.
//
// Steady-state allocation: completed slots and shard arenas are recycled
// through free-lists. The wait(ticket, result&) overload swaps buffers with
// the caller, so a submit/wait loop that reuses one readout_result performs
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
// shard's row range (decisions + engine-native logits) from the worker
// thread that produced it, before the whole request drains — see
// shard_event in request.hpp for the aliasing/threading contract.
//
// Failure model: a request always resolves — as ok, timed_out (its deadline
// expired before every shard ran; late answers are worthless to feedback
// loops, so unstarted shards are skipped rather than computed), cancelled
// (cancel(ticket) landed in flight), or failed (a shard threw; wait()
// rethrows). Skipped and failed shards still run completion accounting, so
// wait() never blocks forever, arenas return to the pool, and coalesced
// batches drain. Persistent failures self-heal: failure_threshold
// consecutive shard failures on one qubit ask the engine provider to demote
// the serving version (the registry rolls back to last-known-good). The
// fault points compiled into this path (klinq/fault/fault.hpp:
// "serve.submit.lease", "serve.shard.run") let tests and the --chaos demo
// inject all of it deterministically.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
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
#include "klinq/serve/shard_scheduler.hpp"
#include "klinq/serve/telemetry.hpp"

namespace klinq::serve {

struct server_config {
  /// Rows per shard; 0 = scheduler default (four cache tiles). Validated at
  /// server construction: values above kMaxShardShots (a wrapped negative
  /// from a careless cast, say) are rejected instead of silently clamped.
  std::size_t shard_shots = 0;
  /// Maximum unresolved tickets before submit() blocks. Must be positive.
  std::size_t max_inflight = 64;
  /// Requests with at most this many shots are held, merged with other
  /// pending small requests for the same (qubit, engine) into one dispatched
  /// batch, and lane-packed into shared kernel tiles (see the batching note
  /// above). 0 disables batching; values above kMaxCoalesceShots (one
  /// kernel tile) are rejected — a larger request already fills its own.
  std::size_t coalesce_shots = 0;
  /// Streaming partial results: invoked from worker threads as each shard of
  /// a request finishes (see shard_callback's contract in request.hpp).
  /// Empty disables the per-shard notifications.
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
  /// completion_callback in request.hpp). Empty disables it. The TCP front
  /// end uses this to wake its poll loop instead of polling.
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
  /// carrying a nonzero readout_request::trace_id get their hold/queue/exec
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

  /// Largest coalesce_shots value — one engine kernel tile
  /// (hw::quantized_network::kBatchTile == nn::kernels::max_tile_lanes), the
  /// unit a lane pack evaluates at once.
  static constexpr std::size_t kMaxCoalesceShots = 64;

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
  std::size_t shard_shots() const noexcept { return scheduler_.shard_shots(); }

  /// Enqueues a request, blocking while the server is at max_inflight.
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
  /// hold/queue/exec spans.
  const obs::trace_ring& traces() const noexcept { return *traces_; }

 private:
  static constexpr std::uint64_t kNoVersionYet =
      ~static_cast<std::uint64_t>(0);

  struct slot {
    std::uint64_t id = 0;
    readout_result result;
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
    // --- stage-tracing timestamps, all seconds relative to `timer` -------
    /// When the request left the submit path for the scheduler (≈0 for a
    /// direct dispatch; the coalesce hold time for a parked member).
    /// Stamped under mutex_ at the moment the slot leaves the submit path or
    /// its batch leaves pending_ — never after the unlock — so a hold span
    /// can neither race a concurrent submit nor run past the dispatch point.
    double dispatch_at = 0.0;
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
    /// relative stage stamps (dispatch_at / first_exec_at / latency) on the
    /// shared trace timeline. Stamped only for traced requests; a kept
    /// untraced request is anchored at completion instead.
    std::uint64_t submit_us = 0;
  };

  /// One small request parked in a coalescing batch: the borrowed request
  /// plus its already-allocated slot.
  struct pending_member {
    readout_request request;
    slot* s = nullptr;
  };
  struct pending_batch {
    std::vector<pending_member> members;
    std::size_t shots = 0;
  };

  /// Validates the request and acquires the provider's current engines for
  /// it — the version active now is the one every shard of this request will
  /// run on.
  engine_lease lease_for(const readout_request& request) const;
  ticket submit_locked(const readout_request& request, engine_lease lease,
                       std::unique_lock<std::mutex>& lock);
  /// One member's pass through a shard executor: what its preamble decided
  /// and how its execution ended — the input to complete_members.
  struct member_run {
    slot* s = nullptr;
    double exec_begin = 0.0;  // on the member's own submit timer
    bool cancelled = false;   // skipped: cancel() landed before the start
    bool expired = false;     // skipped: deadline passed before the start
    bool event_fired = false;
    std::exception_ptr error;
    bool skipped() const noexcept { return cancelled || expired; }
  };

  void run_shard(slot& s, const readout_request& request, std::size_t begin,
                 std::size_t end, shard_arena& arena) const;
  /// Shard preamble: stamps the exec start, then checks cancellation, the
  /// deadline and the "serve.shard.run" fault point. True when the member
  /// should execute; a skipped or faulted member still goes through
  /// complete_members.
  bool start_member(member_run& run) const;
  /// The on_shard event for rows [begin, end) of a member's result.
  static shard_event shard_event_for(const slot& s, std::size_t begin,
                                     std::size_t end);
  /// Runs one contiguous row range of a request (a shard, or a batch member
  /// that shares no tile) and completes it.
  void execute_range(slot* raw, const readout_request& request,
                     std::size_t begin, std::size_t end, shard_arena& arena);
  /// Enqueues a merged batch as one scheduler task. The batch must already
  /// be stamped (stamp_dispatch_locked) — its members left pending_ under
  /// the lock that called this.
  void dispatch_batch(pending_batch batch);
  /// Runs a merged batch inside its scheduler task: groups members by
  /// pinned engine identity and trace duration, chunks each group greedily
  /// into kMaxCoalesceShots lanes, and runs each chunk through execute_pack
  /// (a chunk of one through execute_range).
  void run_batch(const std::vector<pending_member>& members,
                 shard_arena& arena);
  /// Evaluates one lane pack (>= 2 members) through a single shared kernel
  /// tile, honoring each member's cancellation/deadline/fault individually,
  /// then completes every member.
  void execute_pack(const pending_member* const* pack, std::size_t count,
                    shard_arena& arena);
  /// The one per-member completion routine behind both executors, for
  /// members of one (qubit, engine): shard timing, error and failure
  /// counting with the demote decision, shard accounting, status precedence
  /// and finish_request_locked — all under one mutex_ acquisition — then,
  /// with the lock released, the completion doorbells and any demote.
  void complete_members(member_run* runs, std::size_t count);
  /// Stamps the coalesce-hold end on every member. Requires mutex_ — the
  /// batch must be leaving pending_ under the same lock, so no member can
  /// join after the stamp.
  void stamp_dispatch_locked(pending_batch& batch);
  /// Dispatches every parked coalescing batch (drain/teardown and
  /// capacity-limited submits call this so held tickets always complete;
  /// submit_locked also flushes whenever parking would leave the inflight
  /// window full of undispatched work).
  void flush_pending();
  /// Dispatches only the parked batch holding `t` (no-op when the ticket is
  /// not parked) — wait()'s flush, which leaves other streams' batches
  /// accumulating so prompt waiters don't defeat the amortization.
  void flush_pending_for(ticket t);
  /// Removes every parked batch from pending_ into `out` (caller dispatches
  /// after unlocking).
  void take_pending_locked(std::vector<pending_batch>& out);
  void recycle_locked(std::unique_ptr<slot> s, readout_result* swap_with);

  /// Backs the vector constructor; null when serving an external provider.
  std::unique_ptr<static_engine_provider> owned_provider_;
  const engine_provider* provider_ = nullptr;
  server_config config_;
  shard_scheduler scheduler_;

  mutable std::mutex mutex_;
  std::condition_variable completed_;  // slot done / all shards drained
  std::condition_variable capacity_;   // inflight dropped below the bound
  std::uint64_t next_ticket_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<slot>> active_;
  std::vector<std::unique_ptr<slot>> free_slots_;
  std::size_t outstanding_shards_ = 0;
  /// Parked coalescing batches keyed by qubit * 2 + engine (guarded by
  /// mutex_; their slots already live in active_ and count against
  /// max_inflight and outstanding_shards_).
  std::unordered_map<std::uint64_t, pending_batch> pending_;

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
    obs::log_histogram* hold = nullptr;
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
  obs::counter* requests_coalesced_cell_ = nullptr;
  obs::counter* coalesced_batches_cell_ = nullptr;
  obs::counter* packed_requests_cell_ = nullptr;
  obs::counter* packed_batches_cell_ = nullptr;
  obs::counter* shard_events_cell_ = nullptr;
  obs::gauge* inflight_cell_ = nullptr;
  obs::log_histogram* request_seconds_ = nullptr;
  /// Per-lane SLO series, indexed by lane_class: submissions and
  /// submit→completion latency (the feedback-vs-bulk separation the network
  /// front end's scheduler must demonstrate).
  std::array<obs::counter*, 2> lane_submitted_{};
  std::array<obs::log_histogram*, 2> lane_seconds_{};
  /// Occupied lanes per dispatched pack (1..kMaxCoalesceShots) — how full
  /// the shared tiles actually run.
  obs::log_histogram* lane_occupancy_ = nullptr;

  /// Consecutive shard failures per qubit (guarded by mutex_); reaching
  /// config_.failure_threshold triggers a provider demote and resets.
  std::vector<std::size_t> consecutive_failures_;
  /// Last acquired version per qubit (guarded by mutex_); the sentinel marks
  /// "no request yet" so the first acquisition is not counted as a switch.
  std::vector<std::uint64_t> last_version_;
};

}  // namespace klinq::serve
