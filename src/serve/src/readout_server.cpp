#include "klinq/serve/readout_server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <span>
#include <string>
#include <utility>

#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/fault/fault.hpp"
#include "klinq/hw/quantized_network.hpp"

namespace klinq::serve {

namespace {

constexpr std::size_t kTile = hw::quantized_network<fx::q16_16>::kBatchTile;

/// One shard's engine scratch: both engines' arenas side by side, so one
/// arena serves mixed fixed/float traffic.
struct shard_arena {
  hw::discriminator_scratch<fx::q16_16> fixed;
  kd::student_scratch student;
};

/// Rows per shard for a validated server_config::shard_shots. 0 picks four
/// engine tiles: large enough to amortize the queue round trip, small
/// enough that a 4096-shot request still fans out 16 ways. Other sizes
/// round up to whole tiles, so a shard boundary never splits a cache tile.
std::size_t tiled_shard_shots(std::size_t requested) {
  if (requested == 0) return 4 * kTile;
  return (requested + kTile - 1) / kTile * kTile;
}

}  // namespace

const char* engine_name(engine_kind engine) noexcept {
  switch (engine) {
    case engine_kind::fixed_q16:
      return "fixed-q16.16";
    case engine_kind::float_student:
      return "float-student";
  }
  return "unknown";
}

const char* status_name(request_status status) noexcept {
  switch (status) {
    case request_status::ok:
      return "ok";
    case request_status::timed_out:
      return "timed-out";
    case request_status::cancelled:
      return "cancelled";
    case request_status::failed:
      return "failed";
  }
  return "unknown";
}

const char* lane_name(lane_class lane) noexcept {
  switch (lane) {
    case lane_class::bulk:
      return "bulk";
    case lane_class::feedback:
      return "feedback";
  }
  return "unknown";
}

engine_lease static_engine_provider::acquire(std::size_t qubit) const {
  KLINQ_REQUIRE(qubit < qubits_.size(),
                "static_engine_provider: qubit index out of range");
  return {qubits_[qubit], 0, nullptr};
}

void server_config::validate() const {
  KLINQ_REQUIRE(max_inflight > 0,
                "server_config: max_inflight must be positive");
  KLINQ_REQUIRE(shard_shots <= kMaxShardShots,
                "server_config: shard_shots is implausibly large (wrapped "
                "negative?)");
  KLINQ_REQUIRE(
      std::isfinite(default_deadline_seconds) &&
          default_deadline_seconds >= 0.0,
      "server_config: default_deadline_seconds must be finite and "
      "non-negative");
  KLINQ_REQUIRE(failure_threshold > 0,
                "server_config: failure_threshold must be positive (disable "
                "the demote policy with a large value, not 0)");
  KLINQ_REQUIRE(
      std::isfinite(feedback_default_deadline_seconds) &&
          feedback_default_deadline_seconds >= 0.0,
      "server_config: feedback_default_deadline_seconds must be finite and "
      "non-negative");
}

void server_stats::validate() const {
  KLINQ_REQUIRE(requests_completed <= requests_submitted,
                "server_stats: more completions than submissions");
  KLINQ_REQUIRE(
      failed_requests + timed_out_requests + cancelled_requests <=
          requests_completed,
      "server_stats: terminal-status counts exceed total completions");
  KLINQ_REQUIRE(shots_completed <= shots_submitted,
                "server_stats: more shots completed than submitted");
  KLINQ_REQUIRE(feedback_requests <= requests_submitted,
                "server_stats: more feedback submissions than submissions");
  // inflight counts unconsumed tickets (completed-but-unclaimed slots
  // included), so it is bounded by submissions, not by their difference
  // from completions.
  KLINQ_REQUIRE(inflight <= requests_submitted,
                "server_stats: inflight exceeds submissions");
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  KLINQ_REQUIRE(non_negative(uptime_seconds) &&
                    non_negative(shots_per_second) &&
                    non_negative(latency_p50_seconds) &&
                    non_negative(latency_p99_seconds) &&
                    non_negative(feedback_p50_seconds) &&
                    non_negative(feedback_p99_seconds) &&
                    non_negative(bulk_p50_seconds) &&
                    non_negative(bulk_p99_seconds),
                "server_stats: negative or non-finite timing field");
  KLINQ_REQUIRE(feedback_p50_seconds <= feedback_p99_seconds ||
                    feedback_p99_seconds == 0.0,
                "server_stats: feedback p50 exceeds p99");
  KLINQ_REQUIRE(bulk_p50_seconds <= bulk_p99_seconds ||
                    bulk_p99_seconds == 0.0,
                "server_stats: bulk p50 exceeds p99");
}

readout_server::readout_server(std::vector<qubit_engine> qubits,
                               server_config config)
    : owned_provider_(std::make_unique<static_engine_provider>(
          [&qubits] {
            KLINQ_REQUIRE(!qubits.empty(), "readout_server: no qubit engines");
            for (const qubit_engine& engine : qubits) {
              KLINQ_REQUIRE(
                  engine.student != nullptr || engine.hardware != nullptr,
                  "readout_server: qubit engine exposes no datapath");
            }
            return std::move(qubits);
          }())),
      provider_(owned_provider_.get()),
      config_(std::move(config)),
      consecutive_failures_(provider_->qubit_count(), 0),
      last_version_(provider_->qubit_count(), kNoVersionYet) {
  config_.validate();
  shard_shots_ = tiled_shard_shots(config_.shard_shots);
  init_metrics();
}

readout_server::readout_server(const engine_provider& provider,
                               server_config config)
    : provider_(&provider),
      config_(std::move(config)),
      consecutive_failures_(provider_->qubit_count(), 0),
      last_version_(provider_->qubit_count(), kNoVersionYet) {
  KLINQ_REQUIRE(provider_->qubit_count() > 0,
                "readout_server: provider serves no qubits");
  config_.validate();
  shard_shots_ = tiled_shard_shots(config_.shard_shots);
  init_metrics();
}

namespace {

obs::log_histogram& stage_histogram(obs::metric_registry& metrics,
                                    const char* stage,
                                    const std::string& qubit,
                                    const char* engine, const char* status) {
  return metrics.get_histogram(
      "klinq_serve_stage_seconds",
      {{"stage", stage}, {"qubit", qubit}, {"engine", engine},
       {"status", status}},
      "Per-request stage durations: queue wait, shard execution");
}

}  // namespace

void readout_server::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::metric_registry>();
    metrics_ = owned_metrics_.get();
  }
  if (config_.traces != nullptr) {
    traces_ = config_.traces;
  } else {
    // Never armed (traces() is const), so a one-span FIFO suffices: only
    // the kept set fills.
    owned_traces_ = std::make_unique<obs::trace_ring>(1);
    traces_ = owned_traces_.get();
  }
  obs::metric_registry& m = *metrics_;
  shard_events_cell_ =
      &m.get_counter("klinq_serve_shard_events_total", {},
                     "Shard completions delivered to on_shard");
  inflight_cell_ = &m.get_gauge("klinq_serve_inflight", {},
                                "Submitted requests not yet consumed");
  request_seconds_ =
      &m.get_histogram("klinq_serve_request_seconds", {},
                       "Request latency, submit to completion");
  for (std::size_t l = 0; l < lane_seconds_.size(); ++l) {
    const char* ln = lane_name(static_cast<lane_class>(l));
    lane_submitted_[l] =
        &m.get_counter("klinq_serve_lane_requests_total", {{"lane", ln}},
                       "Requests accepted, by latency class");
    lane_seconds_[l] = &m.get_histogram(
        "klinq_serve_lane_seconds", {{"lane", ln}},
        "Request latency by latency class (the per-lane SLO series)");
  }
  const std::size_t qubits = provider_->qubit_count();
  cells_.resize(qubits);
  qubit_cells_.resize(qubits);
  for (std::size_t q = 0; q < qubits; ++q) {
    const std::string qs = std::to_string(q);
    qubit_cells_[q].version_switches = &m.get_counter(
        "klinq_serve_version_switches_total", {{"qubit", qs}},
        "Submits that pinned a different model version than the qubit's "
        "previous request");
    for (std::size_t e = 0; e < cells_[q].size(); ++e) {
      const char* en = engine_name(static_cast<engine_kind>(e));
      const obs::label_list qe{{"qubit", qs}, {"engine", en}};
      engine_cells& cells = cells_[q][e];
      cells.submitted = &m.get_counter("klinq_serve_requests_submitted_total",
                                       qe, "Requests accepted by submit");
      cells.shots_submitted = &m.get_counter(
          "klinq_serve_shots_submitted_total", qe, "Shots accepted");
      cells.shots_completed =
          &m.get_counter("klinq_serve_shots_completed_total", qe,
                         "Shots whose request completed");
      // The ok column is the hot path and resolves eagerly; anomalous
      // statuses materialize on first occurrence (finish_request_locked).
      cells.completed[0] = &m.get_counter(
          "klinq_serve_requests_completed_total",
          {{"qubit", qs}, {"engine", en}, {"status", "ok"}},
          "Requests resolved, by terminal status");
      cells.stages[0] = {&stage_histogram(m, "queue", qs, en, "ok"),
                         &stage_histogram(m, "exec", qs, en, "ok")};
      cells.shard_exec = &m.get_histogram("klinq_serve_shard_exec_seconds",
                                          qe, "Single-shard execution time");
    }
  }
}

readout_server::engine_cells& readout_server::cells_locked(
    std::size_t qubit, engine_kind engine) {
  return cells_[qubit][static_cast<std::size_t>(engine)];
}

readout_server::stage_cells& readout_server::stages_locked(
    std::size_t qubit, engine_kind engine, request_status status) {
  stage_cells& st =
      cells_locked(qubit, engine).stages[static_cast<std::size_t>(status)];
  if (st.queue == nullptr) {
    const std::string qs = std::to_string(qubit);
    const char* en = engine_name(engine);
    const char* sn = status_name(status);
    st = {&stage_histogram(*metrics_, "queue", qs, en, sn),
          &stage_histogram(*metrics_, "exec", qs, en, sn)};
  }
  return st;
}

void readout_server::finish_request_locked(slot* raw, engine_kind engine) {
  const std::size_t qubit = raw->result.qubit;
  const request_status status = raw->result.status;
  engine_cells& cells = cells_locked(qubit, engine);
  obs::counter*& completed =
      cells.completed[static_cast<std::size_t>(status)];
  if (completed == nullptr) {
    completed = &metrics_->get_counter(
        "klinq_serve_requests_completed_total",
        {{"qubit", std::to_string(qubit)}, {"engine", engine_name(engine)},
         {"status", status_name(status)}},
        "Requests resolved, by terminal status");
  }
  completed->inc();
  cells.shots_completed->inc(raw->shots);
  // Stage boundaries on the trace clock's microsecond grid, relative to
  // submit: queue is the wait from submit until the first shard started
  // (≈0 for an inline feedback request; 0 for a zero-shot one, which has
  // no shard), exec covers first shard start → last shard done. Each
  // boundary is floor(t·1e6) and each stage the difference of two, so the
  // two stages tile the request exactly.
  const double total = raw->result.latency_seconds;
  const auto to_us = [](double seconds) {
    return static_cast<std::uint64_t>(std::max(seconds, 0.0) * 1e6);
  };
  const std::uint64_t exec_us = to_us(raw->first_exec_at);
  const std::uint64_t done_us = std::max(exec_us, to_us(total));
  stage_cells& stages = stages_locked(qubit, engine, status);
  stages.queue->record(static_cast<double>(exec_us) * 1e-6);
  stages.exec->record(static_cast<double>(done_us - exec_us) * 1e-6);
  request_seconds_->record(total);
  lane_seconds_[static_cast<std::size_t>(raw->lane)]->record(total);

  // Spans: recorded for traced requests (the ring was armed at submit),
  // kept for anomalies and slow requests whatever the sampling decision.
  obs::trace_ring& ring = *traces_;
  const bool traced = raw->trace_id != 0;
  const bool anomalous = status != request_status::ok;
  const bool keep = ring.should_keep(done_us, anomalous);
  if (!traced && !keep) return;
  std::uint64_t submit_us = raw->submit_us;
  if (!traced) {
    const std::uint64_t now_us = obs::trace_clock_us();
    submit_us = now_us - std::min(now_us, done_us);
  }
  const std::uint64_t trace_id = traced ? raw->trace_id : ring.next_trace_id();
  // Both spans share the client's parent so the RTT span brackets them
  // in the viewer.
  const auto span = [&](const char* name, std::uint64_t begin_us,
                        std::uint64_t end_us) {
    obs::trace_span out;
    out.trace_id = trace_id;
    out.span_id = ring.next_span_id();
    out.parent_span = raw->trace_parent;
    out.start_us = submit_us + begin_us;
    out.duration_us = end_us - begin_us;
    out.name = name;
    out.category = "serve";
    return out;
  };
  const std::array<obs::trace_span, 2> spans{
      span("serve.queue", 0, exec_us),
      span("serve.exec", exec_us, done_us)};
  if (traced) {
    for (const obs::trace_span& sampled : spans) ring.record(sampled);
  }
  if (keep) {
    obs::kept_trace entry;
    entry.trace_id = trace_id;
    entry.status = status_name(status);
    entry.anomalous = anomalous;
    entry.duration_us = done_us;
    entry.spans.assign(spans.begin(), spans.end());
    entry.attributes = {
        {"qubit", std::to_string(qubit)},
        {"engine", engine_name(engine)},
        {"version", std::to_string(raw->result.model_version)},
        {"shots", std::to_string(raw->shots)},
        {"shards", std::to_string(raw->shard_count)}};
    ring.keep(std::move(entry));
  }
}

readout_server::~readout_server() {
  // Unconsumed results are discarded, but every enqueued shard still holds a
  // pointer into this server: drain() waits for all of them.
  drain();
  // Log every dropped non-ok result (its counters were recorded at
  // completion, so stats() already reflected it).
  const std::lock_guard lock(mutex_);
  for (const auto& [id, s] : active_) {
    if (s->result.status == request_status::ok) continue;
    log_warn("readout_server: dropping unconsumed ",
             status_name(s->result.status), " ticket ", id, " (qubit ",
             s->result.qubit, ", ", s->shots, " shots)");
  }
}

engine_lease readout_server::lease_for(const readout_request& request) const {
  KLINQ_REQUIRE(request.qubit < provider_->qubit_count(),
                "readout_server: qubit index out of range");
  KLINQ_REQUIRE(request.traces != nullptr,
                "readout_server: request has no trace block");
  KLINQ_REQUIRE(
      std::isfinite(request.deadline_seconds) &&
          request.deadline_seconds >= 0.0,
      "readout_server: request deadline must be finite and non-negative");
  fault::trigger("serve.submit.lease");
  engine_lease lease = provider_->acquire(request.qubit);
  if (request.engine == engine_kind::fixed_q16) {
    KLINQ_REQUIRE(lease.engine.hardware != nullptr,
                  "readout_server: qubit has no fixed-point engine");
  } else {
    KLINQ_REQUIRE(lease.engine.student != nullptr,
                  "readout_server: qubit has no float engine");
  }
  return lease;
}

ticket readout_server::submit(const readout_request& request) {
  // Validate and acquire before queueing: the version active at submit time
  // is the one this request is pinned to, even if it then blocks on
  // capacity.
  engine_lease lease = lease_for(request);
  std::unique_lock lock(mutex_);
  capacity_.wait(lock,
                 [this] { return active_.size() < config_.max_inflight; });
  return submit_locked(request, std::move(lease), lock);
}

std::optional<ticket> readout_server::try_submit(
    const readout_request& request) {
  engine_lease lease = lease_for(request);
  std::unique_lock lock(mutex_);
  if (active_.size() >= config_.max_inflight) return std::nullopt;
  return submit_locked(request, std::move(lease), lock);
}

ticket readout_server::submit_locked(const readout_request& request,
                                     engine_lease lease,
                                     std::unique_lock<std::mutex>& lock) {
  const std::size_t shots = request.traces->size();
  std::unique_ptr<slot> s;
  if (!free_slots_.empty()) {
    s = std::move(free_slots_.back());
    free_slots_.pop_back();
  } else {
    s = std::make_unique<slot>();
  }
  s->id = next_ticket_++;
  s->shots = shots;
  s->traces = request.traces;
  s->remaining_shards = (shots + shard_shots_ - 1) / shard_shots_;
  s->done = false;
  s->error = nullptr;
  s->deadline_seconds = request.deadline_seconds;
  if (s->deadline_seconds <= 0.0 && request.lane == lane_class::feedback) {
    s->deadline_seconds = config_.feedback_default_deadline_seconds;
  }
  if (s->deadline_seconds <= 0.0) {
    s->deadline_seconds = config_.default_deadline_seconds;
  }
  s->lane = request.lane;
  s->cancelled.store(false, std::memory_order_relaxed);
  s->deadline_expired = false;
  s->result.qubit = request.qubit;
  s->result.engine = request.engine;
  s->result.latency_seconds = 0.0;
  s->result.status = request_status::ok;
  s->result.model_version = lease.version;
  if (last_version_[request.qubit] != kNoVersionYet &&
      last_version_[request.qubit] != lease.version) {
    qubit_cells_[request.qubit].version_switches->inc();
  }
  last_version_[request.qubit] = lease.version;
  s->lease = std::move(lease);
  // Recycled slots keep vector capacity: these resizes allocate only until
  // the pool has seen this request size once.
  s->result.states.resize(shots);
  if (request.engine == engine_kind::fixed_q16) {
    s->result.registers.resize(shots);
    s->result.logits.clear();
  } else {
    s->result.logits.resize(shots);
    s->result.registers.clear();
  }
  s->first_exec_at = -1.0;
  s->shard_count = s->remaining_shards;
  s->trace_id = 0;
  s->trace_parent = 0;
  s->submit_us = 0;
  if (request.trace_id != 0 && traces_->armed()) {
    s->trace_id = request.trace_id;
    s->trace_parent = request.trace_parent;
    s->submit_us = obs::trace_clock_us();
  }
  s->timer.reset();

  slot* raw = s.get();
  const ticket t{raw->id};
  active_.emplace(raw->id, std::move(s));
  engine_cells& cells = cells_locked(request.qubit, request.engine);
  cells.submitted->inc();
  cells.shots_submitted->inc(shots);
  lane_submitted_[static_cast<std::size_t>(request.lane)]->inc();
  inflight_cell_->set(static_cast<double>(active_.size()));
  outstanding_shards_ += raw->remaining_shards;

  if (shots == 0) {
    raw->done = true;
    raw->lease = engine_lease{};  // nothing will run; release the snapshot
    raw->result.latency_seconds = raw->timer.seconds();
    const request_status status = raw->result.status;
    finish_request_locked(raw, request.engine);
    completed_.notify_all();
    if (config_.on_complete) {
      // The doorbell contract: no server lock held. The slot may be consumed
      // by a racing wait() the instant we unlock, so only locals from here.
      lock.unlock();
      config_.on_complete(t, status);
    }
    return t;
  }

  // Dispatch outside the lock: the pool has its own mutex, and shards may
  // even run inline here on a workerless (single-CPU) pool. The slot cannot
  // complete early — remaining_shards is already final — but it may be
  // consumed once its last shard is queued, so nothing below reads it.
  lock.unlock();
  if (request.lane == lane_class::feedback &&
      shots <= server_config::kMaxInlineShots) {
    // One shard of feedback runs here: a few microseconds of engine work,
    // where a queued task would wait behind any bulk shard already running.
    execute_range(raw, 0, shots);
    return t;
  }
  thread_pool& pool = global_thread_pool();
  for (std::size_t begin = 0; begin < shots; begin += shard_shots_) {
    const std::size_t end = std::min(begin + shard_shots_, shots);
    pool.submit([this, raw, begin, end] { execute_range(raw, begin, end); });
  }
  return t;
}

void readout_server::set_on_complete(completion_callback callback) {
  std::unique_lock lock(mutex_);
  KLINQ_REQUIRE(active_.empty(),
                "readout_server: set_on_complete requires no unresolved "
                "tickets (in-flight completions would race the handoff)");
  // A consumed ticket's last shard may still be ringing the doorbell (it
  // reads the callback lock-free); it stays counted until it has.
  completed_.wait(lock, [this] { return outstanding_shards_ == 0; });
  KLINQ_REQUIRE(active_.empty(),
                "readout_server: a submit raced set_on_complete");
  config_.on_complete = std::move(callback);
}

bool readout_server::start_shard(shard_run& run) const {
  // Expiry/cancellation are checked at shard start: a skipped shard costs
  // nothing but still runs complete_shard, which is what guarantees an
  // expired or cancelled ticket resolves instead of blocking wait() forever.
  const slot& s = *run.s;
  run.exec_begin = s.timer.seconds();
  run.cancelled = s.cancelled.load(std::memory_order_relaxed);
  run.expired = !run.cancelled && s.deadline_seconds > 0.0 &&
                run.exec_begin >= s.deadline_seconds;
  if (run.skipped()) return false;
  try {
    if (fault::trigger("serve.shard.run") == fault::action::drop) {
      throw fault::injected_fault(
          "injected fault at serve.shard.run: shard result dropped");
    }
  } catch (...) {
    run.error = std::current_exception();
    return false;
  }
  return true;
}

shard_event readout_server::shard_event_for(const slot& s, std::size_t begin,
                                            std::size_t end) {
  const readout_result& result = s.result;
  const std::size_t count = end - begin;
  shard_event event;
  event.request = ticket{s.id};
  event.qubit = result.qubit;
  event.engine = result.engine;
  event.model_version = result.model_version;
  event.row_begin = begin;
  event.row_end = end;
  event.states =
      std::span<const std::uint8_t>(result.states).subspan(begin, count);
  if (result.engine == engine_kind::fixed_q16) {
    event.registers =
        std::span<const fx::q16_16>(result.registers).subspan(begin, count);
  } else {
    event.logits = std::span<const float>(result.logits).subspan(begin, count);
  }
  return event;
}

void readout_server::execute_range(slot* raw, std::size_t begin,
                                   std::size_t end) {
  shard_run run{raw};
  if (start_shard(run)) {
    try {
      run_shard(*raw, begin, end);
      if (config_.on_shard) {
        // Safe to read the slot's buffers without the mutex: this shard is
        // not yet accounted, so the request cannot complete (and its ticket
        // cannot be consumed) until the callback returns.
        config_.on_shard(shard_event_for(*raw, begin, end));
        run.event_fired = true;
      }
    } catch (...) {
      run.error = std::current_exception();
    }
  }
  complete_shard(run);
}

void readout_server::complete_shard(const shard_run& run) {
  slot* raw = run.s;
  const std::size_t qubit = raw->result.qubit;
  const engine_kind engine = raw->result.engine;
  engine_cells& cells = cells_locked(qubit, engine);
  // Shard time on the request's own timer (ran or threw — either way it
  // held a worker this long). Lock-free: a pre-resolved histogram.
  if (!run.skipped()) {
    cells.shard_exec->record(raw->timer.seconds() - run.exec_begin);
  }
  std::unique_lock lock(mutex_);
  if (run.error && !raw->error) raw->error = run.error;
  if (run.event_fired) shard_events_cell_->inc();
  if (run.expired) raw->deadline_expired = true;
  if (raw->first_exec_at < 0.0 || run.exec_begin < raw->first_exec_at) {
    raw->first_exec_at = run.exec_begin;
  }
  if (run.error) {
    if (cells.shard_failures == nullptr) {
      cells.shard_failures = &metrics_->get_counter(
          "klinq_serve_shard_failures_total",
          {{"qubit", std::to_string(qubit)}, {"engine", engine_name(engine)}},
          "Shard executions that threw");
    }
    cells.shard_failures->inc();
    if (++consecutive_failures_[qubit] >= config_.failure_threshold) {
      // Reset before demoting so the next window needs a full threshold of
      // fresh failures (whether or not the provider switches). The demote
      // takes the provider's locks, so it runs with mutex_ released, but
      // before this shard is accounted: the tripping request stays open
      // until the rollback has landed.
      consecutive_failures_[qubit] = 0;
      const std::uint64_t failing_version = raw->result.model_version;
      lock.unlock();
      const bool demoted = provider_->demote(qubit, failing_version);
      lock.lock();
      if (demoted) {
        obs::counter*& cell = qubit_cells_[qubit].rollbacks;
        if (cell == nullptr) {
          cell = &metrics_->get_counter(
              "klinq_serve_rollbacks_total",
              {{"qubit", std::to_string(qubit)}},
              "Automatic demote-to-last-known-good rollbacks this server "
              "triggered");
        }
        cell->inc();
      }
    }
  } else if (!run.skipped()) {
    consecutive_failures_[qubit] = 0;
  }
  if (--raw->remaining_shards > 0) {
    // Nothing below reads the server, so this shard is finished. No notify:
    // the request's last shard is still out, so outstanding_shards_ stays
    // positive and no drain() can have been satisfied.
    --outstanding_shards_;
    return;
  }
  raw->done = true;
  raw->lease = engine_lease{};  // last shard done: release the snapshot
  raw->result.latency_seconds = raw->timer.seconds();
  // Resolution precedence: an explicit cancel outranks expiry, expiry
  // outranks a shard error (the caller asked for the answer's absence).
  if (raw->cancelled.load(std::memory_order_relaxed)) {
    raw->result.status = request_status::cancelled;
  } else if (raw->deadline_expired) {
    raw->result.status = request_status::timed_out;
  } else if (raw->error) {
    raw->result.status = request_status::failed;
  } else {
    raw->result.status = request_status::ok;
  }
  // Doorbell state, captured under the lock: once it releases, the slot may
  // be consumed and recycled, so the callback uses only these.
  const ticket t{raw->id};
  const request_status status = raw->result.status;
  finish_request_locked(raw, engine);
  completed_.notify_all();
  lock.unlock();
  if (config_.on_complete) config_.on_complete(t, status);
  // The doorbell was this shard's last read of the server: only now may
  // drain() — and so the destructor or set_on_complete — count it finished.
  lock.lock();
  if (--outstanding_shards_ == 0) completed_.notify_all();
}

void readout_server::run_shard(slot& s, std::size_t begin,
                               std::size_t end) const {
  // One arena per thread that runs shards: pool workers, the TCP loop
  // thread for inline feedback, in-process submitters. A shard touches it
  // only inside this call, and nothing here blocks on the pool (the engines'
  // block kernels are serial), so no other shard can start on this thread
  // while the arena is in use. A nested shard on the same thread — an
  // on_shard callback that submits — starts after this call has returned.
  thread_local shard_arena arena;
  // The slot's lease — not a fresh provider acquisition — so every shard of
  // a request runs on the version pinned at submit time.
  const qubit_engine& engine = s.lease.engine;
  const std::size_t count = end - begin;
  // Shards write disjoint row ranges of the slot's buffers: no locking on
  // the data plane.
  if (s.result.engine == engine_kind::fixed_q16) {
    const auto registers =
        std::span<fx::q16_16>(s.result.registers).subspan(begin, count);
    engine.hardware->logits_block(*s.traces, begin, end, registers,
                                  arena.fixed);
    for (std::size_t r = begin; r < end; ++r) {
      s.result.states[r] = s.result.registers[r].sign_bit() ? 0 : 1;
    }
  } else {
    const auto logits =
        std::span<float>(s.result.logits).subspan(begin, count);
    engine.student->predict_block(*s.traces, begin, end, logits,
                                  arena.student);
    for (std::size_t r = begin; r < end; ++r) {
      s.result.states[r] = (s.result.logits[r] >= 0.0f) ? 1 : 0;
    }
  }
}

bool readout_server::cancel(ticket t) {
  {
    const std::lock_guard lock(mutex_);
    const auto it = active_.find(t.id);
    KLINQ_REQUIRE(it != active_.end(),
                  "readout_server: unknown or already-consumed ticket");
    slot* raw = it->second.get();
    if (raw->done) return false;  // too late; the result stays claimable
    // Under mutex_ so the flag cannot race the done transition: if the last
    // shard has not completed yet, it (or a later skipped shard) will
    // observe the flag and the request resolves as cancelled.
    raw->cancelled.store(true, std::memory_order_relaxed);
  }
  return true;
}

bool readout_server::poll(ticket t) const {
  const std::lock_guard lock(mutex_);
  const auto it = active_.find(t.id);
  KLINQ_REQUIRE(it != active_.end(),
                "readout_server: unknown or already-consumed ticket");
  return it->second->done;
}

readout_result readout_server::wait(ticket t) {
  readout_result result;
  wait(t, result);
  return result;
}

void readout_server::wait(ticket t, readout_result& out) {
  std::unique_lock lock(mutex_);
  slot* raw;
  {
    const auto it = active_.find(t.id);
    KLINQ_REQUIRE(it != active_.end(),
                  "readout_server: unknown or already-consumed ticket");
    raw = it->second.get();
  }
  // Slot objects are stable (unique_ptrs shuttle between active_ and the
  // free-list), so `raw` outlives the wait even if a racing wait() consumes
  // the ticket; the predicate also wakes on disappearance so that race ends
  // in the throw below rather than in a stale-iterator dereference.
  completed_.wait(lock, [this, raw, &t] {
    return raw->done || active_.find(t.id) == active_.end();
  });
  const auto it = active_.find(t.id);
  KLINQ_REQUIRE(it != active_.end(),
                "readout_server: ticket consumed by a concurrent wait");

  std::unique_ptr<slot> s = std::move(it->second);
  active_.erase(it);
  inflight_cell_->set(static_cast<double>(active_.size()));
  capacity_.notify_one();

  // A failed request rethrows its first shard error; a timed-out or
  // cancelled one resolves through the status field instead (any shard
  // error it also collected is subsumed by the caller's own verdict).
  const std::exception_ptr error =
      s->result.status == request_status::failed ? s->error : nullptr;
  s->error = nullptr;
  recycle_locked(std::move(s), error ? nullptr : &out);
  if (error) {
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void readout_server::recycle_locked(std::unique_ptr<slot> s,
                                    readout_result* swap_with) {
  s->lease = engine_lease{};
  if (swap_with != nullptr) {
    swap_with->qubit = s->result.qubit;
    swap_with->engine = s->result.engine;
    swap_with->latency_seconds = s->result.latency_seconds;
    swap_with->model_version = s->result.model_version;
    swap_with->status = s->result.status;
    // Swapping (not moving) hands the caller's old buffers to the recycled
    // slot, so a submit/wait loop reusing one readout_result settles into
    // zero allocations.
    swap_with->states.swap(s->result.states);
    swap_with->registers.swap(s->result.registers);
    swap_with->logits.swap(s->result.logits);
  }
  free_slots_.push_back(std::move(s));
}

void readout_server::drain() {
  std::unique_lock lock(mutex_);
  completed_.wait(lock, [this] { return outstanding_shards_ == 0; });
}

server_stats readout_server::stats() const {
  // A view over the labeled metric cells: the flat lifetime struct is the
  // sum of its per-{qubit, engine, status} series. Taken under mutex_ so
  // the counts are mutually consistent (completions bump several cells
  // under the same lock).
  const std::lock_guard lock(mutex_);
  server_stats snapshot;
  for (std::size_t q = 0; q < cells_.size(); ++q) {
    for (const engine_cells& cells : cells_[q]) {
      snapshot.requests_submitted += cells.submitted->value();
      snapshot.shots_submitted += cells.shots_submitted->value();
      snapshot.shots_completed += cells.shots_completed->value();
      if (cells.shard_failures != nullptr) {
        snapshot.shard_failures += cells.shard_failures->value();
      }
      for (std::size_t s = 0; s < cells.completed.size(); ++s) {
        if (cells.completed[s] == nullptr) continue;  // never materialized
        const std::uint64_t n = cells.completed[s]->value();
        snapshot.requests_completed += n;
        switch (static_cast<request_status>(s)) {
          case request_status::ok: break;
          case request_status::timed_out: snapshot.timed_out_requests += n;
            break;
          case request_status::cancelled: snapshot.cancelled_requests += n;
            break;
          case request_status::failed: snapshot.failed_requests += n; break;
        }
      }
    }
    snapshot.version_switches += qubit_cells_[q].version_switches->value();
    if (qubit_cells_[q].rollbacks != nullptr) {
      snapshot.rollbacks += qubit_cells_[q].rollbacks->value();
    }
  }
  snapshot.shard_events = shard_events_cell_->value();
  snapshot.inflight = active_.size();
  snapshot.uptime_seconds = uptime_.seconds();
  snapshot.shots_per_second =
      snapshot.uptime_seconds > 0.0
          ? static_cast<double>(snapshot.shots_completed) /
                snapshot.uptime_seconds
          : 0.0;
  snapshot.latency_p50_seconds = request_seconds_->quantile(0.50);
  snapshot.latency_p99_seconds = request_seconds_->quantile(0.99);
  constexpr auto kFeedback = static_cast<std::size_t>(lane_class::feedback);
  constexpr auto kBulk = static_cast<std::size_t>(lane_class::bulk);
  snapshot.feedback_requests = lane_submitted_[kFeedback]->value();
  snapshot.feedback_p50_seconds = lane_seconds_[kFeedback]->quantile(0.50);
  snapshot.feedback_p99_seconds = lane_seconds_[kFeedback]->quantile(0.99);
  snapshot.bulk_p50_seconds = lane_seconds_[kBulk]->quantile(0.50);
  snapshot.bulk_p99_seconds = lane_seconds_[kBulk]->quantile(0.99);
  return snapshot;
}

}  // namespace klinq::serve
