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
#include "klinq/fault/fault.hpp"

namespace klinq::serve {

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
  KLINQ_REQUIRE(coalesce_shots <= kMaxCoalesceShots,
                "server_config: coalesce_shots exceeds one kernel tile "
                "(kMaxCoalesceShots)");
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
  KLINQ_REQUIRE(requests_coalesced <= requests_submitted,
                "server_stats: more coalesced requests than submissions");
  KLINQ_REQUIRE(packed_requests <= requests_coalesced,
                "server_stats: lane packing only applies to coalesced "
                "requests");
  KLINQ_REQUIRE(coalesced_batches <= requests_coalesced,
                "server_stats: a merged batch needs at least one member");
  KLINQ_REQUIRE(packed_batches <= packed_requests,
                "server_stats: a lane pack needs at least one member");
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
      scheduler_(global_thread_pool(), config_.shard_shots),
      consecutive_failures_(provider_->qubit_count(), 0),
      last_version_(provider_->qubit_count(), kNoVersionYet) {
  config_.validate();
  init_metrics();
}

readout_server::readout_server(const engine_provider& provider,
                               server_config config)
    : provider_(&provider),
      config_(std::move(config)),
      scheduler_(global_thread_pool(), config_.shard_shots),
      consecutive_failures_(provider_->qubit_count(), 0),
      last_version_(provider_->qubit_count(), kNoVersionYet) {
  KLINQ_REQUIRE(provider_->qubit_count() > 0,
                "readout_server: provider serves no qubits");
  config_.validate();
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
      "Per-request stage durations: coalesce hold, queue wait, shard "
      "execution");
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
  requests_coalesced_cell_ =
      &m.get_counter("klinq_serve_requests_coalesced_total", {},
                     "Requests routed through the coalescing path");
  coalesced_batches_cell_ =
      &m.get_counter("klinq_serve_coalesced_batches_total", {},
                     "Merged coalesced batches dispatched");
  packed_requests_cell_ =
      &m.get_counter("klinq_serve_packed_requests_total", {},
                     "Requests evaluated inside a shared lane-packed tile");
  packed_batches_cell_ =
      &m.get_counter("klinq_serve_packed_batches_total", {},
                     "Lane-packed kernel tiles dispatched");
  lane_occupancy_ =
      &m.get_histogram("klinq_serve_lane_occupancy", {},
                       "Occupied lanes per dispatched lane pack");
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
      cells.stages[0] = {&stage_histogram(m, "hold", qs, en, "ok"),
                         &stage_histogram(m, "queue", qs, en, "ok"),
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
  if (st.hold == nullptr) {
    const std::string qs = std::to_string(qubit);
    const char* en = engine_name(engine);
    const char* sn = status_name(status);
    st = {&stage_histogram(*metrics_, "hold", qs, en, sn),
          &stage_histogram(*metrics_, "queue", qs, en, sn),
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
  // submit: hold is the coalesce park time (0 for direct dispatch), queue is
  // scheduler wait until the first shard started, exec covers first shard
  // start → last shard done. Each boundary is floor(t·1e6) and each stage
  // the difference of two, so the three stages tile the request exactly.
  const double total = raw->result.latency_seconds;
  const auto to_us = [](double seconds) {
    return static_cast<std::uint64_t>(std::max(seconds, 0.0) * 1e6);
  };
  const std::uint64_t dispatch_us = to_us(raw->dispatch_at);
  const std::uint64_t exec_us = std::max(
      dispatch_us,
      to_us(raw->first_exec_at < 0.0 ? raw->dispatch_at : raw->first_exec_at));
  const std::uint64_t done_us = std::max(exec_us, to_us(total));
  stage_cells& stages = stages_locked(qubit, engine, status);
  stages.hold->record(static_cast<double>(dispatch_us) * 1e-6);
  stages.queue->record(static_cast<double>(exec_us - dispatch_us) * 1e-6);
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
  // All three spans share the client's parent so the RTT span brackets them
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
  const std::array<obs::trace_span, 3> spans{
      span("serve.hold", 0, dispatch_us),
      span("serve.queue", dispatch_us, exec_us),
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
  // pointer into this server — dispatch any parked coalescing batches, then
  // wait for all of them before tearing down.
  flush_pending();
  {
    std::unique_lock lock(mutex_);
    completed_.wait(lock, [this] { return outstanding_shards_ == 0; });
    // The drop is silent no longer: every unconsumed non-ok result is logged
    // on its way out (counters were recorded at completion time, so stats()
    // already reflected these even while unclaimed).
    for (const auto& [id, s] : active_) {
      if (s->result.status == request_status::ok) continue;
      log_warn("readout_server: dropping unconsumed ",
               status_name(s->result.status), " ticket ", id, " (qubit ",
               s->result.qubit, ", ", s->shots, " shots)");
    }
  }
  // outstanding_shards_ hits zero inside a task's locked completion block,
  // but the task *body* is still running after that: the post-notify demote
  // branch re-takes mutex_ and touches metrics_, both of which are destroyed
  // before scheduler_ (reverse member order). Wait for the task bodies
  // themselves — the scheduler decrements its pending count only after a
  // body fully returns — so no shard can outlive the members it uses. The
  // cancel-during-flush TSAN hammer in test_serve.cpp regresses this.
  scheduler_.drain();
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
  // Parked coalescing batches can never be the reason the window is full:
  // submit_locked flushes whenever parking meets a full window, so by the
  // time this wait blocks every active slot holds dispatched work and a
  // consumer's wait() will eventually free one.
  if (active_.size() >= config_.max_inflight && !pending_.empty()) {
    std::vector<pending_batch> ready;
    take_pending_locked(ready);
    lock.unlock();
    for (pending_batch& batch : ready) dispatch_batch(std::move(batch));
    lock.lock();
  }
  capacity_.wait(lock,
                 [this] { return active_.size() < config_.max_inflight; });
  return submit_locked(request, std::move(lease), lock);
}

std::optional<ticket> readout_server::try_submit(
    const readout_request& request) {
  engine_lease lease = lease_for(request);
  std::unique_lock lock(mutex_);
  if (active_.size() >= config_.max_inflight) {
    // Non-blocking producers never call wait() before retrying: dispatch any
    // parked batches so the held tickets can complete (and poll() can turn
    // true) instead of livelocking the retry loop.
    if (!pending_.empty()) {
      std::vector<pending_batch> ready;
      take_pending_locked(ready);
      lock.unlock();
      for (pending_batch& batch : ready) dispatch_batch(std::move(batch));
    }
    return std::nullopt;
  }
  return submit_locked(request, std::move(lease), lock);
}

ticket readout_server::submit_locked(const readout_request& request,
                                     engine_lease lease,
                                     std::unique_lock<std::mutex>& lock) {
  const std::size_t shots = request.traces->size();
  // The feedback lane bypasses coalescing unconditionally: parking a
  // feedback request behind a batch that waits for more members is exactly
  // the queueing delay the lane exists to avoid.
  const bool coalesce = config_.coalesce_shots > 0 && shots > 0 &&
                        shots <= config_.coalesce_shots &&
                        request.lane == lane_class::bulk;

  std::unique_ptr<slot> s;
  if (!free_slots_.empty()) {
    s = std::move(free_slots_.back());
    free_slots_.pop_back();
  } else {
    s = std::make_unique<slot>();
  }
  s->id = next_ticket_++;
  s->shots = shots;
  // A coalesced member executes as one range inside the merged task.
  s->remaining_shards =
      shots == 0 ? 0 : (coalesce ? 1 : scheduler_.shard_count(shots));
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
  s->dispatch_at = 0.0;
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

  if (coalesce) {
    const std::uint64_t key =
        request.qubit * 2 + static_cast<std::uint64_t>(request.engine);
    pending_batch& batch = pending_[key];
    batch.members.push_back({request, raw});
    batch.shots += shots;
    requests_coalesced_cell_->inc();
    std::vector<pending_batch> ready;
    if (batch.shots >= scheduler_.shard_shots()) {
      // A full shard's worth accumulated: dispatch the merged batch now.
      stamp_dispatch_locked(batch);
      ready.push_back(std::move(batch));
      pending_.erase(key);
      coalesced_batches_cell_->inc();
    } else if (active_.size() < config_.max_inflight) {
      return t;  // keep parking
    }
    if (active_.size() >= config_.max_inflight) {
      // The window is full: nothing may stay parked (a producer that only
      // polls or retries try_submit would otherwise never see these tickets
      // complete), so flush every stream's batch, not just this one's.
      take_pending_locked(ready);
    }
    lock.unlock();
    for (pending_batch& b : ready) dispatch_batch(std::move(b));
    return t;
  }

  // Dispatch outside the lock: the pool has its own mutex, and shards may
  // even run inline here on a workerless (single-CPU) pool. The slot cannot
  // complete early — remaining_shards is already final.
  raw->dispatch_at = raw->timer.seconds();
  lock.unlock();
  const readout_request req = request;
  scheduler_.dispatch(
      shots,
      [this, req, raw](std::size_t begin, std::size_t end,
                       shard_arena& arena) {
        execute_range(raw, req, begin, end, arena);
      },
      /*urgent=*/request.lane == lane_class::feedback);
  return t;
}

void readout_server::set_on_complete(completion_callback callback) {
  {
    const std::lock_guard lock(mutex_);
    KLINQ_REQUIRE(active_.empty() && pending_.empty(),
                  "readout_server: set_on_complete requires no unresolved "
                  "tickets (in-flight completions would race the handoff)");
  }
  // A consumed ticket's task *tail* may still be running (it reads the
  // callback lock-free); wait for task bodies to exit before swapping.
  scheduler_.drain();
  const std::lock_guard lock(mutex_);
  KLINQ_REQUIRE(active_.empty() && pending_.empty(),
                "readout_server: a submit raced set_on_complete");
  config_.on_complete = std::move(callback);
}

bool readout_server::start_member(member_run& run) const {
  // Expiry/cancellation are checked at shard start: a skipped member costs
  // nothing but still runs complete_members, which is what guarantees an
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

void readout_server::execute_range(slot* raw, const readout_request& request,
                                   std::size_t begin, std::size_t end,
                                   shard_arena& arena) {
  member_run run{raw};
  if (start_member(run)) {
    try {
      run_shard(*raw, request, begin, end, arena);
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
  complete_members(&run, 1);
}

void readout_server::complete_members(member_run* runs, std::size_t count) {
  // A range completes one member and a pack's members share one batch key,
  // so (qubit, engine kind) is common to every run.
  const std::size_t qubit = runs[0].s->result.qubit;
  const engine_kind engine = runs[0].s->result.engine;
  engine_cells& cells = cells_locked(qubit, engine);
  // Per-member shard time on the member's own timer (ran or threw — either
  // way it held a worker this long). Lock-free: a pre-resolved histogram.
  for (std::size_t i = 0; i < count; ++i) {
    if (runs[i].skipped()) continue;
    cells.shard_exec->record(runs[i].s->timer.seconds() - runs[i].exec_begin);
  }
  // The provider demote (below) takes the provider's own locks, so the
  // decision is made under mutex_ but the call happens after it releases.
  bool demote_now = false;
  std::uint64_t failing_version = 0;
  // Doorbell state, captured under the lock: once it releases, a completed
  // slot may be consumed and recycled, so the callbacks use only these.
  struct doorbell {
    std::uint64_t id = 0;
    request_status status = request_status::ok;
  };
  std::array<doorbell, server_config::kMaxCoalesceShots> rung{};
  std::size_t rung_count = 0;
  {
    const std::lock_guard done_lock(mutex_);
    for (std::size_t i = 0; i < count; ++i) {
      const member_run& run = runs[i];
      slot* raw = run.s;
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
              {{"qubit", std::to_string(qubit)},
               {"engine", engine_name(engine)}},
              "Shard executions that threw");
        }
        cells.shard_failures->inc();
        if (++consecutive_failures_[qubit] >= config_.failure_threshold) {
          // Reset before demoting so the next window needs a full threshold
          // of fresh failures (whether or not the provider switches).
          consecutive_failures_[qubit] = 0;
          demote_now = true;
          failing_version = raw->result.model_version;
        }
      } else if (!run.skipped()) {
        consecutive_failures_[qubit] = 0;
      }
      --outstanding_shards_;
      if (--raw->remaining_shards > 0) continue;
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
      rung[rung_count++] = {raw->id, raw->result.status};
      finish_request_locked(raw, engine);
    }
    if (rung_count > 0 || outstanding_shards_ == 0) completed_.notify_all();
  }
  // The doorbells fire before the demote side-trip: a completion consumer
  // should not wait on provider locks.
  if (config_.on_complete) {
    for (std::size_t i = 0; i < rung_count; ++i) {
      config_.on_complete(ticket{rung[i].id}, rung[i].status);
    }
  }
  if (demote_now && provider_->demote(qubit, failing_version)) {
    const std::lock_guard lock(mutex_);
    obs::counter*& cell = qubit_cells_[qubit].rollbacks;
    if (cell == nullptr) {
      cell = &metrics_->get_counter(
          "klinq_serve_rollbacks_total", {{"qubit", std::to_string(qubit)}},
          "Automatic demote-to-last-known-good rollbacks this server "
          "triggered");
    }
    cell->inc();
  }
}

void readout_server::stamp_dispatch_locked(pending_batch& batch) {
  // End of the coalesce hold, stamped under mutex_ at the moment the batch
  // leaves pending_. No member can join after the stamp (joining requires
  // the same lock and the batch is gone from pending_), so a late joiner can
  // never carry a dispatch_at predating its own submit — hold and queue
  // spans stay non-negative by construction.
  for (const pending_member& member : batch.members) {
    member.s->dispatch_at = member.s->timer.seconds();
  }
}

void readout_server::dispatch_batch(pending_batch batch) {
  // One scheduler task, one arena: every member runs back to back in lane
  // packs (see run_batch), completing (and waking waiters) individually.
  scheduler_.dispatch_one(
      [this, members = std::move(batch.members)](shard_arena& arena) {
        run_batch(members, arena);
      });
}

void readout_server::run_batch(const std::vector<pending_member>& members,
                               shard_arena& arena) {
  // Group in submission order by what one shared tile must agree on: the
  // pinned engine identity (two hot-swap versions of one qubit's model must
  // never share a tile) and the trace duration (the front end is built for
  // one envelope width, so a mismatched member must fail alone, not its
  // pack-mates). The batch key already fixes (qubit, engine kind).
  const auto tile_key = [](const pending_member& member) {
    const qubit_engine& engine = member.s->lease.engine;
    const void* identity =
        member.request.engine == engine_kind::fixed_q16
            ? static_cast<const void*>(engine.hardware)
            : static_cast<const void*>(engine.student);
    return std::pair(identity, member.request.traces->samples_per_quadrature());
  };
  std::vector<std::vector<const pending_member*>> groups;
  for (const pending_member& member : members) {
    const auto it =
        std::find_if(groups.begin(), groups.end(), [&](const auto& group) {
          return tile_key(*group.front()) == tile_key(member);
        });
    if (it == groups.end()) {
      groups.push_back({&member});
    } else {
      it->push_back(&member);
    }
  }
  for (const std::vector<const pending_member*>& group : groups) {
    // Greedy chunks of at most one tile of lanes. validate() bounds every
    // member by one tile, so each chunk takes at least one member; a chunk
    // of one gains nothing from the shared tile and runs the plain range.
    for (std::size_t begin = 0, end = 0; begin < group.size(); begin = end) {
      std::size_t lanes = 0;
      while (end < group.size() &&
             lanes + group[end]->request.traces->size() <=
                 server_config::kMaxCoalesceShots) {
        lanes += group[end++]->request.traces->size();
      }
      if (end - begin == 1) {
        execute_range(group[begin]->s, group[begin]->request, 0, lanes, arena);
      } else {
        execute_pack(group.data() + begin, end - begin, arena);
      }
    }
  }
}

void readout_server::execute_pack(const pending_member* const* pack,
                                  std::size_t count, shard_arena& arena) {
  constexpr std::size_t kMaxLanes = server_config::kMaxCoalesceShots;
  constexpr std::size_t kNoLane = static_cast<std::size_t>(-1);
  // run_batch grouped by pinned engine identity, so one leased engine
  // evaluates every lane.
  const engine_kind kind = pack[0]->request.engine;
  const qubit_engine& engine = pack[0]->s->lease.engine;

  // Per-member preamble: a skipped or faulted member is excluded from the
  // shared tile but still reaches complete_members.
  std::array<member_run, kMaxLanes> runs;
  std::array<std::size_t, kMaxLanes> lane_offset{};
  std::array<const data::trace_dataset*, kMaxLanes> datasets{};
  std::array<std::size_t, kMaxLanes> rows{};
  std::size_t lanes = 0;
  std::size_t packed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    runs[i].s = pack[i]->s;
    lane_offset[i] = kNoLane;
    if (!start_member(runs[i])) continue;
    const data::trace_dataset& ds = *pack[i]->request.traces;
    lane_offset[i] = lanes;
    ++packed;
    for (std::size_t r = 0; r < ds.size(); ++r) {
      datasets[lanes] = &ds;
      rows[lanes] = r;
      ++lanes;
    }
  }

  if (lanes > 0) {
    // One shared kernel tile for every runnable member's shots. A kernel
    // exception fails all of them (they shared the execution), never the
    // members already skipped or faulted out above.
    std::exception_ptr kernel_error;
    try {
      if (kind == engine_kind::fixed_q16) {
        std::array<fx::q16_16, kMaxLanes> out;
        engine.hardware->logits_lanes(datasets.data(), rows.data(), lanes,
                                      std::span<fx::q16_16>(out.data(), lanes),
                                      arena.fixed);
        for (std::size_t i = 0; i < count; ++i) {
          if (lane_offset[i] == kNoLane) continue;
          readout_result& result = runs[i].s->result;
          for (std::size_t r = 0; r < result.registers.size(); ++r) {
            result.registers[r] = out[lane_offset[i] + r];
            result.states[r] = result.registers[r].sign_bit() ? 0 : 1;
          }
        }
      } else {
        std::array<float, kMaxLanes> out;
        engine.student->predict_lanes(datasets.data(), rows.data(), lanes,
                                      std::span<float>(out.data(), lanes),
                                      arena.student);
        for (std::size_t i = 0; i < count; ++i) {
          if (lane_offset[i] == kNoLane) continue;
          readout_result& result = runs[i].s->result;
          for (std::size_t r = 0; r < result.logits.size(); ++r) {
            result.logits[r] = out[lane_offset[i] + r];
            result.states[r] = (result.logits[r] >= 0.0f) ? 1 : 0;
          }
        }
      }
    } catch (...) {
      kernel_error = std::current_exception();
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (lane_offset[i] == kNoLane) continue;
      if (kernel_error) {
        runs[i].error = kernel_error;
      } else if (config_.on_shard) {
        // One event per member covering its whole range, as for a member
        // run alone; a callback throw fails only the member whose event it
        // was.
        try {
          config_.on_shard(shard_event_for(*runs[i].s, 0, runs[i].s->shots));
          runs[i].event_fired = true;
        } catch (...) {
          runs[i].error = std::current_exception();
        }
      }
    }
    // Pack accounting (lock-free cells): members that shared the tile, the
    // tile itself, and how full it ran.
    packed_batches_cell_->inc();
    packed_requests_cell_->inc(packed);
    lane_occupancy_->record(static_cast<double>(lanes));
  }
  complete_members(runs.data(), count);
}

void readout_server::take_pending_locked(std::vector<pending_batch>& out) {
  // Counts exactly the batches it appends — `out` may already hold a batch
  // the caller took (and counted) itself, e.g. submit_locked's full-shard
  // batch when the window is simultaneously full.
  out.reserve(out.size() + pending_.size());
  for (auto& [key, batch] : pending_) {
    if (batch.members.empty()) continue;
    stamp_dispatch_locked(batch);
    out.push_back(std::move(batch));
    coalesced_batches_cell_->inc();
  }
  pending_.clear();
}

void readout_server::flush_pending() {
  // Early-out keeps the default (coalescing-off) wait/drain path at a
  // single mutex acquisition.
  if (config_.coalesce_shots == 0) return;
  std::vector<pending_batch> ready;
  {
    const std::lock_guard lock(mutex_);
    take_pending_locked(ready);
  }
  for (pending_batch& batch : ready) dispatch_batch(std::move(batch));
}

void readout_server::flush_pending_for(ticket t) {
  if (config_.coalesce_shots == 0) return;
  std::optional<pending_batch> ready;
  {
    const std::lock_guard lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      for (const pending_member& member : it->second.members) {
        if (member.s->id == t.id) {
          stamp_dispatch_locked(it->second);
          ready = std::move(it->second);
          pending_.erase(it);
          coalesced_batches_cell_->inc();
          break;
        }
      }
      if (ready) break;
    }
  }
  if (ready) dispatch_batch(std::move(*ready));
}

void readout_server::run_shard(slot& s, const readout_request& request,
                               std::size_t begin, std::size_t end,
                               shard_arena& arena) const {
  // The slot's lease — not a fresh provider acquisition — so every shard of
  // a request runs on the version pinned at submit time.
  const qubit_engine& engine = s.lease.engine;
  const std::size_t count = end - begin;
  // Shards write disjoint row ranges of the slot's buffers: no locking on
  // the data plane.
  if (request.engine == engine_kind::fixed_q16) {
    const auto registers =
        std::span<fx::q16_16>(s.result.registers).subspan(begin, count);
    engine.hardware->logits_block(*request.traces, begin, end, registers,
                                  arena.fixed);
    for (std::size_t r = begin; r < end; ++r) {
      s.result.states[r] = s.result.registers[r].sign_bit() ? 0 : 1;
    }
  } else {
    const auto logits =
        std::span<float>(s.result.logits).subspan(begin, count);
    engine.student->predict_block(*request.traces, begin, end, logits,
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
  // The ticket may be parked in a coalescing batch nothing else would flush
  // (a cancelling producer typically stops submitting): dispatch that batch
  // so the skip executes and the ticket resolves promptly.
  flush_pending_for(t);
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
  // The ticket may be parked in a coalescing batch; dispatch that batch (and
  // only that one — other streams keep accumulating) so the wait below
  // cannot block on work that was never enqueued.
  flush_pending_for(t);
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
  flush_pending();
  {
    std::unique_lock lock(mutex_);
    completed_.wait(lock, [this] { return outstanding_shards_ == 0; });
  }
  // Same task-body wait as the destructor: "drained" must mean no shard
  // task is still inside execute_range/execute_pack (the post-notify demote
  // tail runs after the shard count reaches zero), not merely that every
  // ticket is resolved — callers use drain() as a teardown barrier.
  scheduler_.drain();
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
  snapshot.requests_coalesced = requests_coalesced_cell_->value();
  snapshot.coalesced_batches = coalesced_batches_cell_->value();
  snapshot.packed_requests = packed_requests_cell_->value();
  snapshot.packed_batches = packed_batches_cell_->value();
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
