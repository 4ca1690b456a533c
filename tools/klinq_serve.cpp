// klinq_serve — drive a sustained multi-qubit readout workload through the
// sharded serving engine and report its telemetry.
//
//   klinq_serve --qubits 3 --rounds 16 --engine fixed --shard-shots 256
//
// Builds one compact student per simulated qubit (hard labels only — the
// serving fabric does not care how students were trained; use klinq_train +
// core::klinq_system for the full distillation pipeline), then streams
// `rounds` trace-block requests per qubit through a readout_server under
// bounded backpressure, spot-checks the returned decisions against the
// serial per-qubit path, and prints shots/sec plus p50/p99 latency.
//
// Registry mode (--registry): the trained students are published into a
// versioned klinq::registry::model_registry and served through it; midway
// through the stream a retrained snapshot of qubit 0 is hot-swapped in
// while traffic flows (results report the version that served them). Pass
// --registry-dir to persist the store on exit.
//
// Admin mode (--registry-dir DIR --admin CMD) operates on a persisted
// registry without serving:
//   --admin list            print every qubit's retained versions
//   --admin swap:<q>:<v>    activate version v for qubit q
//   --admin rollback:<q>    activate the previous retained version
//   --admin pin:<q>:<v>     activate v and freeze auto-activation
//   --admin unpin:<q>       release the freeze
// Mutating commands save the store back to the directory.
//
// Chaos mode (--chaos, implies --registry): a live demo of the failure
// model. A "bad deploy" of qubit 0 goes out mid-stream, klinq::fault arms
// shard/lease faults plus tiny deadlines and cancellations, the server's
// failure threshold trips and the registry auto-rolls the qubit back to
// last-known-good; the faults then disarm and the tail of the stream is
// verified bit-clean on the rolled-back model. Exits non-zero unless the
// rollback happened and recovery traffic spot-checks clean.
//
// Listen mode (--listen): serve the same workload over loopback TCP through
// klinq::net::tcp_front_end instead of in-process tickets — every request
// round-trips the wire protocol and is spot-checked against the serial
// path. Front-end limits come from KLINQ_LISTEN / KLINQ_NET_* (see README);
// --port overrides the port.
//
// Network chaos smoke (--listen --chaos): hostile loopback clients — a 2x
// overload burst, malformed frames, a slow-loris half-frame, a disconnect
// mid-request, and an armed net.accept fault — then a graceful drain. Exits
// non-zero unless ticket accounting reconciles exactly (front_end_stats and
// server_stats validate, zero inflight, every admitted request answered or
// dropped-with-counter) and the healthy client was served throughout.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "klinq/fault/fault.hpp"

#include "klinq/common/cli.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/net/client.hpp"
#include "klinq/net/introspection.hpp"
#include "klinq/net/tcp_front_end.hpp"
#include "klinq/obs/exposition.hpp"
#include "klinq/obs/fault_mirror.hpp"
#include "klinq/obs/http.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/registry/snapshot.hpp"
#include "klinq/serve/readout_server.hpp"

namespace {

using namespace klinq;

void print_registry(const registry::model_registry& reg) {
  for (std::size_t q = 0; q < reg.qubit_count(); ++q) {
    std::printf("qubit %zu:\n", q);
    for (const registry::version_record& record : reg.list(q)) {
      std::printf("  v%llu%s%s  source=%s shots=%llu accuracy=%.4f\n",
                  static_cast<unsigned long long>(record.version),
                  record.active ? " [active]" : "",
                  record.pinned ? " [pinned]" : "",
                  record.info.source.c_str(),
                  static_cast<unsigned long long>(
                      record.info.calibration_shots),
                  record.info.train_accuracy);
    }
  }
}

/// Splits "cmd:arg1:arg2" into its pieces.
std::vector<std::string> split_command(const std::string& command) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= command.size()) {
    const std::size_t colon = command.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(command.substr(begin));
      break;
    }
    parts.push_back(command.substr(begin, colon - begin));
    begin = colon + 1;
  }
  return parts;
}

int run_admin(const std::string& directory, const std::string& command) {
  const std::vector<std::string> parts = split_command(command);
  const auto reg = registry::model_registry::load_directory(directory);
  const auto parse_number = [&](std::size_t index, const char* what) {
    KLINQ_REQUIRE(index < parts.size(),
                  std::string("--admin: missing ") + what + " argument");
    try {
      return static_cast<std::uint64_t>(std::stoull(parts[index]));
    } catch (const std::exception&) {
      throw invalid_argument_error(std::string("--admin: '") + parts[index] +
                                   "' is not a valid " + what);
    }
  };
  const auto parse_qubit = [&](std::size_t index) {
    return static_cast<std::size_t>(parse_number(index, "qubit"));
  };
  const auto parse_version = [&](std::size_t index) {
    return parse_number(index, "version");
  };
  bool mutated = true;
  if (parts[0] == "list") {
    mutated = false;
  } else if (parts[0] == "swap") {
    reg->activate(parse_qubit(1), parse_version(2));
  } else if (parts[0] == "rollback") {
    const std::size_t qubit = parse_qubit(1);
    std::printf("rolled qubit %zu back to v%llu\n", qubit,
                static_cast<unsigned long long>(reg->rollback(qubit)));
  } else if (parts[0] == "pin") {
    reg->pin(parse_qubit(1), parse_version(2));
  } else if (parts[0] == "unpin") {
    reg->unpin(parse_qubit(1));
  } else {
    throw invalid_argument_error(
        "--admin: unknown command (expected list | swap:<q>:<v> | "
        "rollback:<q> | pin:<q>:<v> | unpin:<q>)");
  }
  print_registry(*reg);
  if (mutated) {
    reg->save_directory(directory);
    std::printf("saved %s\n", directory.c_str());
  }
  return 0;
}

/// Polls `predicate` until true or `timeout_seconds` elapses.
bool wait_for(const std::function<bool()>& predicate,
              double timeout_seconds) {
  stopwatch timer;
  while (!predicate()) {
    if (timer.seconds() > timeout_seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// One pass/fail line per smoke assertion; the process exit code is the AND
/// of them all.
struct smoke_checker {
  bool ok = true;
  void check(bool condition, const char* what) {
    std::printf("  %-56s %s\n", what, condition ? "ok" : "FAIL");
    if (!condition) ok = false;
  }
};

/// The serial per-qubit decision on the first shot of `ds` — what a served
/// block's first state must equal on `engine`.
bool serial_first_state(const hw::fixed_discriminator<fx::q16_16>& hardware,
                        const kd::student_model& student,
                        serve::engine_kind engine,
                        const data::trace_dataset& ds) {
  return engine == serve::engine_kind::fixed_q16
             ? !hardware.logit(ds.trace(0), ds.samples_per_quadrature())
                    .sign_bit()
             : student.logit(ds.trace(0), ds.samples_per_quadrature()) >= 0.0f;
}

net::request_info make_request_info(std::size_t qubit,
                                    serve::engine_kind engine,
                                    const data::trace_dataset& block) {
  net::request_info info;
  info.qubit = static_cast<std::uint32_t>(qubit);
  info.engine = engine;
  info.samples_per_quadrature =
      static_cast<std::uint32_t>(block.samples_per_quadrature());
  info.shots = static_cast<std::uint32_t>(block.size());
  return info;
}

/// --listen without --chaos: the standard streaming workload, but every
/// request round-trips loopback TCP through the front end.
int run_listen_stream(serve::readout_server& server,
                      const std::vector<qsim::qubit_dataset>& data,
                      const std::vector<kd::student_model>& students,
                      const std::vector<hw::fixed_discriminator<fx::q16_16>>&
                          hardware,
                      serve::engine_kind engine, std::size_t rounds,
                      obs::metric_registry& metrics, std::uint16_t port) {
  net::front_end_config config = net::front_end_config::from_env();
  if (port != 0) config.port = port;
  config.metrics = &metrics;
  config.traces = &obs::default_trace_ring();
  net::tcp_front_end front_end(server, config);
  std::printf("listening on %s:%u\n", config.bind_address.c_str(),
              front_end.port());

  // Live introspection plane when KLINQ_HTTP is set.
  const std::unique_ptr<obs::http_server> http = obs::start_http_from_env();
  if (http) {
    net::introspection_config ic;
    ic.metrics = &metrics;
    ic.front_end = &front_end;
    ic.traces = &obs::default_trace_ring();
    net::install_introspection_handlers(*http, std::move(ic));
    std::printf("introspection on http://%s:%u\n", http->host().c_str(),
                http->port());
  }

  const std::size_t n_qubits = data.size();
  net::client client("127.0.0.1", front_end.port());
  // Client-side trace stamping when KLINQ_TRACE_FILE armed the ring;
  // KLINQ_TRACE_SAMPLE sets the head-sampling rate.
  client.enable_tracing(&obs::default_trace_ring(),
                        obs::trace_sample_rate_from_env());
  stopwatch timer;
  std::size_t mismatches = 0;
  std::size_t responses = 0;
  std::uint64_t shots = 0;
  std::vector<std::uint64_t> window;
  const std::size_t max_window =
      std::min<std::size_t>(config.max_inflight_per_connection, 8);
  const auto consume_oldest = [&] {
    const std::uint64_t id = window.front();
    window.erase(window.begin());
    const std::optional<net::client_frame> reply = client.read_reply(id);
    KLINQ_REQUIRE(reply.has_value(), "--listen: connection lost mid-stream");
    KLINQ_REQUIRE(reply->header.type == net::frame_type::response,
                  "--listen: request was shed (raise KLINQ_NET_* quotas)");
    const net::response_view view = net::decode_response(reply->payload);
    if (view.status != serve::request_status::ok) return;
    ++responses;
    shots += view.shots;
    // Spot-check the first decision of every block against the serial
    // per-qubit path (ids are assigned round-robin over qubits).
    const std::size_t qubit = static_cast<std::size_t>(id - 1) % n_qubits;
    const bool serial = serial_first_state(hardware[qubit], students[qubit],
                                           engine, data[qubit].test);
    if ((view.states[0] != 0) != serial) ++mismatches;
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t q = 0; q < n_qubits; ++q) {
      while (window.size() >= max_window) consume_oldest();
      window.push_back(client.send_request(
          make_request_info(q, engine, data[q].test), data[q].test));
    }
  }
  while (!window.empty()) consume_oldest();
  const double elapsed = timer.seconds();
  client.send_goodbye();
  client.close();
  front_end.shutdown();

  const net::front_end_stats fe_stats = front_end.stats();
  fe_stats.validate();
  std::printf(
      "\nserved %zu responses / %llu shots over TCP in %.3f s\n"
      "  throughput  %.0f shots/s\n"
      "  front end   %llu frames in / %llu out, %llu bytes in / %llu out\n"
      "  spot-check  %s\n",
      responses, static_cast<unsigned long long>(shots), elapsed,
      static_cast<double>(shots) / elapsed,
      static_cast<unsigned long long>(fe_stats.frames_received),
      static_cast<unsigned long long>(fe_stats.frames_sent),
      static_cast<unsigned long long>(fe_stats.bytes_received),
      static_cast<unsigned long long>(fe_stats.bytes_sent),
      mismatches == 0 ? "all decisions match the serial path"
                      : "MISMATCH vs serial path");
  return mismatches == 0 ? 0 : 1;
}

/// --listen --chaos: the network chaos smoke. Hostile loopback clients hit
/// a deliberately small front end; exits non-zero unless ticket accounting
/// reconciles exactly and a healthy client is served throughout.
int run_listen_chaos(serve::readout_server& server,
                     const std::vector<qsim::qubit_dataset>& data,
                     serve::engine_kind engine, obs::metric_registry& metrics,
                     std::uint16_t port) {
  net::front_end_config config;
  config.port = port;
  config.max_connections = 8;
  config.max_inflight_per_connection = 4;
  config.max_inflight = 8;
  config.feedback_reserve = 2;
  config.read_idle_seconds = 0.25;   // slow-loris eviction, fast
  config.write_stall_seconds = 2.0;
  config.poll_interval_seconds = 0.02;
  config.drain_timeout_seconds = 5.0;
  config.metrics = &metrics;
  config.traces = &obs::default_trace_ring();
  net::tcp_front_end front_end(server, config);
  const std::uint16_t bound = front_end.port();
  std::printf("net chaos smoke on 127.0.0.1:%u\n", bound);
  smoke_checker sc;

  // The introspection plane rides along and is scraped mid-chaos: the
  // smoke fails unless /metrics lints clean and /healthz tracks the induced
  // degradation (armed faults) and the final drain. KLINQ_HTTP can pin the
  // address; an ephemeral loopback port otherwise.
  obs::http_config http_config = obs::http_config::from_env();
  if (http_config.bind_address.empty()) {
    http_config.bind_address = "127.0.0.1:0";
  }
  obs::http_server http(http_config);
  {
    net::introspection_config ic;
    ic.metrics = &metrics;
    ic.front_end = &front_end;
    ic.traces = &obs::default_trace_ring();
    ic.unhealthy_when.push_back(
        {"faults-armed", [] { return fault::any_armed(); }});
    net::install_introspection_handlers(http, std::move(ic));
  }
  std::printf("introspection on http://%s:%u\n", http.host().c_str(),
              http.port());

  const std::size_t n_qubits = data.size();
  std::vector<std::size_t> rows(std::min<std::size_t>(32, data[0].test.size()));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const data::trace_dataset block = data[0].test.subset(rows);
  const auto request_ok = [&](net::client& c, std::size_t qubit,
                              serve::lane_class lane) {
    const std::uint64_t id = c.send_request(
        make_request_info(qubit, engine, block), block, lane);
    const std::optional<net::client_frame> reply = c.read_reply(id);
    if (!reply || reply->header.type != net::frame_type::response) {
      return false;
    }
    const net::response_view view = net::decode_response(reply->payload);
    return view.status == serve::request_status::ok &&
           view.shots == block.size();
  };

  // Phase checks use short-lived clients: with read_idle_seconds this small
  // the front end reaps any connection that idles between phases, which is
  // itself part of the defense under test.
  {
    net::client healthy("127.0.0.1", bound);
    std::size_t served = 0;
    for (std::size_t q = 0; q < n_qubits; ++q) {
      if (request_ok(healthy, q, serve::lane_class::bulk)) ++served;
    }
    sc.check(served == n_qubits, "baseline: every request answered ok");
    sc.check(request_ok(healthy, 0, serve::lane_class::feedback),
             "feedback-lane request served");
    healthy.send_goodbye();
  }

  {
    // Introspection plane under load: the scrape must lint clean and the
    // health/status endpoints must serve while traffic flows.
    const obs::http_result scrape =
        obs::http_get(http.host(), http.port(), "/metrics");
    const bool lint_clean =
        scrape.status == 200 &&
        obs::lint_prometheus_text(scrape.body).empty();
    sc.check(lint_clean, "/metrics scrape lints clean");
    const obs::http_result health =
        obs::http_get(http.host(), http.port(), "/healthz");
    sc.check(health.status == 200, "/healthz healthy while serving");
    const obs::http_result status =
        obs::http_get(http.host(), http.port(), "/statusz");
    sc.check(status.status == 200 &&
                 status.body.find("connections:") != std::string::npos,
             "/statusz renders the connection table");
    const obs::http_result traces =
        obs::http_get(http.host(), http.port(), "/tracez");
    sc.check(traces.status == 200, "/tracez serves");
  }

  {
    // Overload at 2x the per-connection quota, blasted without reading.
    // The loop may read the burst over several wakeups, so completions are
    // held back (net.complete delay) until every frame of the burst has been
    // admitted or shed: no completion can free a quota slot mid-burst, and
    // the shed count no longer depends on how fast this build runs. The
    // delay stays well under read_idle_seconds, so the waiting connection is
    // never reaped as idle. This holds only where the pool has workers: on a
    // one-CPU host each admitted request runs inline on the loop thread and
    // its completion is delivered (delay included) before the next poll(),
    // so a burst read over several wakeups frees quota slots mid-burst and
    // the shed count depends on timing again.
    net::client overload("127.0.0.1", bound);
    const std::size_t quota = config.max_inflight_per_connection;
    std::vector<std::uint8_t> burst;
    for (std::size_t i = 0; i < 2 * quota; ++i) {
      const std::vector<std::uint8_t> bytes =
          net::encode_request(100 + i, make_request_info(0, engine, block),
                              serve::lane_class::bulk, block);
      burst.insert(burst.end(), bytes.begin(), bytes.end());
    }
    const net::front_end_stats before = front_end.stats();
    fault::arm_from_string("net.complete:delay_ms=100:1.0:1");
    overload.send_bytes(burst);
    wait_for(
        [&] {
          const net::front_end_stats now = front_end.stats();
          return now.requests_admitted - before.requests_admitted +
                     now.busy_rejections - before.busy_rejections >=
                 2 * quota;
        },
        5.0);
    fault::disarm_all();
    std::size_t served = 0;
    std::size_t shed = 0;
    for (std::size_t i = 0; i < 2 * quota; ++i) {
      const std::optional<net::client_frame> reply =
          overload.read_reply(100 + i);
      if (!reply) break;
      if (reply->header.type == net::frame_type::response) ++served;
      if (reply->header.type == net::frame_type::busy) ++shed;
    }
    sc.check(served + shed == 2 * quota,
             "overload at 2x: every request answered");
    sc.check(shed >= 1 && served >= quota,
             "overload at 2x: excess shed with retriable busy");
  }

  {
    // Malformed frame: killed with a typed error; only that connection.
    net::client hostile("127.0.0.1", bound);
    std::vector<std::uint8_t> garbage(48, 0xA5);
    hostile.send_bytes(garbage);
    bool got_error = false;
    while (const std::optional<net::client_frame> frame =
               hostile.read_frame(2.0)) {
      if (frame->header.type == net::frame_type::error) got_error = true;
    }
    sc.check(got_error, "malformed frame answered with typed error");
    net::client bystander("127.0.0.1", bound);
    sc.check(request_ok(bystander, 0, serve::lane_class::bulk),
             "healthy client survives the malformed peer");
    bystander.send_goodbye();
  }

  {
    // Slow loris: half a header, then silence; must be evicted.
    const std::uint64_t evicted_before =
        front_end.stats().connections_evicted;
    net::client loris("127.0.0.1", bound);
    const std::uint8_t half_header[3] = {0x4B, 0x4C, 0x4E};
    loris.send_bytes(half_header, sizeof(half_header));
    sc.check(wait_for(
                 [&] {
                   return front_end.stats().connections_evicted >
                          evicted_before;
                 },
                 3.0),
             "slow-loris connection evicted");
  }

  {
    // Disconnect mid-request: a delayed completion finds the client gone;
    // the result must be dropped with a counter, never leaked.
    const net::front_end_stats before = front_end.stats();
    fault::arm_from_string("net.complete:delay_ms=300:1.0:1");
    net::client vanisher("127.0.0.1", bound);
    vanisher.send_request(make_request_info(0, engine, block), block);
    const bool admitted = wait_for(
        [&] {
          return front_end.stats().requests_admitted >
                 before.requests_admitted;
        },
        3.0);
    vanisher.close();
    const bool dropped = wait_for(
        [&] {
          return front_end.stats().results_dropped > before.results_dropped;
        },
        3.0);
    fault::disarm_all();
    sc.check(admitted && dropped,
             "disconnect mid-request drops the result, counted");
  }

  {
    // net.accept fault: the next connection is dropped at accept; once
    // disarmed, fresh connections serve again.
    fault::arm_from_string("net.accept:throw:1.0:2");
    net::client victim("127.0.0.1", bound);
    const bool dropped = !victim.read_frame(2.0);
    // Mid-chaos scrape: with faults armed, /healthz must flip to 503 and
    // name the failing probe; /metrics must still lint clean.
    const obs::http_result degraded =
        obs::http_get(http.host(), http.port(), "/healthz");
    sc.check(degraded.status == 503 &&
                 degraded.body.find("faults-armed") != std::string::npos,
             "/healthz reports induced degradation (503)");
    const obs::http_result mid_scrape =
        obs::http_get(http.host(), http.port(), "/metrics");
    sc.check(mid_scrape.status == 200 &&
                 obs::lint_prometheus_text(mid_scrape.body).empty(),
             "/metrics lints clean mid-chaos");
    fault::disarm_all();
    net::client recovered("127.0.0.1", bound);
    sc.check(dropped && request_ok(recovered, 0, serve::lane_class::bulk),
             "net.accept fault drops one connect, then recovers");
    recovered.send_goodbye();
  }

  {
    // Graceful drain: a live witness gets a goodbye frame, then EOF.
    net::client witness("127.0.0.1", bound);
    witness.send_ping(1);
    const std::optional<net::client_frame> pong = witness.read_frame(2.0);
    const bool pinged =
        pong && pong->header.type == net::frame_type::pong;
    std::thread drainer([&] { front_end.shutdown(); });
    bool got_goodbye = false;
    bool got_eof = false;
    for (;;) {
      const std::optional<net::client_frame> frame = witness.read_frame(5.0);
      if (!frame) {
        got_eof = true;
        break;
      }
      if (frame->header.type == net::frame_type::goodbye) got_goodbye = true;
    }
    drainer.join();
    sc.check(pinged && got_goodbye && got_eof,
             "graceful drain says goodbye");
    const obs::http_result drained =
        obs::http_get(http.host(), http.port(), "/healthz");
    sc.check(drained.status == 503 &&
                 drained.body.find("draining") != std::string::npos,
             "/healthz reports the drain (503)");
  }

  // The whole point: exact reconciliation after the dust settles.
  const net::front_end_stats fe_stats = front_end.stats();
  bool consistent = true;
  try {
    fe_stats.validate();
  } catch (const error& e) {
    consistent = false;
    std::fprintf(stderr, "front_end_stats: %s\n", e.what());
  }
  sc.check(consistent, "front_end_stats reconcile");
  sc.check(fe_stats.inflight == 0, "zero net inflight after drain");
  sc.check(fe_stats.open_connections == 0, "every connection closed");
  sc.check(fe_stats.responses_sent + fe_stats.results_dropped ==
               fe_stats.requests_admitted,
           "every admitted ticket answered or dropped-counted");
  sc.check(fe_stats.busy_rejections >= 1, "shedding observed");
  sc.check(fe_stats.malformed_frames >= 1, "malformed frames observed");
  sc.check(fe_stats.connections_evicted >= 1, "evictions observed");
  sc.check(fe_stats.results_dropped >= 1, "dropped results observed");

  server.drain();
  const serve::server_stats server_stats = server.stats();
  try {
    server_stats.validate();
  } catch (const error& e) {
    consistent = false;
    std::fprintf(stderr, "server_stats: %s\n", e.what());
    sc.ok = false;
  }
  sc.check(server_stats.requests_completed == server_stats.requests_submitted,
           "server resolved every submitted ticket");
  sc.check(server_stats.inflight == 0, "zero server inflight after drain");

  std::printf(
      "\n  accounting  %llu admitted = %llu responses + %llu dropped\n"
      "              %llu busy / %llu malformed / %llu evicted\n"
      "              feedback p99 %.3f ms / bulk p99 %.3f ms\n"
      "  net chaos smoke %s\n",
      static_cast<unsigned long long>(fe_stats.requests_admitted),
      static_cast<unsigned long long>(fe_stats.responses_sent),
      static_cast<unsigned long long>(fe_stats.results_dropped),
      static_cast<unsigned long long>(fe_stats.busy_rejections),
      static_cast<unsigned long long>(fe_stats.malformed_frames),
      static_cast<unsigned long long>(fe_stats.connections_evicted),
      server_stats.feedback_p99_seconds * 1e3,
      server_stats.bulk_p99_seconds * 1e3, sc.ok ? "PASS" : "FAIL");
  return sc.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("klinq_serve",
                 "stream a multi-qubit readout workload through the sharded "
                 "serving engine");
  cli.add_option("qubits", "number of simulated qubit channels", "3");
  cli.add_option("traces-train", "train shots per state permutation", "200");
  cli.add_option("traces-test", "test shots per state permutation (block "
                 "size is 2x this)", "512");
  cli.add_option("rounds", "requests streamed per qubit", "16");
  cli.add_option("engine", "datapath: fixed | float", "fixed");
  cli.add_option("shard-shots", "rows per shard (0 = default)", "0");
  cli.add_option("max-inflight", "backpressure bound on open tickets", "16");
  cli.add_option("seed", "dataset generation seed", "42");
  cli.add_flag("registry",
               "serve through a versioned model registry and hot-swap a "
               "retrained qubit-0 snapshot mid-stream");
  cli.add_flag("chaos",
               "failure-model demo: deploy a faulty qubit-0 snapshot "
               "mid-stream, arm fault injection, and verify auto-rollback "
               "plus clean recovery (implies --registry)");
  cli.add_flag("listen",
               "serve over loopback TCP through the net front end; with "
               "--chaos: run the network chaos smoke instead");
  cli.add_option("port", "TCP port for --listen (0 = ephemeral)", "0");
  cli.add_option("registry-dir",
                 "persist the registry here on exit (with --admin: the "
                 "store to operate on)", "");
  cli.add_option("admin",
                 "registry admin command: list | swap:<q>:<v> | "
                 "rollback:<q> | pin:<q>:<v> | unpin:<q>", "");
  cli.add_flag("metrics-dump",
               "print the full Prometheus metrics snapshot on exit "
               "(implied by --registry / --chaos)");
  cli.add_option("metrics-file",
                 "also write the exit Prometheus snapshot to this file", "");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::string admin = cli.get_string("admin");
    if (!admin.empty()) {
      const std::string directory = cli.get_string("registry-dir");
      KLINQ_REQUIRE(!directory.empty(), "--admin requires --registry-dir");
      return run_admin(directory, admin);
    }

    const auto n_qubits = static_cast<std::size_t>(cli.get_int("qubits"));
    KLINQ_REQUIRE(n_qubits >= 1, "--qubits must be positive");
    const std::string engine_flag = cli.get_string("engine");
    KLINQ_REQUIRE(engine_flag == "fixed" || engine_flag == "float",
                  "--engine must be 'fixed' or 'float'");
    const serve::engine_kind engine = engine_flag == "fixed"
                                          ? serve::engine_kind::fixed_q16
                                          : serve::engine_kind::float_student;
    const auto rounds = static_cast<std::size_t>(cli.get_int("rounds"));
    const bool chaos = cli.get_flag("chaos");
    const bool listen = cli.get_flag("listen");
    // --listen --chaos is the network chaos smoke over a plain server; the
    // registry rollback demo is the in-process --chaos.
    const bool use_registry = (cli.get_flag("registry") || chaos) && !listen;

    // One process-wide metrics backend shared by the server, the registry
    // and the fault mirror, so the exit dump shows the whole stack.
    obs::metric_registry& metrics = obs::default_registry();
    obs::bind_fault_metrics(metrics);
    // Wire tracing: KLINQ_TRACE_FILE arms the shared ring and exports
    // Chrome trace-event JSON at exit; KLINQ_TRACE_SAMPLE head-samples.
    obs::trace_ring& traces = obs::default_trace_ring();
    const std::unique_ptr<obs::trace_file_sink> trace_sink =
        obs::start_trace_sink_from_env(traces);

    // One independent channel per qubit: distinct dataset seed + student.
    std::printf("training %zu student(s)...\n", n_qubits);
    std::vector<qsim::qubit_dataset> data;
    std::vector<kd::student_model> students;
    std::vector<hw::fixed_discriminator<fx::q16_16>> hardware;
    for (std::size_t q = 0; q < n_qubits; ++q) {
      qsim::dataset_spec spec;
      spec.device = qsim::single_qubit_test_preset();
      spec.shots_per_permutation_train =
          static_cast<std::size_t>(cli.get_int("traces-train"));
      spec.shots_per_permutation_test =
          static_cast<std::size_t>(cli.get_int("traces-test"));
      spec.seed = static_cast<std::uint64_t>(cli.get_int("seed")) + q;
      data.push_back(qsim::build_qubit_dataset(spec, 0));
      kd::student_config config;
      config.epochs = 6;
      config.seed = 7 + q;
      students.push_back(kd::distill_student(data[q].train, {}, config));
      hardware.emplace_back(students[q]);
    }

    // Either a versioned registry or the static construction-time binding.
    std::unique_ptr<registry::model_registry> reg;
    std::optional<serve::readout_server> server;
    serve::server_config server_config{
        .shard_shots = static_cast<std::size_t>(cli.get_int("shard-shots")),
        .max_inflight =
            static_cast<std::size_t>(cli.get_int("max-inflight"))};
    server_config.metrics = &metrics;
    server_config.traces = &traces;
    // A low threshold makes the bad deploy trip the auto-rollback within a
    // single request's shards.
    if (chaos && !listen) server_config.failure_threshold = 4;
    if (use_registry) {
      registry::registry_config reg_config;
      reg_config.metrics = &metrics;
      reg = std::make_unique<registry::model_registry>(n_qubits, reg_config);
      for (std::size_t q = 0; q < n_qubits; ++q) {
        registry::calibration_info info;
        info.source = "initial";
        info.created_unix_seconds = registry::unix_now();
        info.calibration_shots = data[q].train.size();
        info.train_accuracy = students[q].accuracy(data[q].train);
        reg->publish(q, registry::model_snapshot(students[q], info));
      }
      server.emplace(*reg, server_config);
    } else {
      std::vector<serve::qubit_engine> engines;
      for (std::size_t q = 0; q < n_qubits; ++q) {
        engines.push_back({&students[q], &hardware[q]});
      }
      server.emplace(std::move(engines), server_config);
    }

    if (listen) {
      const auto port = static_cast<std::uint16_t>(cli.get_int("port"));
      if (chaos) {
        return run_listen_chaos(*server, data, engine, metrics, port);
      }
      return run_listen_stream(*server, data, students, hardware, engine,
                               rounds, metrics, port);
    }

    const std::size_t block = data[0].test.size();
    std::printf(
        "streaming %zu rounds x %zu qubits (blocks of %zu shots, %s engine, "
        "shard %zu shots, %zu pool workers%s)...\n",
        rounds, n_qubits, block, serve::engine_name(engine),
        server->shard_shots(), global_thread_pool().worker_count() + 1,
        use_registry ? ", registry-backed" : "");

    // Streaming loop: keep up to max_inflight tickets open, consuming the
    // oldest whenever submit would block. One reused result object keeps the
    // steady state allocation-free.
    stopwatch timer;
    std::vector<serve::ticket> open;
    serve::readout_result result;
    std::size_t mismatches = 0;
    std::size_t rejected_submits = 0;
    std::uint64_t last_version_served = 0;
    const auto consume_oldest = [&] {
      const serve::ticket oldest = open.front();
      open.erase(open.begin());
      try {
        server->wait(oldest, result);
      } catch (const fault::injected_fault&) {
        return;  // injected shard error resurfaced at wait(); counted in stats
      }
      // Expired-deadline and cancelled requests resolve without registers;
      // nothing to spot-check.
      if (result.status != serve::request_status::ok) return;
      last_version_served = result.model_version;
      // Spot-check: the first decision of every block must match the serial
      // per-qubit path — in registry mode, of whichever version served it.
      const auto& ds = data[result.qubit].test;
      bool serial = false;
      if (use_registry) {
        const auto snapshot = reg->at(result.qubit, result.model_version);
        serial = serial_first_state(snapshot->hardware(), snapshot->student(),
                                    engine, ds);
      } else {
        serial = serial_first_state(hardware[result.qubit],
                                    students[result.qubit], engine, ds);
      }
      if ((result.states[0] != 0) != serial) ++mismatches;
    };
    std::vector<fault::site_report> chaos_report;
    std::size_t submit_index = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      if (chaos && round == rounds / 3) {
        // The "bad deploy": a retrained qubit-0 snapshot goes live and the
        // armed fault points make its shards fail hard (and sprinkle lease
        // rejections on submits). The failure threshold will trip and the
        // server will ask the registry to demote back to v1.
        kd::student_config config;
        config.epochs = 6;
        config.seed = 1007;
        registry::calibration_info info;
        info.source = "bad-deploy";
        info.created_unix_seconds = registry::unix_now();
        info.calibration_shots = data[0].train.size();
        kd::student_model retrained =
            kd::distill_student(data[0].train, {}, config);
        info.train_accuracy = retrained.accuracy(data[0].train);
        const std::uint64_t version = reg->publish(
            0, registry::model_snapshot(std::move(retrained), info));
        // Shards run later on the pool, so settle every open request before
        // arming (and before disarming below): otherwise which shards see
        // the armed window is a race, and qubit 0 may get too few of them
        // to trip its failure threshold.
        while (!open.empty()) consume_oldest();
        fault::arm_from_string(
            "serve.shard.run:throw:0.85:7,serve.submit.lease:throw:0.05:11");
        std::printf("chaos: deployed qubit 0 v%llu and armed faults\n",
                    static_cast<unsigned long long>(version));
      }
      if (chaos && round == (2 * rounds) / 3) {
        while (!open.empty()) consume_oldest();
        chaos_report = fault::report();
        // Latch the fired counts into the metrics mirror before disarm_all()
        // clears the fault sites (the mirror collects at snapshot time).
        metrics.snapshot();
        fault::disarm_all();
        std::printf("chaos: faults disarmed; verifying recovery\n");
      }
      if (use_registry && !chaos && round == rounds / 2) {
        // Mid-stream hot swap: retrain qubit 0 (fresh seed) and publish.
        // In-flight requests finish on v1; later submits report v2.
        kd::student_config config;
        config.epochs = 6;
        config.seed = 1007;
        registry::calibration_info info;
        info.source = "hot-swap";
        info.created_unix_seconds = registry::unix_now();
        info.calibration_shots = data[0].train.size();
        kd::student_model retrained =
            kd::distill_student(data[0].train, {}, config);
        info.train_accuracy = retrained.accuracy(data[0].train);
        const std::uint64_t version = reg->publish(
            0, registry::model_snapshot(std::move(retrained), info));
        std::printf("hot-swapped qubit 0 -> v%llu mid-stream\n",
                    static_cast<unsigned long long>(version));
      }
      for (std::size_t q = 0; q < n_qubits; ++q) {
        serve::readout_request request{q, &data[q].test, engine};
        const std::size_t index = submit_index++;
        // Chaos traffic mixes in unservable deadlines and client cancels so
        // every resolution path shows up in the final telemetry.
        if (chaos && fault::any_armed() && index % 5 == 1) {
          request.deadline_seconds = 1e-9;
        }
        std::optional<serve::ticket> t;
        try {
          while (!(t = server->try_submit(request))) consume_oldest();
        } catch (const fault::injected_fault&) {
          ++rejected_submits;  // lease fault: the request never got a ticket
          continue;
        }
        if (chaos && fault::any_armed() && index % 7 == 2) {
          server->cancel(*t);  // may race completion; either outcome is fine
        }
        open.push_back(*t);
      }
    }
    while (!open.empty()) consume_oldest();

    bool chaos_ok = true;
    if (chaos) {
      // Recovery probes: with the faults gone, every qubit must serve clean
      // again — qubit 0 on the auto-rolled-back v1.
      for (std::size_t q = 0; q < n_qubits; ++q) {
        const serve::ticket probe =
            server->submit({q, &data[q].test, engine});
        server->wait(probe, result);
        if (result.status != serve::request_status::ok) chaos_ok = false;
      }
      if (reg->active_version(0) != 1) chaos_ok = false;
      if (!reg->degraded(0)) chaos_ok = false;
      if (reg->stats().demotions == 0) chaos_ok = false;
    }
    const double elapsed = timer.seconds();

    const serve::server_stats stats = server->stats();
    std::printf(
        "\nserved %llu requests / %llu shots in %.3f s\n"
        "  throughput  %.0f shots/s\n"
        "  latency     p50 %.3f ms   p99 %.3f ms\n"
        "  spot-check  %s\n",
        static_cast<unsigned long long>(stats.requests_completed),
        static_cast<unsigned long long>(stats.shots_completed), elapsed,
        static_cast<double>(stats.shots_completed) / elapsed,
        stats.latency_p50_seconds * 1e3, stats.latency_p99_seconds * 1e3,
        mismatches == 0 ? "all decisions match the serial path"
                        : "MISMATCH vs serial path");
    if (use_registry) {
      const registry::registry_stats reg_stats = reg->stats();
      std::printf(
          "  registry    %llu published / %llu activations / %llu acquires, "
          "%llu version switches observed, last served v%llu\n",
          static_cast<unsigned long long>(reg_stats.published),
          static_cast<unsigned long long>(reg_stats.activations),
          static_cast<unsigned long long>(reg_stats.acquires),
          static_cast<unsigned long long>(stats.version_switches),
          static_cast<unsigned long long>(last_version_served));
      print_registry(*reg);
      const std::string directory = cli.get_string("registry-dir");
      if (!directory.empty()) {
        reg->save_directory(directory);
        std::printf("saved registry to %s\n", directory.c_str());
      }
    }
    if (chaos) {
      const registry::registry_stats reg_stats = reg->stats();
      std::printf(
          "  chaos       %llu failed / %llu timed out / %llu cancelled "
          "requests, %zu rejected submits\n"
          "              %llu demotions -> %llu registry rollbacks "
          "(%llu seen by serve)\n",
          static_cast<unsigned long long>(stats.failed_requests),
          static_cast<unsigned long long>(stats.timed_out_requests),
          static_cast<unsigned long long>(stats.cancelled_requests),
          rejected_submits,
          static_cast<unsigned long long>(reg_stats.demotions),
          static_cast<unsigned long long>(reg_stats.rollbacks),
          static_cast<unsigned long long>(stats.rollbacks));
      for (std::size_t q = 0; q < n_qubits; ++q) {
        if (reg->degraded(q)) {
          std::printf("              qubit %zu flagged degraded (active "
                      "v%llu)\n",
                      q, static_cast<unsigned long long>(
                             reg->active_version(q)));
        }
      }
      for (const fault::site_report& row : chaos_report) {
        std::printf("              fault %-24s fired %llu / %llu\n",
                    row.site.c_str(),
                    static_cast<unsigned long long>(row.fired),
                    static_cast<unsigned long long>(row.evaluations));
      }
      const std::vector<obs::kept_trace> kept = server->traces().kept();
      std::size_t anomalous = 0;
      for (const obs::kept_trace& entry : kept) {
        if (entry.anomalous) ++anomalous;
      }
      std::printf("              trace ring keeps %zu request(s), "
                  "%zu anomalous\n",
                  kept.size(), anomalous);
      std::printf("  chaos smoke %s\n", chaos_ok ? "PASS" : "FAIL");
    }

    // Exit metrics dump: the one-stop operational snapshot. Registry and
    // chaos runs always print it (the whole point of those demos is seeing
    // the stack's telemetry); plain runs opt in with --metrics-dump.
    const bool dump_metrics = cli.get_flag("metrics-dump") || use_registry;
    const std::string metrics_file = cli.get_string("metrics-file");
    if (dump_metrics || !metrics_file.empty()) {
      const std::string text = metrics.prometheus_text();
      if (dump_metrics) std::printf("\n--- metrics ---\n%s", text.c_str());
      if (!metrics_file.empty()) {
        std::ofstream out(metrics_file);
        KLINQ_REQUIRE(static_cast<bool>(out),
                      "--metrics-file: cannot open " + metrics_file);
        out << text;
        std::printf("wrote metrics to %s\n", metrics_file.c_str());
      }
    }
    return mismatches == 0 && chaos_ok ? 0 : 1;
  } catch (const error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
