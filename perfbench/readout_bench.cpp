// Readout benchmark harness: drives the real klinq serving stack from
// outside and prints one JSON result line.
//
// Set-up generates the paper's 5-qubit device data with qsim, distills one
// kd student per qubit, publishes each (with its Q16.16 hardware twin) into
// a registry::model_registry, and serves it through serve::readout_server
// behind net::tcp_front_end on loopback. Library-default server_config{} /
// front_end_config{} throughout, so a change to a default is measured.
// Workloads (README.md gives the rationale):
//
//   wire-small           one client thread, 4 connections, each pipelining
//                        bursts of 8 bulk-lane 4-shot requests rotating over
//                        qubits.
//   feedback-under-load  a controller sends 1-shot feedback-lane probes one
//                        at a time while a second thread keeps a closed loop
//                        of 256-shot bulk requests, in bursts of 8, on
//                        another connection.
//
// Every ok response is compared bit for bit with registers precomputed by
// the serial fixed_discriminator::logits path; a mismatch fails the run.
//
//   readout_bench --workload wire-small --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
// run that prints the per-layer metrics and writes a Chrome trace.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/core/fidelity.hpp"
#include "klinq/core/presets.hpp"
#include "klinq/hw/cycle_model.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/net/client.hpp"
#include "klinq/net/frame.hpp"
#include "klinq/net/tcp_front_end.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/registry/snapshot.hpp"
#include "klinq/serve/readout_server.hpp"

#ifndef KLINQ_BUILD_TYPE
#define KLINQ_BUILD_TYPE "unknown"
#endif

namespace {

using namespace klinq;
using fx::q16_16;
using steady = std::chrono::steady_clock;

constexpr std::size_t kQubits = 5;
/// The device dataset is fixed, like a recorded calibration set: the
/// benchmark seed shapes the traffic (shot order, request composition,
/// qubit rotation), never the model, so fidelity_f5q repeats exactly.
constexpr std::uint64_t kDeviceSeed = 42;
constexpr std::size_t kSetupRepeats = 3;

// Request shapes of the workloads (README.md gives the rationale).
constexpr std::size_t kWireConnections = 4;
constexpr std::size_t kWireDepth = 8;
constexpr std::size_t kWireShots = 4;
constexpr std::size_t kLoadShots = 256;
constexpr std::size_t kLoadDepth = 8;
constexpr std::size_t kProbesPerQubit = 256;

double seconds_since(steady::time_point start) {
  return std::chrono::duration<double>(steady::now() - start).count();
}

/// Confines the process to one CPU, the highest in its affinity mask; every
/// thread started afterwards inherits it. On a small shared VM, work spread
/// over several vCPUs waits for the host to wake halted ones, and that wait
/// swings from run to run with the other tenants' load. On one CPU a
/// hand-off is a plain context switch. Returns the CPUs the process had.
int pin_to_one_cpu() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  KLINQ_REQUIRE(sched_getaffinity(0, sizeof(cpus), &cpus) == 0,
                "cannot read the CPU affinity");
  const int available = CPU_COUNT(&cpus);
  int last = CPU_SETSIZE - 1;
  while (!CPU_ISSET(last, &cpus)) --last;
  CPU_ZERO(&cpus);
  CPU_SET(last, &cpus);
  KLINQ_REQUIRE(sched_setaffinity(0, sizeof(cpus), &cpus) == 0,
                "cannot set the CPU affinity");
  return available;
}

// ---------------------------------------------------------------------------
// Options and workload definitions
// ---------------------------------------------------------------------------

enum class workload_kind { wire_small, feedback_under_load };

struct workload_def {
  const char* name;
  workload_kind kind;
  /// Fixed latency limit of the workload's measured requests (µs).
  double limit_us;
};

constexpr workload_def kWorkloads[] = {
    {"wire-small", workload_kind::wire_small, 9000.0},
    {"feedback-under-load", workload_kind::feedback_under_load, 1000.0},
};

struct options {
  const workload_def* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  bool tiny = false;
  bool oracle_self_test = false;
  std::string chrome_trace;
};

options parse_options(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      KLINQ_REQUIRE(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const workload_def& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      KLINQ_REQUIRE(opt.workload != nullptr, "unknown workload " + name);
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.traced = value() == "1";
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--oracle-self-test") {
      opt.oracle_self_test = true;
    } else if (arg == "--chrome-trace") {
      opt.chrome_trace = value();
    } else {
      throw invalid_argument_error("unknown option " + arg);
    }
  }
  KLINQ_REQUIRE(opt.oracle_self_test || opt.workload != nullptr,
                "--workload is required");
  KLINQ_REQUIRE(opt.seconds > 0.0, "--seconds must be positive");
  return opt;
}

// ---------------------------------------------------------------------------
// Set-up: qsim → kd → registry publish → server / front end
// ---------------------------------------------------------------------------

struct deployment {
  std::vector<qsim::qubit_dataset> data;
  std::unique_ptr<registry::model_registry> models;
  std::unique_ptr<serve::readout_server> server;
  std::unique_ptr<net::tcp_front_end> front_end;
  // Set-up phase times (seconds) and the simulated shot count.
  double qsim_s = 0.0;
  double kd_s = 0.0;
  double publish_s = 0.0;
  std::size_t qsim_shots = 0;
};

/// Builds everything up to a serving, listening stack. `traces` is the
/// traced run's span ring (null: untraced).
std::unique_ptr<deployment> deploy(const options& opt, obs::trace_ring* traces) {
  auto dep = std::make_unique<deployment>();
  steady::time_point t = steady::now();
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = opt.tiny ? 12 : 50;
  spec.shots_per_permutation_test = opt.tiny ? 8 : 32;
  spec.seed = kDeviceSeed;
  for (std::size_t q = 0; q < kQubits; ++q) {
    dep->data.push_back(qsim::build_qubit_dataset(spec, q));
    dep->qsim_shots += dep->data.back().train.size() +
                       dep->data.back().test.size();
  }
  dep->qsim_s = seconds_since(t);

  t = steady::now();
  std::vector<kd::student_model> students;
  for (std::size_t q = 0; q < kQubits; ++q) {
    kd::student_config config =
        core::student_config_for(core::arch_for_qubit(q), 7 + q);
    config.epochs = opt.tiny ? 4 : 20;
    students.push_back(kd::distill_student(dep->data[q].train, {}, config));
  }
  dep->kd_s = seconds_since(t);

  t = steady::now();
  dep->models = std::make_unique<registry::model_registry>(kQubits);
  for (std::size_t q = 0; q < kQubits; ++q) {
    dep->models->publish(q, registry::model_snapshot(std::move(students[q])));
  }
  dep->publish_s = seconds_since(t);

  serve::server_config server_config;
  server_config.traces = traces;
  dep->server =
      std::make_unique<serve::readout_server>(*dep->models, server_config);
  net::front_end_config fe_config;
  fe_config.traces = traces;
  dep->front_end = std::make_unique<net::tcp_front_end>(*dep->server, fe_config);
  return dep;
}

// ---------------------------------------------------------------------------
// Traffic and the correctness oracle
// ---------------------------------------------------------------------------

struct request_block {
  std::size_t qubit = 0;
  std::vector<std::size_t> rows;  // test-block rows, in request order
  data::trace_dataset traces;
  /// Encoded request payload of the pipelined (bulk-lane) blocks. Encoding
  /// is input preparation: a client fed by an ADC does not convert datasets
  /// per request, and on one CPU that work would be taken from the server.
  std::vector<std::uint8_t> payload;
};

/// Every request shape a workload sends, cut from seeded shot orders.
struct traffic {
  std::vector<request_block> small;   // kWireShots-shot requests
  std::vector<request_block> probes;  // 1-shot feedback probes
  std::vector<request_block> load;    // kLoadShots-shot bulk stream
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

request_block make_block(const data::trace_dataset& test, std::size_t qubit,
                         std::vector<std::size_t> rows) {
  request_block block;
  block.qubit = qubit;
  block.traces = test.subset(rows);
  block.rows = std::move(rows);
  return block;
}

void encode_payload(request_block& block) {
  net::request_info info;
  info.qubit = static_cast<std::uint32_t>(block.qubit);
  info.samples_per_quadrature =
      static_cast<std::uint32_t>(block.traces.samples_per_quadrature());
  info.shots = static_cast<std::uint32_t>(block.traces.size());
  const std::vector<std::uint8_t> frame =
      net::encode_request(0, info, serve::lane_class::bulk, block.traces);
  block.payload.assign(frame.begin() + net::kHeaderSize, frame.end());
}

/// Appends a bulk-lane request frame for `block` to `out`: a fresh header
/// (id, optional trace context) ahead of the block's encoded payload, byte
/// for byte what net::encode_request writes.
void append_request(std::vector<std::uint8_t>& out, const request_block& block,
                    std::uint64_t id, const net::trace_context* trace) {
  const std::size_t context = trace != nullptr ? net::kTraceContextSize : 0;
  net::frame_header header;
  header.type = net::frame_type::request;
  header.lane = serve::lane_class::bulk;
  header.flags = trace != nullptr ? net::kTraceFlag : 0;
  header.request_id = id;
  header.payload_size =
      static_cast<std::uint32_t>(context + block.payload.size());
  const std::size_t at = out.size();
  out.resize(at + net::kHeaderSize + context);
  net::encode_header(header, out.data() + at);
  if (trace != nullptr) {
    net::encode_trace_context(*trace, out.data() + at + net::kHeaderSize);
  }
  out.insert(out.end(), block.payload.begin(), block.payload.end());
}

/// Cuts `shots`-row requests from each qubit's seeded shot order and
/// interleaves them so consecutive requests rotate over the qubits.
std::vector<request_block> cut(const deployment& dep,
                               const std::vector<std::vector<std::size_t>>& order,
                               std::size_t shots, std::size_t per_qubit) {
  std::vector<request_block> out;
  for (std::size_t k = 0; k < per_qubit; ++k) {
    for (std::size_t q = 0; q < kQubits; ++q) {
      const std::size_t block = order[q].size();
      std::vector<std::size_t> rows;
      for (std::size_t s = 0; s < shots; ++s) {
        rows.push_back(order[q][(k * shots + s) % block]);
      }
      out.push_back(make_block(dep.data[q].test, q, std::move(rows)));
    }
  }
  return out;
}

traffic make_traffic(const deployment& dep, std::uint64_t seed) {
  std::uint64_t state = seed * 0x2545F4914F6CDD1Dull + 1;
  std::vector<std::vector<std::size_t>> order(kQubits);
  for (std::size_t q = 0; q < kQubits; ++q) {
    const std::size_t block = dep.data[q].test.size();
    order[q].resize(block);
    for (std::size_t r = 0; r < block; ++r) order[q][r] = r;
    for (std::size_t r = block; r > 1; --r) {
      std::swap(order[q][r - 1], order[q][splitmix64(state) % r]);
    }
  }
  const std::size_t block = dep.data[0].test.size();
  traffic t;
  t.small = cut(dep, order, kWireShots, block / kWireShots);
  t.probes = cut(dep, order, 1, std::min(kProbesPerQubit, block));
  t.load = cut(dep, order, std::min(kLoadShots, block),
               block / std::min(kLoadShots, block));
  for (request_block& b : t.small) encode_payload(b);
  for (request_block& b : t.load) encode_payload(b);
  return t;
}

/// Serial-path registers for every (qubit, row), plus the labels.
class oracle {
 public:
  explicit oracle(const deployment& dep) {
    for (std::size_t q = 0; q < kQubits; ++q) {
      const data::trace_dataset& test = dep.data[q].test;
      std::vector<q16_16> registers(test.size());
      dep.models->active(q)->hardware().logits(test, registers);
      std::vector<std::int32_t> raw(test.size());
      std::vector<std::uint8_t> labels(test.size());
      for (std::size_t r = 0; r < test.size(); ++r) {
        raw[r] = static_cast<std::int32_t>(registers[r].raw());
        labels[r] = test.label_state(r) ? 1 : 0;
      }
      raw_.push_back(std::move(raw));
      labels_.push_back(std::move(labels));
    }
  }

  std::size_t rows(std::size_t qubit) const { return raw_[qubit].size(); }
  std::uint8_t label(std::size_t qubit, std::size_t row) const {
    return labels_[qubit][row];
  }

  /// True when every register and decision equals the serial path.
  template <class Register>
  bool matches(const request_block& block, std::span<const Register> registers,
               std::span<const std::uint8_t> states,
               std::int32_t (*raw_of)(const Register&)) const {
    if (registers.size() != block.rows.size() ||
        states.size() != block.rows.size()) {
      return false;
    }
    const std::vector<std::int32_t>& expected = raw_[block.qubit];
    for (std::size_t i = 0; i < block.rows.size(); ++i) {
      const std::int32_t raw = raw_of(registers[i]);
      if (raw != expected[block.rows[i]] ||
          states[i] != (raw >= 0 ? 1 : 0)) {
        return false;
      }
    }
    return true;
  }

  /// Flips one expected register bit (the oracle self-test).
  void corrupt(std::size_t qubit, std::size_t row) { raw_[qubit][row] ^= 1; }

 private:
  std::vector<std::vector<std::int32_t>> raw_;
  std::vector<std::vector<std::uint8_t>> labels_;
};

std::int32_t raw_of_fixed(const q16_16& r) {
  return static_cast<std::int32_t>(r.raw());
}
std::int32_t raw_of_wire(const std::int32_t& r) { return r; }

// ---------------------------------------------------------------------------
// Outcome accounting
// ---------------------------------------------------------------------------

struct tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t ok_shots = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::uint64_t not_ok_status = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t measured = 0;
  std::uint64_t measured_in_limit = 0;
  std::vector<double> latency_us;        // measured, ok requests
  std::vector<double> wire_overhead_us;  // client RTT − server latency
  std::vector<double> submit_us;         // time inside submit (in-process)
  /// (completion time, shots) of every ok request, for per-second rates.
  std::vector<std::pair<steady::time_point, std::size_t>> completions;
  /// Served decision + 1 per (qubit, row); 0 = not served yet.
  std::vector<std::vector<std::uint8_t>> served;

  std::uint64_t failed() const { return attempted - ok; }

  void merge(const tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    ok_shots += o.ok_shots;
    busy += o.busy;
    errors += o.errors;
    lost += o.lost;
    not_ok_status += o.not_ok_status;
    mismatched += o.mismatched;
    measured += o.measured;
    measured_in_limit += o.measured_in_limit;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    wire_overhead_us.insert(wire_overhead_us.end(), o.wire_overhead_us.begin(),
                            o.wire_overhead_us.end());
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    completions.insert(completions.end(), o.completions.begin(),
                       o.completions.end());
    if (served.size() < o.served.size()) served.resize(o.served.size());
    for (std::size_t q = 0; q < o.served.size(); ++q) {
      if (served[q].size() < o.served[q].size()) {
        served[q].resize(o.served[q].size(), 0);
      }
      for (std::size_t r = 0; r < o.served[q].size(); ++r) {
        served[q][r] = std::max(served[q][r], o.served[q][r]);
      }
    }
  }
};

/// Outcome of one request: `ok_states` is non-null only when the request
/// resolved ok and matched the oracle.
void account(tally& t, const request_block& block, double latency_us,
             bool measured, double limit_us, const std::uint8_t* ok_states) {
  ++t.attempted;
  if (measured) ++t.measured;
  if (ok_states == nullptr) return;
  ++t.ok;
  t.ok_shots += block.rows.size();
  t.completions.emplace_back(steady::now(), block.rows.size());
  if (measured) {
    t.latency_us.push_back(latency_us);
    if (latency_us <= limit_us) ++t.measured_in_limit;
  }
  if (t.served.empty()) t.served.resize(kQubits);
  std::vector<std::uint8_t>& served = t.served[block.qubit];
  for (std::size_t i = 0; i < block.rows.size(); ++i) {
    if (served.size() <= block.rows[i]) served.resize(block.rows[i] + 1, 0);
    served[block.rows[i]] = static_cast<std::uint8_t>(ok_states[i] + 1);
  }
}

/// Wire reply → tally (busy / error / lost / non-ok / mismatch all fail).
void account_reply(tally& t, const oracle& expected, const request_block& block,
                   const std::optional<net::client_frame>& reply,
                   double rtt_us, bool measured, double limit_us) {
  if (!reply) {
    ++t.lost;
  } else if (reply->header.type == net::frame_type::busy) {
    ++t.busy;
  } else if (reply->header.type != net::frame_type::response) {
    ++t.errors;
  } else {
    const net::response_view view = net::decode_response(reply->payload);
    if (view.status != serve::request_status::ok) {
      ++t.not_ok_status;
    } else if (!expected.matches<std::int32_t>(block, view.registers,
                                               view.states, raw_of_wire)) {
      ++t.mismatched;
    } else {
      if (measured) {
        t.wire_overhead_us.push_back(rtt_us - view.latency_seconds * 1e6);
      }
      account(t, block, rtt_us, measured, limit_us, view.states.data());
      return;
    }
  }
  account(t, block, rtt_us, measured, limit_us, nullptr);
}

/// Stop condition: whichever of a duration or a request count comes first.
struct run_limit {
  double seconds = std::numeric_limits<double>::infinity();
  std::size_t requests = std::numeric_limits<std::size_t>::max();
};

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced run only)
// ---------------------------------------------------------------------------

/// Records one benchmark-side span around a call into a layer. Each gets a
/// fresh trace id so it never joins a request's span tree.
class bench_span {
 public:
  bench_span(obs::trace_ring* ring, const char* name)
      : ring_(ring != nullptr && ring->armed() ? ring : nullptr) {
    if (ring_ == nullptr) return;
    span_.trace_id = ring_->next_trace_id();
    span_.span_id = ring_->next_span_id();
    span_.name = name;
    span_.category = "bench";
    span_.start_us = obs::trace_clock_us();
  }
  ~bench_span() {
    if (ring_ == nullptr) return;
    span_.duration_us = obs::trace_clock_us() - span_.start_us;
    ring_->record(std::move(span_));
  }
  bench_span(const bench_span&) = delete;
  bench_span& operator=(const bench_span&) = delete;

 private:
  obs::trace_ring* ring_;
  obs::trace_span span_;
};

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// In-process closed loop: keeps `depth` requests in flight through
/// submit/wait (FIFO), rotating over `blocks`. The traced run uses it to
/// time `submit` without a wire in front.
tally run_inproc(serve::readout_server& server, const oracle& expected,
                 const std::vector<request_block>& blocks, std::size_t depth,
                 serve::lane_class lane, double limit_us, run_limit limit) {
  struct inflight {
    serve::ticket ticket;
    std::size_t block = 0;
    steady::time_point sent;
  };
  tally t;
  std::deque<inflight> window;
  std::size_t next = 0;
  std::size_t sent = 0;
  const steady::time_point start = steady::now();
  const auto submit_next = [&] {
    inflight f;
    f.block = next;
    next = (next + 1) % blocks.size();
    serve::readout_request request;
    request.qubit = blocks[f.block].qubit;
    request.traces = &blocks[f.block].traces;
    request.lane = lane;
    f.sent = steady::now();
    f.ticket = server.submit(request);
    t.submit_us.push_back(seconds_since(f.sent) * 1e6);
    window.push_back(f);
    ++sent;
  };
  const auto more = [&] {
    return sent < limit.requests && seconds_since(start) < limit.seconds;
  };
  while (window.size() < depth && more()) submit_next();
  serve::readout_result result;
  while (!window.empty()) {
    const inflight f = window.front();
    window.pop_front();
    server.wait(f.ticket, result);
    const double latency_us = seconds_since(f.sent) * 1e6;
    const request_block& block = blocks[f.block];
    const bool ok = result.status == serve::request_status::ok;
    const bool match =
        ok && expected.matches<q16_16>(block, result.registers, result.states,
                                       raw_of_fixed);
    if (!ok) ++t.not_ok_status;
    if (ok && !match) ++t.mismatched;
    account(t, block, latency_us, true, limit_us,
            match ? result.states.data() : nullptr);
    if (more()) submit_next();
  }
  return t;
}

/// One client thread over several connections. Each connection pipelines
/// `depth` bulk-lane requests written back to back in one send, then reads
/// their replies and writes the next burst; connections take turns. Whole
/// bursts keep the server's per-wake batching the same from run to run.
/// `measured` requests feed the latency figures; a set `stop` ends the run
/// like `limit` does.
tally run_wire_pipelined(std::uint16_t port, const oracle& expected,
                         const std::vector<request_block>& blocks,
                         std::size_t connections, std::size_t depth,
                         double limit_us, run_limit limit,
                         obs::trace_ring* ring, bool measured = true,
                         const std::atomic<bool>* stop = nullptr) {
  struct inflight {
    std::uint64_t id = 0;
    std::size_t block = 0;
    net::trace_context trace;  // zero unless traced
    std::uint64_t start_us = 0;
  };
  struct connection {
    net::client client;
    std::vector<inflight> burst;
    steady::time_point sent;
  };
  std::vector<connection> conns;
  for (std::size_t c = 0; c < connections; ++c) {
    conns.push_back({net::client("127.0.0.1", port), {}, {}});
  }
  const bool traced = ring != nullptr && ring->armed();
  tally t;
  std::size_t next = 0;
  std::uint64_t next_id = 1;
  std::size_t sent = 0;
  std::vector<std::uint8_t> bytes;
  const steady::time_point start = steady::now();
  const auto more = [&] {
    return sent < limit.requests && seconds_since(start) < limit.seconds &&
           (stop == nullptr || !stop->load(std::memory_order_acquire));
  };
  const auto send_burst = [&](connection& conn) {
    bytes.clear();
    conn.burst.clear();
    for (std::size_t d = 0; d < depth && more(); ++d, ++sent) {
      inflight f;
      f.id = next_id++;
      f.block = next;
      if (traced) {
        f.trace = {ring->next_trace_id(), ring->next_span_id()};
        f.start_us = obs::trace_clock_us();
      }
      append_request(bytes, blocks[next], f.id, traced ? &f.trace : nullptr);
      conn.burst.push_back(f);
      next = (next + 1) % blocks.size();
    }
    if (conn.burst.empty()) return;
    conn.sent = steady::now();
    bench_span span(ring, "bench.send_request");
    conn.client.send_bytes(bytes);
  };
  for (connection& conn : conns) send_burst(conn);
  for (bool pending = true; pending;) {
    pending = false;
    for (connection& conn : conns) {
      for (const inflight& f : conn.burst) {
        std::optional<net::client_frame> reply;
        {
          bench_span span(ring, "bench.read_reply");
          reply = conn.client.read_reply(f.id);
        }
        if (traced) {
          obs::trace_span rtt;
          rtt.trace_id = f.trace.trace_id;
          rtt.span_id = f.trace.parent_span;
          rtt.start_us = f.start_us;
          rtt.duration_us = obs::trace_clock_us() - f.start_us;
          rtt.name = "client.rtt";
          rtt.category = "client";
          ring->record(std::move(rtt));
        }
        account_reply(t, expected, blocks[f.block], reply,
                      seconds_since(conn.sent) * 1e6, measured, limit_us);
      }
      send_burst(conn);
      pending = pending || !conn.burst.empty();
    }
  }
  for (connection& conn : conns) conn.client.send_goodbye();
  return t;
}

/// Serial feedback-lane probes on one connection (each sent only after the
/// previous reply) while `load_depth` > 0 keeps a closed loop of bulk
/// requests, in bursts of `load_depth`, on a second connection from another
/// thread.
tally run_feedback(std::uint16_t port, const oracle& expected,
                   const traffic& tr, std::size_t load_depth, double limit_us,
                   run_limit limit, obs::trace_ring* ring) {
  std::atomic<bool> stop{false};
  tally load_tally;
  std::exception_ptr load_error;
  std::thread load;
  if (load_depth > 0) {
    load = std::thread([&] {
      try {
        load_tally = run_wire_pipelined(port, expected, tr.load, 1, load_depth,
                                        limit_us, run_limit{}, nullptr, false,
                                        &stop);
      } catch (...) {
        load_error = std::current_exception();
      }
    });
  }
  tally t;
  try {
    net::client cli("127.0.0.1", port);
    if (ring != nullptr && ring->armed()) cli.enable_tracing(ring);
    const steady::time_point start = steady::now();
    for (std::size_t sent = 0;
         sent < limit.requests && seconds_since(start) < limit.seconds;
         ++sent) {
      const request_block& block = tr.probes[sent % tr.probes.size()];
      net::request_info info;
      info.qubit = static_cast<std::uint32_t>(block.qubit);
      info.samples_per_quadrature =
          static_cast<std::uint32_t>(block.traces.samples_per_quadrature());
      info.shots = 1;
      const steady::time_point sent_at = steady::now();
      std::uint64_t id = 0;
      {
        bench_span span(ring, "bench.send_request");
        id = cli.send_request(info, block.traces, serve::lane_class::feedback);
      }
      std::optional<net::client_frame> reply;
      {
        bench_span span(ring, "bench.read_reply");
        reply = cli.read_reply(id);
      }
      account_reply(t, expected, block, reply,
                    seconds_since(sent_at) * 1e6, true, limit_us);
    }
    cli.send_goodbye();
  } catch (...) {
    stop.store(true, std::memory_order_release);
    if (load.joinable()) load.join();
    throw;
  }
  stop.store(true, std::memory_order_release);
  if (load.joinable()) load.join();
  if (load_error) std::rethrow_exception(load_error);
  t.merge(load_tally);
  return t;
}

/// Runs the workload's own traffic shape against a deployment.
tally run_workload(const workload_def& w, deployment& dep, const oracle& expected,
                   const traffic& tr, run_limit limit, obs::trace_ring* ring) {
  switch (w.kind) {
    case workload_kind::wire_small:
      return run_wire_pipelined(dep.front_end->port(), expected, tr.small,
                                kWireConnections, kWireDepth, w.limit_us, limit,
                                ring);
    case workload_kind::feedback_under_load:
      return run_feedback(dep.front_end->port(), expected, tr, kLoadDepth,
                          w.limit_us, limit, ring);
  }
  return {};
}

/// Warm-up request counts: enough for every pool worker, shard arena and
/// connection buffer to have been used once before timing starts.
run_limit warmup_limit(const workload_def& w) {
  run_limit limit;
  switch (w.kind) {
    case workload_kind::wire_small: limit.requests = 512; break;
    case workload_kind::feedback_under_load: limit.requests = 128; break;
  }
  return limit;
}

// ---------------------------------------------------------------------------
// Host measurements
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB → MiB
}

/// Aggregate CPU ticks from /proc/stat (all zero when unreadable).
struct cpu_ticks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

cpu_ticks read_cpu_ticks() {
  cpu_ticks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Median of whole-microsecond span durations, interpolated inside the 1 µs
/// bin that holds it (a value v stands for [v − 0.5, v + 0.5)), so a median
/// of a few microseconds is not stuck on an integer.
double span_median_us(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double half = static_cast<double>(values.size()) / 2.0;
  const double v = values[static_cast<std::size_t>(half)];
  const auto below = std::lower_bound(values.begin(), values.end(), v);
  const auto upto = std::upper_bound(values.begin(), values.end(), v);
  return v - 0.5 +
         (half - static_cast<double>(below - values.begin())) /
             static_cast<double>(upto - below);
}

/// Ok shots per second in consecutive `bin_s` bins of the window starting
/// at `start` (a trailing partial bin is dropped unless it is the only one).
std::vector<double> binned_rates(const tally& t, steady::time_point start,
                                 double window_s, double bin_s) {
  const auto bins = std::max<std::size_t>(
      1, static_cast<std::size_t>(window_s / bin_s));
  const double width = std::min(bin_s, window_s);
  std::vector<double> shots(bins, 0.0);
  for (const auto& [when, n] : t.completions) {
    const double at = std::chrono::duration<double>(when - start).count();
    const auto bin = static_cast<std::size_t>(std::max(0.0, at) / width);
    if (bin < bins) shots[bin] += static_cast<double>(n);
  }
  for (double& s : shots) s /= width;
  return shots;
}

/// F5Q: geometric mean of the per-qubit assignment fidelity of the served
/// decisions. Negative when some test row was never served.
double served_fidelity(const tally& t, const oracle& expected) {
  core::fidelity_report report;
  for (std::size_t q = 0; q < kQubits; ++q) {
    if (t.served.size() <= q || t.served[q].size() < expected.rows(q)) {
      return -1.0;
    }
    std::size_t correct = 0;
    for (std::size_t r = 0; r < expected.rows(q); ++r) {
      if (t.served[q][r] == 0) return -1.0;
      correct += (t.served[q][r] - 1 == expected.label(q, r)) ? 1 : 0;
    }
    report.per_qubit.push_back(static_cast<double>(correct) /
                               static_cast<double>(expected.rows(q)));
  }
  return report.geometric_mean_all();
}

// ---------------------------------------------------------------------------
// Result printing
// ---------------------------------------------------------------------------

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, const tally& t,
                  const std::vector<metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    t.attempted, 1));
  json += ", \"failed\": " + std::to_string(t.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_table(const std::vector<metric>& metrics) {
  for (const metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---------------------------------------------------------------------------
// Per-layer measurement (the traced run)
// ---------------------------------------------------------------------------

/// Per-request span durations of complete traces (a client.rtt root plus
/// net/serve children). net.admit is reported as self time (net.decode runs
/// inside it); `gap` is the part of the RTT no child span covers.
struct span_breakdown {
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> rtt_us;
  std::vector<double> gap_us;
  std::size_t traces = 0;
};

span_breakdown analyze_spans(const std::vector<obs::trace_span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const obs::trace_span*>> by_trace;
  for (const obs::trace_span& s : spans) {
    if (s.category != "bench") by_trace[s.trace_id].push_back(&s);
  }
  span_breakdown out;
  for (const auto& [id, group] : by_trace) {
    const obs::trace_span* root = nullptr;
    std::map<std::string, const obs::trace_span*> child;
    for (const obs::trace_span* s : group) {
      if (s->name == "client.rtt") {
        root = s;
      } else {
        child[s->name] = s;
      }
    }
    if (root == nullptr || child.count("serve.exec") == 0 ||
        child.count("net.read") == 0 || child.count("net.decode") == 0 ||
        child.count("net.admit") == 0 || child.count("net.write") == 0) {
      continue;
    }
    ++out.traces;
    const auto dur = [&](const char* name) {
      return static_cast<double>(child.at(name)->duration_us);
    };
    for (const char* name : {"serve.hold", "serve.queue", "serve.exec"}) {
      if (child.count(name) != 0) out.self_us[name].push_back(dur(name));
    }
    out.self_us["net.read"].push_back(dur("net.read"));
    out.self_us["net.decode"].push_back(dur("net.decode"));
    out.self_us["net.admit"].push_back(
        std::max(0.0, dur("net.admit") - dur("net.decode")));
    out.self_us["net.write"].push_back(dur("net.write"));
    // Uncovered part of the RTT: merge the child intervals clipped to it.
    const std::uint64_t begin = root->start_us;
    const std::uint64_t end = root->start_us + root->duration_us;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const auto& [name, s] : child) {
      const std::uint64_t b = std::max(begin, s->start_us);
      const std::uint64_t e = std::min(end, s->start_us + s->duration_us);
      if (b < e) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_us = 0;
    std::uint64_t cursor = begin;
    for (const auto& [b, e] : covered) {
      const std::uint64_t from = std::max(b, cursor);
      if (e > from) {
        union_us += e - from;
        cursor = e;
      }
    }
    out.rtt_us.push_back(static_cast<double>(root->duration_us));
    out.gap_us.push_back(static_cast<double>(root->duration_us - union_us));
  }
  return out;
}

/// hw stage costs, timed single-threaded on the deployed Q16.16 engines
/// over every qubit's test block. `request_shots` sizes the logits_block
/// calls like the workload's requests.
struct hw_costs {
  double quantize_ns = 0.0;
  double extract_ns = 0.0;
  double fc_ns = 0.0;
  double block_ns = 0.0;
  double model_cycles = 0.0;
};

hw_costs time_hw_stages(const deployment& dep, std::size_t request_shots,
                        obs::trace_ring* ring) {
  using network = hw::quantized_network<q16_16>;
  constexpr std::size_t kTile = network::kBatchTile;
  constexpr int kPasses = 3;
  double quantize_s = 0.0, extract_s = 0.0, fc_s = 0.0, block_s = 0.0;
  std::size_t shots = 0;
  std::size_t cycles = 0;
  for (std::size_t q = 0; q < kQubits; ++q) {
    const hw::fixed_discriminator<q16_16>& engine =
        dep.models->active(q)->hardware();
    const data::trace_dataset& test = dep.data[q].test;
    const std::size_t rows = test.size() / kTile * kTile;
    const std::size_t n = test.samples_per_quadrature();
    const std::size_t width = engine.frontend().output_width();
    std::vector<std::int32_t> quantized(rows * 2 * n);
    std::vector<std::int32_t> planes(rows * width);
    std::vector<std::int32_t> logits(kTile);
    std::vector<q16_16> out(test.size());
    hw::quantized_scratch<q16_16> net_scratch;
    hw::discriminator_scratch<q16_16> scratch;
    for (int pass = 0; pass <= kPasses; ++pass) {
      const bool timed = pass > 0;  // pass 0 warms caches
      steady::time_point t = steady::now();
      {
        bench_span span(timed ? ring : nullptr, "hw.quantize_trace_raw");
        for (std::size_t r = 0; r < rows; ++r) {
          hw::fixed_frontend<q16_16>::quantize_trace_raw(
              test.trace(r), std::span(quantized).subspan(r * 2 * n, 2 * n));
        }
      }
      if (timed) quantize_s += seconds_since(t);
      t = steady::now();
      {
        bench_span span(timed ? ring : nullptr, "hw.extract_raw");
        for (std::size_t r = 0; r < rows; ++r) {
          engine.frontend().extract_raw(
              std::span<const std::int32_t>(quantized).subspan(r * 2 * n, 2 * n),
              n, planes.data() + (r / kTile) * width * kTile + r % kTile, kTile);
        }
      }
      if (timed) extract_s += seconds_since(t);
      t = steady::now();
      {
        bench_span span(timed ? ring : nullptr, "hw.forward_logits_plane");
        for (std::size_t tile = 0; tile < rows / kTile; ++tile) {
          engine.net().forward_logits_plane(planes.data() + tile * width * kTile,
                                            kTile, logits.data(), net_scratch);
        }
      }
      if (timed) fc_s += seconds_since(t);
      t = steady::now();
      {
        bench_span span(timed ? ring : nullptr, "hw.logits_block");
        for (std::size_t b = 0; b < rows; b += request_shots) {
          const std::size_t e = std::min(rows, b + request_shots);
          engine.logits_block(test, b, e, std::span(out).subspan(b, e - b),
                              scratch);
        }
      }
      if (timed) block_s += seconds_since(t);
    }
    shots += rows * kPasses;
    const hw::datapath_config datapath =
        engine.frontend().groups_per_quadrature() ==
                core::groups_for_arch(core::student_arch::fnn_a)
            ? hw::fnn_a_datapath(n)
            : hw::fnn_b_datapath(n);
    cycles = std::max(cycles, hw::compute_latency(
                                  datapath, hw::latency_mode::paper_calibrated)
                                  .total_serial_cycles);
  }
  const double per_shot = 1e9 / static_cast<double>(shots);
  return {quantize_s * per_shot, extract_s * per_shot, fc_s * per_shot,
          block_s * per_shot, static_cast<double>(cycles)};
}

double registry_acquire_ns(const registry::model_registry& models) {
  constexpr std::size_t kCalls = 200000;
  std::uint64_t versions = 0;
  const steady::time_point t = steady::now();
  for (std::size_t i = 0; i < kCalls; ++i) {
    versions += models.acquire(i % kQubits).version;
  }
  const double ns = seconds_since(t) * 1e9 / static_cast<double>(kCalls);
  KLINQ_REQUIRE(versions == kCalls, "registry acquire returned no version");
  return ns;
}

/// Serve-stage medians from klinq_serve_stage_seconds, and shards per
/// completed request from klinq_serve_shard_exec_seconds.
void serve_stage_metrics(const serve::readout_server& server,
                         std::vector<metric>& out) {
  const obs::metrics_snapshot snap = server.metrics().snapshot();
  for (const char* stage : {"hold", "queue", "exec"}) {
    out.push_back({std::string("serve.") + stage + "_p50_us",
                   snap.histogram_quantile("klinq_serve_stage_seconds",
                                           {{"stage", stage}}, 0.5) *
                       1e6,
                   "us"});
  }
  double shards = 0.0;
  if (const obs::family_snapshot* family =
          snap.find("klinq_serve_shard_exec_seconds")) {
    for (const obs::series_snapshot& s : family->series) {
      shards += static_cast<double>(s.histogram.count);
    }
  }
  const serve::server_stats stats = server.stats();
  out.push_back({"serve.shards_per_request",
                 shards / std::max<double>(1.0, static_cast<double>(
                                                    stats.requests_completed)),
                 "count"});
}

/// The traced run: an untraced and a traced half of the workload, then the
/// per-module timings. Returns the per-layer metrics.
std::vector<metric> traced_run(const options& opt, deployment& dep,
                               const oracle& expected, const traffic& tr,
                               obs::trace_ring& ring, tally& total, bool& ok) {
  const workload_def& w = *opt.workload;
  const bool feedback = w.kind == workload_kind::feedback_under_load;
  std::vector<metric> m;
  m.push_back({"qsim.build_s", dep.qsim_s, "s"});
  m.push_back({"qsim.shots_per_s",
               static_cast<double>(dep.qsim_shots) / dep.qsim_s, "1/s"});
  m.push_back({"kd.distill_s", dep.kd_s, "s"});
  m.push_back({"registry.publish_s", dep.publish_s, "s"});

  // Untraced then traced halves of the workload itself.
  run_limit half;
  half.seconds = opt.seconds / 2.0;
  steady::time_point t = steady::now();
  const tally untraced = run_workload(w, dep, expected, tr, half, nullptr);
  const double untraced_rate =
      static_cast<double>(untraced.ok_shots) / seconds_since(t);
  ring.set_armed(true);
  t = steady::now();
  const tally traced = run_workload(w, dep, expected, tr, half, &ring);
  const double traced_rate =
      static_cast<double>(traced.ok_shots) / seconds_since(t);
  ring.set_armed(false);
  total.merge(untraced);
  total.merge(traced);
  std::vector<obs::trace_span> spans = ring.spans();
  serve_stage_metrics(*dep.server, m);

  // The workload's own wire accounting, then a quiet server for the
  // in-process probes below.
  std::vector<double> wire_overhead_us = untraced.wire_overhead_us;
  wire_overhead_us.insert(wire_overhead_us.end(),
                          traced.wire_overhead_us.begin(),
                          traced.wire_overhead_us.end());
  double bytes_per_shot = 0.0;
  double busy_ratio = 0.0;
  const auto wire_counts = [&](const net::tcp_front_end& fe, std::uint64_t shots) {
    const net::front_end_stats s = fe.stats();
    s.validate();
    bytes_per_shot = static_cast<double>(s.bytes_received + s.bytes_sent) /
                     std::max<double>(1.0, static_cast<double>(shots));
    busy_ratio = static_cast<double>(s.busy_rejections) /
                 std::max<double>(1.0, static_cast<double>(
                                           s.requests_admitted +
                                           s.busy_rejections));
  };
  dep.front_end->shutdown();
  wire_counts(*dep.front_end, untraced.ok_shots + traced.ok_shots);
  dep.front_end.reset();

  // Time inside submit, with the workload's request shape, in-process.
  run_limit probe;
  probe.seconds = 0.5;
  const tally submits = run_inproc(
      *dep.server, expected, feedback ? tr.probes : tr.small,
      feedback ? 1 : kWireConnections * kWireDepth,
      feedback ? serve::lane_class::feedback : serve::lane_class::bulk,
      w.limit_us, probe);
  total.merge(submits);

  // wire-small has no feedback traffic: a serial feedback companion on a
  // fresh front end supplies serve.feedback_*.
  if (!feedback) {
    ring.clear();
    ring.set_armed(true);
    net::front_end_config fe_config;
    fe_config.traces = &ring;
    net::tcp_front_end companion(*dep.server, fe_config);
    const tally probes =
        run_feedback(companion.port(), expected, tr, 0, 1000.0, probe, &ring);
    ring.set_armed(false);
    companion.shutdown();
    total.merge(probes);
  }
  const serve::server_stats stats = dep.server->stats();
  m.push_back({"serve.feedback_p50_us", stats.feedback_p50_seconds * 1e6, "us"});
  m.push_back({"serve.feedback_p99_us", stats.feedback_p99_seconds * 1e6, "us"});
  m.push_back({"serve.submit_p50_us", quantile(submits.submit_us, 0.5), "us"});
  m.push_back({"registry.acquire_ns", registry_acquire_ns(*dep.models), "ns"});

  // Client RTT decomposition from the trace ring.
  const span_breakdown spans_table = analyze_spans(spans);
  const auto p50 = [&](const char* name) {
    const auto it = spans_table.self_us.find(name);
    return it == spans_table.self_us.end() ? 0.0 : span_median_us(it->second);
  };
  // net.unattributed closes the table: the RTT median minus the medians of
  // every named child span (the serve spans of the same traces included).
  const double rtt = span_median_us(spans_table.rtt_us);
  double named = 0.0;
  for (const char* name : {"serve.hold", "serve.queue", "serve.exec"}) {
    named += p50(name);
  }
  for (const char* name : {"net.read", "net.decode", "net.admit", "net.write"}) {
    named += p50(name);
    m.push_back({std::string(name) + "_p50_us", p50(name), "us"});
  }
  m.push_back({"net.client_rtt_p50_us", rtt, "us"});
  m.push_back({"net.unattributed_p50_us", rtt - named, "us"});
  m.push_back({"net.wire_overhead_p50_us", quantile(wire_overhead_us, 0.5),
               "us"});
  m.push_back({"net.bytes_per_shot", bytes_per_shot, "B"});
  m.push_back({"net.busy_ratio", busy_ratio, "ratio"});
  m.push_back({"net.latency_p90_us", quantile(untraced.latency_us, 0.90), "us"});
  m.push_back({"net.latency_p99_us", quantile(untraced.latency_us, 0.99), "us"});
  m.push_back({"obs.trace_overhead_pct",
               (untraced_rate - traced_rate) / untraced_rate * 100.0, "%"});

  // hw stages on the workload's own traces and request size.
  const std::size_t request_shots = feedback ? 1 : kWireShots;
  ring.set_armed(true);
  const hw_costs hw = time_hw_stages(dep, request_shots, &ring);
  ring.set_armed(false);
  m.push_back({"hw.quantize_ns_per_shot", hw.quantize_ns, "ns"});
  m.push_back({"hw.extract_ns_per_shot", hw.extract_ns, "ns"});
  m.push_back({"hw.fc_ns_per_shot", hw.fc_ns, "ns"});
  m.push_back({"hw.logits_block_ns_per_shot", hw.block_ns, "ns"});
  m.push_back({"hw.model_cycles", hw.model_cycles, "cycles"});

  std::printf("client RTT decomposition (%zu complete traces; self times, µs):\n",
              spans_table.traces);
  for (const auto& [name, values] : spans_table.self_us) {
    double mean = 0.0;
    for (double v : values) mean += v;
    std::printf("  %-12s p50 %9.2f  mean %9.2f\n", name.c_str(),
                span_median_us(values),
                mean / std::max<double>(1, values.size()));
  }
  std::printf("  %-12s p50 %9.2f   (RTT p50 minus the span p50s above)\n",
              "unattributed", rtt - named);
  std::printf("  %-12s p50 %9.2f   (per-request uncovered RTT)\n", "gap",
              span_median_us(spans_table.gap_us));
  std::printf("  %-12s p50 %9.2f   (n=%zu)\n", "client.rtt", rtt,
              spans_table.rtt_us.size());
  std::printf("client latency p90/p99 from %zu untraced samples\n",
              untraced.latency_us.size());

  if (!opt.chrome_trace.empty()) {
    // The newest request spans plus the hw stage spans keep the file small.
    constexpr std::size_t kExportSpans = 20000;
    std::vector<obs::trace_span> all(
        spans.end() - static_cast<std::ptrdiff_t>(
                          std::min(spans.size(), kExportSpans)),
        spans.end());
    const std::vector<obs::trace_span> hw_spans = ring.spans();
    all.insert(all.end(), hw_spans.begin(), hw_spans.end());
    std::ofstream file(opt.chrome_trace);
    file << obs::chrome_trace_json(all);
    ok = ok && static_cast<bool>(file);
    std::printf("wrote %s (%zu spans)\n", opt.chrome_trace.c_str(), all.size());
  }
  return m;
}

// ---------------------------------------------------------------------------
// Oracle self-test: a flipped expected register must be reported.
// ---------------------------------------------------------------------------

int oracle_self_test() {
  options opt;
  opt.tiny = true;
  opt.workload = &kWorkloads[0];
  const std::unique_ptr<deployment> dep = deploy(opt, nullptr);
  const traffic tr = make_traffic(*dep, 1);
  oracle expected(*dep);
  run_limit limit;
  limit.requests = 64;
  const tally clean = run_wire_pipelined(dep->front_end->port(), expected,
                                         tr.small, 1, 4, 1e9, limit, nullptr);
  expected.corrupt(tr.small[0].qubit, tr.small[0].rows[0]);
  const tally flipped = run_wire_pipelined(dep->front_end->port(), expected,
                                           tr.small, 1, 4, 1e9, limit, nullptr);
  const bool pass = clean.mismatched == 0 && clean.failed() == 0 &&
                    flipped.mismatched >= 1 && flipped.failed() >= 1;
  std::printf("oracle self-test: clean %llu/%llu ok, flipped register -> "
              "%llu mismatch(es): %s\n",
              static_cast<unsigned long long>(clean.ok),
              static_cast<unsigned long long>(clean.attempted),
              static_cast<unsigned long long>(flipped.mismatched),
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int run(const options& opt, int available_cpus) {
  const workload_def& w = *opt.workload;
  obs::trace_ring ring(std::size_t{1} << 17);
  obs::trace_ring* traces = opt.traced ? &ring : nullptr;

  // Set-up, repeated; the median is setup_s. Only the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<deployment> dep;
  std::unique_ptr<traffic> tr;
  std::unique_ptr<oracle> expected;
  const std::size_t repeats = opt.traced || opt.tiny ? 1 : kSetupRepeats;
  for (std::size_t i = 0; i < repeats; ++i) {
    expected.reset();
    tr.reset();
    dep.reset();
    const steady::time_point begin = steady::now();
    dep = deploy(opt, traces);
    double seconds = seconds_since(begin);
    // Harness-side input preparation stays out of setup_s.
    tr = std::make_unique<traffic>(make_traffic(*dep, opt.seed));
    expected = std::make_unique<oracle>(*dep);
    const steady::time_point warm = steady::now();
    run_workload(w, *dep, *expected, *tr, warmup_limit(w), nullptr);
    seconds += seconds_since(warm);
    setup_s.push_back(seconds);
  }

  bool correct = true;
  tally total;
  std::vector<metric> metrics;
  const cpu_ticks ticks_before = read_cpu_ticks();
  const double cpu_before = process_cpu_seconds();
  const steady::time_point start = steady::now();
  if (opt.traced) {
    metrics = traced_run(opt, *dep, *expected, *tr, ring, total, correct);
  } else {
    run_limit limit;
    limit.seconds = opt.seconds;
    total = run_workload(w, *dep, *expected, *tr, limit, nullptr);
  }
  const double window_s = seconds_since(start);
  const double cpu_s = process_cpu_seconds() - cpu_before;
  const cpu_ticks ticks_after = read_cpu_ticks();

  try {
    if (dep->front_end) {
      dep->front_end->shutdown();
      dep->front_end->stats().validate();
    }
    dep->server->stats().validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "validate failed: %s\n", e.what());
    correct = false;
  }
  const double f5q = served_fidelity(total, *expected);
  if (total.mismatched > 0 || f5q < 0.0) correct = false;

  // Median of per-second rates: a host stall of a second or two moves one
  // bin, not the whole run's figure.
  const std::vector<double> rates = binned_rates(total, start, window_s, 1.0);
  if (!opt.traced) {
    const double kshots = static_cast<double>(total.ok_shots) / 1e3;
    metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"shots_per_s", quantile(rates, 0.5), "1/s"},
        {"latency_p50_us", quantile(total.latency_us, 0.5), "us"},
        {"deadline_met_ratio",
         static_cast<double>(total.measured_in_limit) /
             std::max<double>(1.0, static_cast<double>(total.measured)),
         "ratio"},
        {"ok_ratio",
         static_cast<double>(total.ok) /
             std::max<double>(1.0, static_cast<double>(total.attempted)),
         "ratio"},
        {"fidelity_f5q", f5q, "ratio"},
        {"cpu_ms_per_kshot", cpu_s * 1e3 / std::max(kshots, 1e-9), "ms"},
        {"rss_mb", peak_rss_mb(), "MiB"},
    };
  }

  const double steal =
      ticks_after.total > ticks_before.total
          ? static_cast<double>(ticks_after.steal - ticks_before.steal) /
                static_cast<double>(ticks_after.total - ticks_before.total)
          : 0.0;
  std::printf(
      "witness: workload=%s seed=%llu seconds=%.1f trace=%d nproc=%ld "
      "cpus=1/%d pool_workers=%zu fixed_tier=%s "
      "float_tier=%s build=%s steal=%.4f setup_runs=%zu\n",
      w.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.traced ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      available_cpus,
      global_thread_pool().worker_count(), simd_tier_name(active_simd_tier()),
      simd_tier_name(active_float_simd_tier()), KLINQ_BUILD_TYPE, steal,
      setup_s.size());
  std::printf(
      "requests: attempted=%llu ok=%llu busy=%llu error=%llu lost=%llu "
      "not_ok=%llu mismatch=%llu; latency samples=%zu (limit %.0f us)\n",
      static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.busy),
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.lost),
      static_cast<unsigned long long>(total.not_ok_status),
      static_cast<unsigned long long>(total.mismatched),
      total.latency_us.size(), w.limit_us);
  print_table(metrics);
  if (!opt.traced) {
    std::printf("per-second shots/s: p25 %.0f p75 %.0f whole window %.0f :",
                quantile(rates, 0.25), quantile(rates, 0.75),
                static_cast<double>(total.ok_shots) / window_s);
    for (double r : rates) std::printf(" %.0f", r);
    std::printf("\n");
  }
  print_result(correct, total, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options opt = parse_options(argc, argv);
    const int available_cpus = pin_to_one_cpu();
    return opt.oracle_self_test ? oracle_self_test() : run(opt, available_cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "readout_bench: %s\n", e.what());
    return 1;
  }
}
