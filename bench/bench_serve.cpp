// Sharded serving vs serial per-qubit throughput.
//
// "serial" is the pre-serve system behavior: qubits evaluated one after
// another through the batched engine (which may still parallelize inside a
// single qubit's block). "sharded" streams every qubit's blocks through the
// readout_server concurrently, which also overlaps the per-qubit front-end
// (quantize + extract) across qubits. Both paths produce bit-identical
// registers/logits (tests/test_serve.cpp), so the comparison is pure
// scheduling.
//
// Machine-readable snapshot:
//   bench_serve --out BENCH_serve.json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "klinq/common/cli.hpp"
#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/net/client.hpp"
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

struct qubit_stack {
  qsim::qubit_dataset data;
  kd::student_model student;
  hw::fixed_discriminator<q16_16> hardware;
};

struct run_record {
  std::string engine;
  std::string mode;
  std::size_t shots = 0;
  double seconds = 0.0;
  double p50_ms = -1.0;  // server modes only
  double p99_ms = -1.0;
  // Median per-stage spans from the server's klinq_serve_stage_seconds
  // histograms (server modes only): where a request's time went —
  // coalesce hold, scheduler queue wait, shard execution.
  double hold_p50_ms = -1.0;
  double queue_p50_ms = -1.0;
  double exec_p50_ms = -1.0;
  // Lane-packing counters (modes with coalesce_shots > 0 only): requests
  // served through a shared kernel tile, tiles dispatched, and the mean
  // occupied lanes per tile from klinq_serve_lane_occupancy.
  std::uint64_t packed_requests = 0;
  std::uint64_t packed_batches = 0;
  double mean_pack_lanes = -1.0;
  // Fraction of requests shed with a busy frame (tcp overload row only).
  double shed_rate = -1.0;
};

void fill_stage_breakdown(run_record& record,
                          const serve::readout_server& server) {
  const obs::metrics_snapshot snap = server.metrics().snapshot();
  const auto p50_ms = [&snap](const char* stage) {
    return snap.histogram_quantile("klinq_serve_stage_seconds",
                                   {{"stage", stage}}, 0.5) *
           1e3;
  };
  record.hold_p50_ms = p50_ms("hold");
  record.queue_p50_ms = p50_ms("queue");
  record.exec_p50_ms = p50_ms("exec");
}

void fill_pack_stats(run_record& record,
                     const serve::readout_server& server,
                     const serve::server_stats& stats) {
  record.packed_requests = stats.packed_requests;
  record.packed_batches = stats.packed_batches;
  const obs::metrics_snapshot snap = server.metrics().snapshot();
  if (const obs::series_snapshot* occupancy =
          snap.find("klinq_serve_lane_occupancy", {});
      occupancy != nullptr && occupancy->histogram.count > 0) {
    record.mean_pack_lanes =
        occupancy->histogram.sum /
        static_cast<double>(occupancy->histogram.count);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("bench_serve",
                 "sharded serving vs serial per-qubit throughput");
  cli.add_option("qubits", "number of simulated qubit channels", "3");
  cli.add_option("traces-train", "train shots per state permutation", "200");
  cli.add_option("traces-test", "test shots per state permutation", "512");
  cli.add_option("rounds", "evaluation passes over every qubit block", "8");
  cli.add_option("shard-shots", "rows per shard (0 = default)", "0");
  cli.add_option("small-shots",
                 "shots per request in the coalescing comparison", "16");
  cli.add_option("seed", "dataset generation seed", "42");
  cli.add_option("out", "JSON output path (empty = stdout only)",
                 "BENCH_serve.json");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto n_qubits = static_cast<std::size_t>(cli.get_int("qubits"));
    const auto rounds = static_cast<std::size_t>(cli.get_int("rounds"));
    const auto shard_shots =
        static_cast<std::size_t>(cli.get_int("shard-shots"));

    std::printf("building %zu qubit stacks...\n", n_qubits);
    std::vector<qubit_stack> stacks;
    for (std::size_t q = 0; q < n_qubits; ++q) {
      qsim::dataset_spec spec;
      spec.device = qsim::single_qubit_test_preset();
      spec.shots_per_permutation_train =
          static_cast<std::size_t>(cli.get_int("traces-train"));
      spec.shots_per_permutation_test =
          static_cast<std::size_t>(cli.get_int("traces-test"));
      spec.seed = static_cast<std::uint64_t>(cli.get_int("seed")) + q;
      qubit_stack stack;
      stack.data = qsim::build_qubit_dataset(spec, 0);
      kd::student_config config;
      config.epochs = 6;
      config.seed = 7 + q;
      stack.student = kd::distill_student(stack.data.train, {}, config);
      stack.hardware = hw::fixed_discriminator<q16_16>(stack.student);
      stacks.push_back(std::move(stack));
    }
    const std::size_t block = stacks[0].data.test.size();
    const std::size_t total_shots = rounds * n_qubits * block;

    std::vector<run_record> records;

    // --- serial per-qubit (the pre-serve klinq_system behavior) ----------
    {
      std::vector<q16_16> registers(block);
      stopwatch timer;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const qubit_stack& stack : stacks) {
          stack.hardware.logits(stack.data.test, registers);
        }
      }
      records.push_back(
          {"fixed-q16.16", "serial-per-qubit", total_shots, timer.seconds()});
    }
    {
      kd::student_scratch scratch;
      std::vector<float> logits(block);
      stopwatch timer;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const qubit_stack& stack : stacks) {
          stack.student.predict_batch(stack.data.test, logits, scratch);
        }
      }
      records.push_back(
          {"float-student", "serial-per-qubit", total_shots, timer.seconds()});
    }

    // --- many small same-qubit requests: direct / coalesced ---------------
    // Mid-circuit-style traffic: each qubit's block arrives as a stream of
    // --small-shots-sized requests (default 16). With coalescing on, the
    // server merges them into full-shard batches — one pool round-trip and
    // one arena acquisition per batch instead of per request — and fuses the
    // merged requests' shots into shared fc_plane / mac_tile kernel tiles,
    // which is where single-shot traffic (--small-shots 1) recovers the SIMD
    // lanes that per-request dispatch wastes. Requests larger than one tile
    // are never coalesced, so above 64 shots both rows run the plain path.
    const auto small_shots =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     cli.get_int("small-shots")));
    std::vector<std::vector<data::trace_dataset>> small_blocks(n_qubits);
    std::size_t small_requests_per_round = 0;
    for (std::size_t q = 0; q < n_qubits; ++q) {
      for (std::size_t begin = 0; begin < block; begin += small_shots) {
        const std::size_t end = std::min(begin + small_shots, block);
        std::vector<std::size_t> rows;
        for (std::size_t r = begin; r < end; ++r) rows.push_back(r);
        small_blocks[q].push_back(stacks[q].data.test.subset(rows));
        ++small_requests_per_round;
      }
    }
    struct small_mode {
      const char* name;
      std::size_t coalesce_shots;
    };
    const small_mode small_modes[] = {
        {"small-requests", 0},
        {"small-requests-coalesced",
         std::min(small_shots, serve::server_config::kMaxCoalesceShots)},
    };
    for (const small_mode& mode : small_modes) {
      for (const serve::engine_kind engine :
           {serve::engine_kind::fixed_q16,
            serve::engine_kind::float_student}) {
        std::vector<serve::qubit_engine> engines;
        for (const qubit_stack& stack : stacks) {
          engines.push_back({&stack.student, &stack.hardware});
        }
        serve::readout_server server(
            std::move(engines),
            {.shard_shots = shard_shots,
             .max_inflight = small_requests_per_round + 1,
             .coalesce_shots = mode.coalesce_shots});
        serve::readout_result result;
        stopwatch timer;
        for (std::size_t round = 0; round < rounds; ++round) {
          std::vector<serve::ticket> tickets;
          for (std::size_t q = 0; q < n_qubits; ++q) {
            for (const data::trace_dataset& small : small_blocks[q]) {
              tickets.push_back(server.submit({q, &small, engine}));
            }
          }
          for (const serve::ticket t : tickets) server.wait(t, result);
        }
        const double seconds = timer.seconds();
        const serve::server_stats stats = server.stats();
        run_record record{std::string(serve::engine_name(engine)), mode.name,
                          total_shots, seconds,
                          stats.latency_p50_seconds * 1e3,
                          stats.latency_p99_seconds * 1e3};
        fill_stage_breakdown(record, server);
        if (mode.coalesce_shots > 0) {
          fill_pack_stats(record, server, stats);
        }
        records.push_back(std::move(record));
      }
    }

    // --- sharded server ---------------------------------------------------
    std::size_t effective_shard_shots = shard_shots;
    for (const serve::engine_kind engine :
         {serve::engine_kind::fixed_q16, serve::engine_kind::float_student}) {
      std::vector<serve::qubit_engine> engines;
      for (const qubit_stack& stack : stacks) {
        engines.push_back({&stack.student, &stack.hardware});
      }
      serve::readout_server server(
          std::move(engines),
          {.shard_shots = shard_shots, .max_inflight = 2 * n_qubits});
      effective_shard_shots = server.shard_shots();
      serve::readout_result result;
      stopwatch timer;
      for (std::size_t round = 0; round < rounds; ++round) {
        std::vector<serve::ticket> tickets;
        for (std::size_t q = 0; q < n_qubits; ++q) {
          tickets.push_back(
              server.submit({q, &stacks[q].data.test, engine}));
        }
        for (const serve::ticket t : tickets) server.wait(t, result);
      }
      const double seconds = timer.seconds();
      const serve::server_stats stats = server.stats();
      run_record record{serve::engine_name(engine), "sharded-server",
                        total_shots, seconds,
                        stats.latency_p50_seconds * 1e3,
                        stats.latency_p99_seconds * 1e3};
      fill_stage_breakdown(record, server);
      records.push_back(std::move(record));
    }

    // --- registry-backed server -------------------------------------------
    // Same workload through a versioned model registry: per-submit snapshot
    // acquisition (one atomic shared_ptr load + lease bookkeeping) replaces
    // the static engine lookup. Should land within noise of sharded-server.
    // The churn variant additionally toggles the active version between two
    // identical snapshots from a publisher thread — the registry's write
    // path contending with acquisition at a realistic recalibration rate.
    std::uint64_t churn_activations = 0;
    std::uint64_t churn_switches_observed = 0;
    for (const bool churn : {false, true}) {
      registry::model_registry reg(n_qubits);
      for (std::size_t q = 0; q < n_qubits; ++q) {
        reg.publish(q, registry::model_snapshot(stacks[q].student));
        // Second identical version per qubit: the churn target. Outputs are
        // bit-identical, so version switches never change results.
        reg.publish(q, registry::model_snapshot(stacks[q].student));
      }
      for (const serve::engine_kind engine :
           {serve::engine_kind::fixed_q16,
            serve::engine_kind::float_student}) {
        serve::readout_server server(
            reg, {.shard_shots = shard_shots, .max_inflight = 2 * n_qubits});
        std::atomic<bool> stop_churn{false};
        std::thread publisher;
        if (churn) {
          publisher = std::thread([&] {
            std::uint64_t version = 1;
            while (!stop_churn.load(std::memory_order_acquire)) {
              for (std::size_t q = 0; q < n_qubits; ++q) {
                reg.activate(q, version);
              }
              version = version == 1 ? 2 : 1;
              std::this_thread::yield();
            }
          });
        }
        serve::readout_result result;
        stopwatch timer;
        for (std::size_t round = 0; round < rounds; ++round) {
          std::vector<serve::ticket> tickets;
          for (std::size_t q = 0; q < n_qubits; ++q) {
            tickets.push_back(
                server.submit({q, &stacks[q].data.test, engine}));
          }
          for (const serve::ticket t : tickets) server.wait(t, result);
        }
        const double seconds = timer.seconds();
        if (churn) {
          stop_churn.store(true, std::memory_order_release);
          publisher.join();
        }
        const serve::server_stats stats = server.stats();
        if (churn) {
          churn_activations = reg.stats().activations;
          churn_switches_observed = stats.version_switches;
        }
        run_record record{serve::engine_name(engine),
                          churn ? "sharded-registry-churn"
                                : "sharded-registry",
                          total_shots, seconds,
                          stats.latency_p50_seconds * 1e3,
                          stats.latency_p99_seconds * 1e3};
        fill_stage_breakdown(record, server);
        records.push_back(std::move(record));
      }
    }

    // --- loopback TCP front end -------------------------------------------
    // Row 1: feedback-lane round-trip p50/p99 measured at a client while a
    // bulk client saturates the same front end with full-block requests —
    // the number that matters for mid-circuit feedback is the tail under
    // load, wire included. Row 2: shed rate when one client bursts 2x the
    // front end's admission capacity in a single write — overload must
    // resolve as retriable busy frames, not queueing.
    const auto make_engines = [&] {
      std::vector<serve::qubit_engine> engines;
      for (const qubit_stack& stack : stacks) {
        engines.push_back({&stack.student, &stack.hardware});
      }
      return engines;
    };
    const auto tcp_request_info = [&](std::size_t qubit,
                                      const data::trace_dataset& traces) {
      net::request_info info;
      info.qubit = static_cast<std::uint32_t>(qubit);
      info.engine = serve::engine_kind::fixed_q16;
      info.samples_per_quadrature =
          static_cast<std::uint32_t>(traces.samples_per_quadrature());
      info.shots = static_cast<std::uint32_t>(traces.size());
      return info;
    };
    {
      serve::readout_server server(
          make_engines(), {.shard_shots = shard_shots, .max_inflight = 64});
      net::front_end_config fe_config;
      fe_config.max_inflight = 32;
      fe_config.feedback_reserve = 4;
      fe_config.max_inflight_per_connection = 16;
      fe_config.poll_interval_seconds = 0.01;
      net::tcp_front_end front_end(server, fe_config);

      const std::vector<std::size_t> row0{0};
      const data::trace_dataset feedback_block =
          stacks[0].data.test.subset(row0);
      // Bulk arrives as ~256-shot requests: saturating traffic whose
      // blocking quantum (one inline shard on a workerless pool) stays
      // small enough that the feedback tail measures the lane policy, not
      // a single giant block's execution time.
      std::vector<std::pair<std::size_t, data::trace_dataset>> bulk_blocks;
      const std::size_t bulk_shots_per_request = std::min<std::size_t>(
          256, block);
      for (std::size_t q = 0; q < n_qubits; ++q) {
        for (std::size_t begin = 0; begin < block;
             begin += bulk_shots_per_request) {
          const std::size_t end =
              std::min(begin + bulk_shots_per_request, block);
          std::vector<std::size_t> rows;
          for (std::size_t r = begin; r < end; ++r) rows.push_back(r);
          bulk_blocks.emplace_back(q, stacks[q].data.test.subset(rows));
        }
      }

      std::atomic<bool> stop_bulk{false};
      std::atomic<std::uint64_t> bulk_shots{0};
      stopwatch timer;
      std::thread bulk([&] {
        net::client cli("127.0.0.1", front_end.port());
        std::vector<std::pair<std::uint64_t, std::size_t>> window;
        const auto consume_front = [&] {
          const auto [id, shots] = window.front();
          window.erase(window.begin());
          const auto reply = cli.read_reply(id);
          if (reply && reply->header.type == net::frame_type::response) {
            bulk_shots.fetch_add(shots, std::memory_order_relaxed);
          }
        };
        std::size_t next = 0;
        while (!stop_bulk.load(std::memory_order_acquire)) {
          while (window.size() >= 8) consume_front();
          const auto& [qubit, traces] = bulk_blocks[next];
          next = (next + 1) % bulk_blocks.size();
          window.emplace_back(
              cli.send_request(tcp_request_info(qubit, traces), traces),
              traces.size());
        }
        while (!window.empty()) consume_front();
        cli.send_goodbye();
      });

      net::client feedback("127.0.0.1", front_end.port());
      const std::size_t probes = 100;
      std::vector<double> rtt;
      rtt.reserve(probes);
      for (std::size_t i = 0; i < probes; ++i) {
        stopwatch probe;
        const std::uint64_t id = feedback.send_request(
            tcp_request_info(0, feedback_block), feedback_block,
            serve::lane_class::feedback);
        const auto reply = feedback.read_reply(id);
        KLINQ_REQUIRE(reply.has_value(),
                      "bench: feedback client lost its connection");
        if (reply->header.type == net::frame_type::response) {
          rtt.push_back(probe.seconds());
        }
      }
      stop_bulk.store(true, std::memory_order_release);
      bulk.join();
      const double seconds = timer.seconds();
      feedback.send_goodbye();
      front_end.shutdown();
      KLINQ_REQUIRE(!rtt.empty(), "bench: every feedback probe was shed");
      std::sort(rtt.begin(), rtt.end());
      const double fb_p50 = rtt[rtt.size() / 2];
      const double fb_p99 = rtt[(rtt.size() * 99) / 100];
      // p50/p99 are the *feedback* round-trip while shots/s is the bulk
      // saturation the probes rode through.
      records.push_back({"fixed-q16.16", "tcp-feedback-under-bulk",
                         bulk_shots.load() + rtt.size(), seconds,
                         fb_p50 * 1e3, fb_p99 * 1e3});
    }
    {
      serve::readout_server server(
          make_engines(), {.shard_shots = shard_shots, .max_inflight = 64});
      net::front_end_config fe_config;
      const std::size_t capacity = 8;  // net admission budget under test
      fe_config.max_inflight = capacity;
      fe_config.feedback_reserve = 0;
      fe_config.max_inflight_per_connection = 4 * capacity;
      fe_config.poll_interval_seconds = 0.01;
      net::tcp_front_end front_end(server, fe_config);

      net::client cli("127.0.0.1", front_end.port());
      const data::trace_dataset& burst_block = small_blocks[0][0];
      const std::size_t bursts = 20;
      std::uint64_t served = 0;
      std::uint64_t shed = 0;
      stopwatch timer;
      for (std::size_t b = 0; b < bursts; ++b) {
        // 2x capacity in one write: the front end parses the burst in one
        // batch, admits up to `capacity`, and sheds the rest with busy.
        std::vector<std::uint8_t> burst;
        for (std::size_t i = 0; i < 2 * capacity; ++i) {
          const std::vector<std::uint8_t> frame = net::encode_request(
              b * 100 + i, tcp_request_info(0, burst_block),
              serve::lane_class::bulk, burst_block);
          burst.insert(burst.end(), frame.begin(), frame.end());
        }
        cli.send_bytes(burst);
        for (std::size_t i = 0; i < 2 * capacity; ++i) {
          const auto reply = cli.read_reply(b * 100 + i);
          KLINQ_REQUIRE(reply.has_value(),
                        "bench: overload client lost its connection");
          if (reply->header.type == net::frame_type::response) ++served;
          if (reply->header.type == net::frame_type::busy) ++shed;
        }
      }
      const double seconds = timer.seconds();
      cli.send_goodbye();
      front_end.shutdown();
      run_record record{"fixed-q16.16", "tcp-overload-2x",
                        served * burst_block.size(), seconds};
      record.shed_rate =
          static_cast<double>(shed) / static_cast<double>(served + shed);
      records.push_back(std::move(record));
    }

    // --- wire tracing overhead over loopback TCP --------------------------
    // The same serial request loop under three sampling configs. The
    // disabled row exercises the default hot path (one relaxed load per
    // trace site) and must sit within noise of the untraced front end;
    // 1% is the always-on production setting; 100% bounds the cost of
    // full capture into the span ring.
    const std::pair<const char*, double> trace_modes[] = {
        {"tcp-trace-off", 0.0},
        {"tcp-trace-1pct", 0.01},
        {"tcp-trace-100pct", 1.0}};
    for (const auto& [trace_mode, trace_rate] : trace_modes) {
      obs::trace_ring ring(4096);
      serve::server_config server_cfg;
      server_cfg.shard_shots = shard_shots;
      server_cfg.max_inflight = 64;
      net::front_end_config fe_config;
      fe_config.poll_interval_seconds = 0.01;
      if (trace_rate > 0.0) {
        ring.set_armed(true);
        server_cfg.traces = &ring;
        fe_config.traces = &ring;
      }
      serve::readout_server server(make_engines(), server_cfg);
      net::tcp_front_end front_end(server, fe_config);
      net::client cli("127.0.0.1", front_end.port());
      if (trace_rate > 0.0) cli.enable_tracing(&ring, trace_rate);

      const std::size_t requests = 300;
      std::vector<double> rtt;
      rtt.reserve(requests);
      std::uint64_t shots = 0;
      stopwatch timer;
      for (std::size_t i = 0; i < requests; ++i) {
        const data::trace_dataset& request_block =
            small_blocks[0][i % small_blocks[0].size()];
        stopwatch probe;
        const std::uint64_t id =
            cli.send_request(tcp_request_info(0, request_block),
                             request_block);
        const auto reply = cli.read_reply(id);
        KLINQ_REQUIRE(reply.has_value() &&
                          reply->header.type == net::frame_type::response,
                      "bench: tracing client lost its connection");
        rtt.push_back(probe.seconds());
        shots += request_block.size();
      }
      const double seconds = timer.seconds();
      cli.send_goodbye();
      front_end.shutdown();
      std::sort(rtt.begin(), rtt.end());
      records.push_back({"fixed-q16.16", trace_mode, shots, seconds,
                         rtt[rtt.size() / 2] * 1e3,
                         rtt[(rtt.size() * 99) / 100] * 1e3});
    }

    // --- report -----------------------------------------------------------
    const std::size_t workers = global_thread_pool().worker_count() + 1;
    const char* simd_tier = simd_tier_name(active_simd_tier());
    const char* float_tier = simd_tier_name(active_float_simd_tier());
    std::printf(
        "\n%zu pool worker(s), hw_concurrency %u, %zu qubits x %zu rounds x "
        "%zu shots (%s build, %s fixed kernels, %s float kernels, %llu "
        "registry churn activations / %llu observed switches)\n",
        workers, std::thread::hardware_concurrency(), n_qubits, rounds, block,
        KLINQ_BUILD_TYPE, simd_tier, float_tier,
        static_cast<unsigned long long>(churn_activations),
        static_cast<unsigned long long>(churn_switches_observed));
    for (const run_record& r : records) {
      std::printf("  %-14s %-18s %8.0f shots/s", r.engine.c_str(),
                  r.mode.c_str(),
                  static_cast<double>(r.shots) / r.seconds);
      if (r.p50_ms >= 0.0) {
        std::printf("   p50 %.2f ms  p99 %.2f ms", r.p50_ms, r.p99_ms);
      }
      if (r.hold_p50_ms >= 0.0) {
        std::printf("   hold/queue/exec p50 %.2f/%.2f/%.2f ms",
                    r.hold_p50_ms, r.queue_p50_ms, r.exec_p50_ms);
      }
      if (r.packed_batches > 0) {
        std::printf("   packed %llu req / %llu tiles (%.1f lanes/tile)",
                    static_cast<unsigned long long>(r.packed_requests),
                    static_cast<unsigned long long>(r.packed_batches),
                    r.mean_pack_lanes);
      }
      if (r.shed_rate >= 0.0) {
        std::printf("   shed %.0f%%", r.shed_rate * 100.0);
      }
      std::printf("\n");
    }

    const std::string out_path = cli.get_string("out");
    if (!out_path.empty()) {
      std::FILE* out = std::fopen(out_path.c_str(), "w");
      KLINQ_REQUIRE(out != nullptr, "bench_serve: cannot write " + out_path);
      std::fprintf(out,
                   "{\n"
                   "  \"bench\": \"bench_serve\",\n"
                   "  \"build_type\": \"%s\",\n"
                   "  \"simd_tier\": \"%s\",\n"
                   "  \"float_tier\": \"%s\",\n"
                   "  \"hw_concurrency\": %u,\n"
                   "  \"pool_workers\": %zu,\n"
                   "  \"qubits\": %zu,\n"
                   "  \"block_shots\": %zu,\n"
                   "  \"rounds\": %zu,\n"
                   "  \"shard_shots\": %zu,\n"
                   "  \"small_request_shots\": %zu,\n"
                   "  \"registry_churn_activations\": %llu,\n"
                   "  \"registry_churn_switches_observed\": %llu,\n"
                   "  \"results\": [\n",
                   KLINQ_BUILD_TYPE, simd_tier, float_tier,
                   std::thread::hardware_concurrency(), workers, n_qubits,
                   block, rounds, effective_shard_shots, small_shots,
                   static_cast<unsigned long long>(churn_activations),
                   static_cast<unsigned long long>(churn_switches_observed));
      for (std::size_t i = 0; i < records.size(); ++i) {
        const run_record& r = records[i];
        std::fprintf(out,
                     "    {\"engine\": \"%s\", \"mode\": \"%s\", "
                     "\"shots\": %zu, \"seconds\": %.6f, "
                     "\"shots_per_second\": %.1f",
                     r.engine.c_str(), r.mode.c_str(), r.shots, r.seconds,
                     static_cast<double>(r.shots) / r.seconds);
        if (r.p50_ms >= 0.0) {
          std::fprintf(out,
                       ", \"latency_p50_ms\": %.4f, \"latency_p99_ms\": %.4f",
                       r.p50_ms, r.p99_ms);
        }
        if (r.hold_p50_ms >= 0.0) {
          std::fprintf(out,
                       ", \"stage_p50_ms\": {\"hold\": %.4f, "
                       "\"queue\": %.4f, \"exec\": %.4f}",
                       r.hold_p50_ms, r.queue_p50_ms, r.exec_p50_ms);
        }
        if (r.packed_batches > 0) {
          std::fprintf(out,
                       ", \"packed_requests\": %llu, "
                       "\"packed_batches\": %llu, "
                       "\"mean_pack_lanes\": %.2f",
                       static_cast<unsigned long long>(r.packed_requests),
                       static_cast<unsigned long long>(r.packed_batches),
                       r.mean_pack_lanes);
        }
        if (r.shed_rate >= 0.0) {
          std::fprintf(out, ", \"shed_rate\": %.4f", r.shed_rate);
        }
        std::fprintf(out, "}%s\n", i + 1 < records.size() ? "," : "");
      }
      std::fprintf(out, "  ]\n}\n");
      std::fclose(out);
      std::printf("\nwrote %s\n", out_path.c_str());
    }
    return 0;
  } catch (const error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
