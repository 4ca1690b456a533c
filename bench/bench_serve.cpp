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
// Each row runs --repetitions times (default 5) and reports its median
// shots/s with the max−min spread over that median. The default --rounds
// makes one pass of every row last at least ~100 ms (the float rows are the
// shortest): at 8 rounds a float pass was ~10 ms, and its repetitions
// spread 40–43% on one pinned CPU.
//
// Machine-readable snapshot:
//   bench_serve --out BENCH_serve.json
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "klinq/common/cli.hpp"
#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/obs/metrics.hpp"
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
  // scheduler queue wait, shard execution.
  double queue_p50_ms = -1.0;
  double exec_p50_ms = -1.0;
};

/// A row's repetitions folded into one record: the median of every field,
/// and the max−min spread of shots/s over its median.
struct row_summary {
  run_record median;
  double spread = 0.0;
};

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

template <class Run>
row_summary repeat_row(std::size_t repetitions, const Run& run) {
  std::vector<run_record> runs;
  for (std::size_t i = 0; i < repetitions; ++i) runs.push_back(run());
  const auto field = [&runs](double run_record::*member) {
    std::vector<double> values;
    for (const run_record& r : runs) values.push_back(r.*member);
    return median_of(std::move(values));
  };
  row_summary row{runs.front(), 0.0};
  row.median.seconds = field(&run_record::seconds);
  row.median.p50_ms = field(&run_record::p50_ms);
  row.median.p99_ms = field(&run_record::p99_ms);
  row.median.queue_p50_ms = field(&run_record::queue_p50_ms);
  row.median.exec_p50_ms = field(&run_record::exec_p50_ms);
  const auto [fastest, slowest] = std::minmax_element(
      runs.begin(), runs.end(), [](const run_record& a, const run_record& b) {
        return a.seconds < b.seconds;
      });
  const double shots = static_cast<double>(row.median.shots);
  row.spread = (shots / fastest->seconds - shots / slowest->seconds) /
               (shots / row.median.seconds);
  return row;
}

void fill_stage_breakdown(run_record& record,
                          const serve::readout_server& server) {
  const obs::metrics_snapshot snap = server.metrics().snapshot();
  const auto p50_ms = [&snap](const char* stage) {
    return snap.histogram_quantile("klinq_serve_stage_seconds",
                                   {{"stage", stage}}, 0.5) *
           1e3;
  };
  record.queue_p50_ms = p50_ms("queue");
  record.exec_p50_ms = p50_ms("exec");
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("bench_serve",
                 "sharded serving vs serial per-qubit throughput");
  cli.add_option("qubits", "number of simulated qubit channels", "3");
  cli.add_option("traces-train", "train shots per state permutation", "200");
  cli.add_option("traces-test", "test shots per state permutation", "512");
  cli.add_option("rounds", "evaluation passes over every qubit block", "100");
  cli.add_option("repetitions", "timed runs per row (median reported)", "5");
  cli.add_option("shard-shots", "rows per shard (0 = default)", "0");
  cli.add_option("small-shots", "shots per request in the small-request row",
                 "16");
  cli.add_option("seed", "dataset generation seed", "42");
  cli.add_option("out", "JSON output path (empty = stdout only)",
                 "BENCH_serve.json");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto n_qubits = static_cast<std::size_t>(cli.get_int("qubits"));
    const auto rounds = static_cast<std::size_t>(cli.get_int("rounds"));
    KLINQ_REQUIRE(cli.get_int("repetitions") >= 1,
                  "bench_serve: --repetitions must be at least 1");
    const auto repetitions =
        static_cast<std::size_t>(cli.get_int("repetitions"));
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

    std::vector<row_summary> rows;

    // --- serial per-qubit (the pre-serve klinq_system behavior) ----------
    rows.push_back(repeat_row(repetitions, [&] {
      std::vector<q16_16> registers(block);
      stopwatch timer;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const qubit_stack& stack : stacks) {
          stack.hardware.logits(stack.data.test, registers);
        }
      }
      return run_record{"fixed-q16.16", "serial-per-qubit", total_shots,
                        timer.seconds()};
    }));
    rows.push_back(repeat_row(repetitions, [&] {
      kd::student_scratch scratch;
      std::vector<float> logits(block);
      stopwatch timer;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const qubit_stack& stack : stacks) {
          stack.student.predict_batch(stack.data.test, logits, scratch);
        }
      }
      return run_record{"float-student", "serial-per-qubit", total_shots,
                        timer.seconds()};
    }));

    // --- many small same-qubit requests ---------------------------------
    // Mid-circuit-style traffic: each qubit's block arrives as a stream of
    // --small-shots-sized requests (default 16), each one dispatched as its
    // own shard — the per-request cost of the queue round-trip and arena
    // acquisition.
    const auto small_shots =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     cli.get_int("small-shots")));
    std::vector<std::vector<data::trace_dataset>> small_blocks(n_qubits);
    std::size_t small_requests_per_round = 0;
    for (std::size_t q = 0; q < n_qubits; ++q) {
      for (std::size_t begin = 0; begin < block; begin += small_shots) {
        const std::size_t end = std::min(begin + small_shots, block);
        std::vector<std::size_t> row_ids;
        for (std::size_t r = begin; r < end; ++r) row_ids.push_back(r);
        small_blocks[q].push_back(stacks[q].data.test.subset(row_ids));
        ++small_requests_per_round;
      }
    }
    const auto static_engines = [&stacks] {
      std::vector<serve::qubit_engine> engines;
      for (const qubit_stack& stack : stacks) {
        engines.push_back({&stack.student, &stack.hardware});
      }
      return engines;
    };
    for (const serve::engine_kind engine :
         {serve::engine_kind::fixed_q16, serve::engine_kind::float_student}) {
      rows.push_back(repeat_row(repetitions, [&] {
        serve::readout_server server(
            static_engines(),
            {.shard_shots = shard_shots,
             .max_inflight = small_requests_per_round + 1});
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
        run_record record{std::string(serve::engine_name(engine)),
                          "small-requests", total_shots, seconds,
                          stats.latency_p50_seconds * 1e3,
                          stats.latency_p99_seconds * 1e3};
        fill_stage_breakdown(record, server);
        return record;
      }));
    }

    // --- sharded server ---------------------------------------------------
    std::size_t effective_shard_shots = shard_shots;
    for (const serve::engine_kind engine :
         {serve::engine_kind::fixed_q16, serve::engine_kind::float_student}) {
      rows.push_back(repeat_row(repetitions, [&] {
        serve::readout_server server(
            static_engines(),
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
        return record;
      }));
    }

    // --- registry-backed server -------------------------------------------
    // Same workload through a versioned model registry: per-submit snapshot
    // acquisition (one atomic shared_ptr load + lease bookkeeping) replaces
    // the static engine lookup. Should land within noise of sharded-server.
    // The churn variant additionally toggles the active version between two
    // identical snapshots from a publisher thread — the registry's write
    // path contending with acquisition at a realistic recalibration rate.
    // Its activation and switch counts are summed over the repetitions.
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
        rows.push_back(repeat_row(repetitions, [&] {
          serve::readout_server server(
              reg, {.shard_shots = shard_shots, .max_inflight = 2 * n_qubits});
          const std::uint64_t activations_before = reg.stats().activations;
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
            churn_activations += reg.stats().activations - activations_before;
            churn_switches_observed += stats.version_switches;
          }
          run_record record{serve::engine_name(engine),
                            churn ? "sharded-registry-churn"
                                  : "sharded-registry",
                            total_shots, seconds,
                            stats.latency_p50_seconds * 1e3,
                            stats.latency_p99_seconds * 1e3};
          fill_stage_breakdown(record, server);
          return record;
        }));
      }
    }

    // --- report -----------------------------------------------------------
    const std::size_t workers = global_thread_pool().worker_count() + 1;
    const unsigned cpus = bench::affinity_cpus();
    const char* simd_tier = simd_tier_name(active_simd_tier());
    const char* float_tier = simd_tier_name(active_float_simd_tier());
    std::printf(
        "\n%zu pool worker(s), %u CPU(s) in the affinity mask, %zu qubits x "
        "%zu rounds x %zu shots, median of %zu repetition(s) (%s build, %s "
        "fixed kernels, %s float kernels, %llu registry churn activations / "
        "%llu observed switches)\n",
        workers, cpus, n_qubits, rounds, block, repetitions, KLINQ_BUILD_TYPE,
        simd_tier, float_tier,
        static_cast<unsigned long long>(churn_activations),
        static_cast<unsigned long long>(churn_switches_observed));
    for (const row_summary& row : rows) {
      const run_record& r = row.median;
      std::printf("  %-14s %-22s %8.0f shots/s  spread %3.0f%%",
                  r.engine.c_str(), r.mode.c_str(),
                  static_cast<double>(r.shots) / r.seconds,
                  row.spread * 100.0);
      if (r.p50_ms >= 0.0) {
        std::printf("   p50 %.2f ms  p99 %.2f ms", r.p50_ms, r.p99_ms);
      }
      if (r.queue_p50_ms >= 0.0) {
        std::printf("   queue/exec p50 %.2f/%.2f ms", r.queue_p50_ms,
                    r.exec_p50_ms);
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
                   "  \"affinity_cpus\": %u,\n"
                   "  \"pool_workers\": %zu,\n"
                   "  \"qubits\": %zu,\n"
                   "  \"block_shots\": %zu,\n"
                   "  \"rounds\": %zu,\n"
                   "  \"repetitions\": %zu,\n"
                   "  \"shard_shots\": %zu,\n"
                   "  \"small_request_shots\": %zu,\n"
                   "  \"registry_churn_activations\": %llu,\n"
                   "  \"registry_churn_switches_observed\": %llu,\n"
                   "  \"results\": [\n",
                   KLINQ_BUILD_TYPE, simd_tier, float_tier, cpus, workers,
                   n_qubits, block, rounds, repetitions, effective_shard_shots,
                   small_shots,
                   static_cast<unsigned long long>(churn_activations),
                   static_cast<unsigned long long>(churn_switches_observed));
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const run_record& r = rows[i].median;
        std::fprintf(out,
                     "    {\"engine\": \"%s\", \"mode\": \"%s\", "
                     "\"shots\": %zu, \"seconds\": %.6f, "
                     "\"shots_per_second\": %.1f, \"spread\": %.3f",
                     r.engine.c_str(), r.mode.c_str(), r.shots, r.seconds,
                     static_cast<double>(r.shots) / r.seconds,
                     rows[i].spread);
        if (r.p50_ms >= 0.0) {
          std::fprintf(out,
                       ", \"latency_p50_ms\": %.4f, \"latency_p99_ms\": %.4f",
                       r.p50_ms, r.p99_ms);
        }
        if (r.queue_p50_ms >= 0.0) {
          std::fprintf(out,
                       ", \"stage_p50_ms\": {\"queue\": %.4f, "
                       "\"exec\": %.4f}",
                       r.queue_p50_ms, r.exec_p50_ms);
        }
        std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
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
