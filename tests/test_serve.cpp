// Sharded serving engine vs the serial per-qubit path.
//
// The contract under test: every result the readout_server hands back —
// Q16.16 registers, float logits, hard decisions — is bit-identical to the
// serial per-qubit batched evaluation, across shard sizes, qubit counts and
// concurrent submitters; plus the facade semantics (tickets, backpressure,
// telemetry) and the thread-pool submit/nesting machinery underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/core/qubit_discriminator.hpp"
#include "klinq/core/system.hpp"
#include "klinq/fault/fault.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/obs/exposition.hpp"
#include "klinq/obs/fault_mirror.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/drift_monitor.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/serve/readout_server.hpp"
#include "klinq/serve/shard_scheduler.hpp"
#include "klinq/serve/telemetry.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

constexpr std::size_t kQubits = 3;

// Three independent "qubits": distinct datasets and students (no teacher —
// serve doesn't care how the students were trained). Test blocks are large
// enough (300 shots) to cross several shard boundaries at the default and
// custom shard sizes.
struct serve_fixture {
  std::vector<qsim::qubit_dataset> data;
  std::vector<kd::student_model> students;
  std::vector<hw::fixed_discriminator<q16_16>> hardware;
  // Serial-path references, one per qubit.
  std::vector<std::vector<q16_16>> expected_registers;
  std::vector<std::vector<float>> expected_logits;

  serve_fixture() {
    for (std::size_t q = 0; q < kQubits; ++q) {
      qsim::dataset_spec spec;
      spec.device = qsim::single_qubit_test_preset();
      spec.shots_per_permutation_train = 150;
      spec.shots_per_permutation_test = 150;
      spec.seed = 11 + q;
      data.push_back(qsim::build_qubit_dataset(spec, 0));
      kd::student_config config;
      config.groups_per_quadrature = 15;
      config.epochs = 5;
      config.seed = 7 + q;
      students.push_back(kd::distill_student(data[q].train, {}, config));
      hardware.emplace_back(students[q]);

      const auto& test = data[q].test;
      std::vector<q16_16> registers(test.size());
      hardware[q].logits(test, registers);
      expected_registers.push_back(std::move(registers));
      expected_logits.push_back(students[q].predict_batch(test));
    }
  }

  std::vector<serve::qubit_engine> engines() const {
    std::vector<serve::qubit_engine> out;
    for (std::size_t q = 0; q < kQubits; ++q) {
      out.push_back({&students[q], &hardware[q]});
    }
    return out;
  }
};

serve_fixture& fixture() {
  static serve_fixture f;
  return f;
}

void expect_fixed_result(const serve::readout_result& result, std::size_t q) {
  auto& f = fixture();
  const auto& expected = f.expected_registers[q];
  ASSERT_EQ(result.engine, serve::engine_kind::fixed_q16);
  ASSERT_EQ(result.qubit, q);
  ASSERT_EQ(result.registers.size(), expected.size());
  ASSERT_EQ(result.states.size(), expected.size());
  ASSERT_TRUE(result.logits.empty());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(result.registers[r].raw(), expected[r].raw())
        << "qubit " << q << " row " << r;
    ASSERT_EQ(result.states[r] != 0, !expected[r].sign_bit())
        << "qubit " << q << " row " << r;
  }
}

void expect_float_result(const serve::readout_result& result, std::size_t q) {
  auto& f = fixture();
  const auto& expected = f.expected_logits[q];
  ASSERT_EQ(result.engine, serve::engine_kind::float_student);
  ASSERT_EQ(result.logits.size(), expected.size());
  ASSERT_TRUE(result.registers.empty());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(result.logits[r], expected[r]) << "qubit " << q << " row " << r;
    ASSERT_EQ(result.states[r] != 0, expected[r] >= 0.0f)
        << "qubit " << q << " row " << r;
  }
}

// --- bit-identity across shard sizes and engines ---------------------------

TEST(Serve, FixedBitExactAcrossShardSizes) {
  auto& f = fixture();
  // 64 = one cache tile per shard, 128 = several shards per request,
  // 100000 = single shard (whole request serial inside one task).
  for (const std::size_t shard_shots : {64u, 128u, 100000u}) {
    serve::readout_server server(f.engines(), {.shard_shots = shard_shots});
    std::vector<serve::ticket> tickets;
    for (std::size_t q = 0; q < kQubits; ++q) {
      tickets.push_back(server.submit(
          {q, &f.data[q].test, serve::engine_kind::fixed_q16}));
    }
    for (std::size_t q = 0; q < kQubits; ++q) {
      const serve::readout_result result = server.wait(tickets[q]);
      expect_fixed_result(result, q);
      EXPECT_GE(result.latency_seconds, 0.0);
    }
  }
}

TEST(Serve, FloatBitExactAcrossShardSizes) {
  auto& f = fixture();
  for (const std::size_t shard_shots : {64u, 192u, 100000u}) {
    serve::readout_server server(f.engines(), {.shard_shots = shard_shots});
    std::vector<serve::ticket> tickets;
    for (std::size_t q = 0; q < kQubits; ++q) {
      tickets.push_back(server.submit(
          {q, &f.data[q].test, serve::engine_kind::float_student}));
    }
    for (std::size_t q = 0; q < kQubits; ++q) {
      expect_float_result(server.wait(tickets[q]), q);
    }
  }
}

TEST(Serve, MixedEnginesInterleaved) {
  auto& f = fixture();
  serve::readout_server server(f.engines(), {.shard_shots = 64});
  std::vector<serve::ticket> fixed_tickets;
  std::vector<serve::ticket> float_tickets;
  for (std::size_t q = 0; q < kQubits; ++q) {
    fixed_tickets.push_back(
        server.submit({q, &f.data[q].test, serve::engine_kind::fixed_q16}));
    float_tickets.push_back(server.submit(
        {q, &f.data[q].test, serve::engine_kind::float_student}));
  }
  // Collect in reverse submit order to exercise out-of-order claiming.
  for (std::size_t q = kQubits; q-- > 0;) {
    expect_float_result(server.wait(float_tickets[q]), q);
    expect_fixed_result(server.wait(fixed_tickets[q]), q);
  }
}

TEST(Serve, ConcurrentSubmittersBitExact) {
  auto& f = fixture();
  serve::readout_server server(f.engines(),
                               {.shard_shots = 64, .max_inflight = 4});
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequestsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (std::size_t thread_index = 0; thread_index < kThreads;
       ++thread_index) {
    submitters.emplace_back([&, thread_index] {
      // Each submitter reuses one result object: the steady-state
      // (buffer-swapping) wait path under contention.
      serve::readout_result result;
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t q = (thread_index + i) % kQubits;
        const bool fixed = ((thread_index + i) % 2) == 0;
        const serve::ticket t = server.submit(
            {q, &f.data[q].test,
             fixed ? serve::engine_kind::fixed_q16
                   : serve::engine_kind::float_student});
        server.wait(t, result);
        if (fixed) {
          const auto& expected = f.expected_registers[q];
          for (std::size_t r = 0; r < expected.size(); ++r) {
            if (result.registers[r].raw() != expected[r].raw()) ++failures;
          }
        } else {
          const auto& expected = f.expected_logits[q];
          for (std::size_t r = 0; r < expected.size(); ++r) {
            if (result.logits[r] != expected[r]) ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.requests_completed, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.inflight, 0u);
}

// --- facade semantics ------------------------------------------------------

TEST(Serve, BackpressureCountsUnconsumedTickets) {
  auto& f = fixture();
  serve::readout_server server(f.engines(), {.max_inflight = 1});
  const serve::ticket first =
      server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
  server.drain();  // completed but not consumed: still occupies the window
  EXPECT_FALSE(
      server
          .try_submit({1, &f.data[1].test, serve::engine_kind::fixed_q16})
          .has_value());
  expect_fixed_result(server.wait(first), 0);
  const auto second =
      server.try_submit({1, &f.data[1].test, serve::engine_kind::fixed_q16});
  ASSERT_TRUE(second.has_value());
  expect_fixed_result(server.wait(*second), 1);
}

TEST(Serve, PollAndTicketLifecycle) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  const serve::ticket t =
      server.submit({1, &f.data[1].test, serve::engine_kind::fixed_q16});
  server.drain();
  EXPECT_TRUE(server.poll(t));
  expect_fixed_result(server.wait(t), 1);
  // Consumed tickets are unknown to the server.
  EXPECT_THROW(server.poll(t), invalid_argument_error);
  EXPECT_THROW(server.wait(t), invalid_argument_error);
}

TEST(Serve, ConfigRejectsZeroMaxInflight) {
  auto& f = fixture();
  EXPECT_THROW(serve::readout_server(f.engines(), {.max_inflight = 0}),
               invalid_argument_error);
}

TEST(Serve, ConfigRejectsAbsurdShardShots) {
  auto& f = fixture();
  // A wrapped negative from a careless CLI cast must be rejected up front,
  // not silently clamped into a "valid" server.
  EXPECT_THROW(
      serve::readout_server(
          f.engines(), {.shard_shots = static_cast<std::size_t>(-1)}),
      invalid_argument_error);
  EXPECT_THROW(
      serve::readout_server(
          f.engines(), {.coalesce_shots = static_cast<std::size_t>(-1)}),
      invalid_argument_error);
  // A coalesced request must fit one lane-packed kernel tile.
  EXPECT_THROW(
      serve::readout_server(
          f.engines(),
          {.coalesce_shots = serve::server_config::kMaxCoalesceShots + 1}),
      invalid_argument_error);
  // The documented boundaries themselves are accepted.
  serve::readout_server ok(
      f.engines(), {.shard_shots = serve::server_config::kMaxShardShots});
  serve::readout_server ok_coalesce(
      f.engines(),
      {.coalesce_shots = serve::server_config::kMaxCoalesceShots});
}

TEST(Serve, ConfigRejectsEmptyEngineSet) {
  EXPECT_THROW(serve::readout_server(std::vector<serve::qubit_engine>{}),
               invalid_argument_error);
}

TEST(Serve, ConfigRejectsEnginelessQubit) {
  auto& f = fixture();
  std::vector<serve::qubit_engine> engines = f.engines();
  engines[1] = serve::qubit_engine{};  // neither datapath — a config bug
  EXPECT_THROW(serve::readout_server(std::move(engines)),
               invalid_argument_error);
}

TEST(Serve, RejectsInvalidRequests) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  EXPECT_THROW(
      server.submit({kQubits, &f.data[0].test, serve::engine_kind::fixed_q16}),
      invalid_argument_error);
  EXPECT_THROW(server.submit({0, nullptr, serve::engine_kind::fixed_q16}),
               invalid_argument_error);
  // A qubit with no float engine registered rejects float requests.
  std::vector<serve::qubit_engine> fixed_only = f.engines();
  fixed_only[0].student = nullptr;
  serve::readout_server hardware_server(std::move(fixed_only));
  EXPECT_THROW(hardware_server.submit(
                   {0, &f.data[0].test, serve::engine_kind::float_student}),
               invalid_argument_error);
}

TEST(Serve, EmptyRequestCompletesImmediately) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  const data::trace_dataset empty;
  const serve::ticket t =
      server.submit({0, &empty, serve::engine_kind::fixed_q16});
  EXPECT_TRUE(server.poll(t));
  const serve::readout_result result = server.wait(t);
  EXPECT_TRUE(result.states.empty());
  EXPECT_TRUE(result.registers.empty());
}

TEST(Serve, StatsCountShotsAndLatency) {
  auto& f = fixture();
  serve::readout_server server(f.engines(), {.shard_shots = 64});
  std::vector<serve::ticket> tickets;
  for (std::size_t q = 0; q < kQubits; ++q) {
    tickets.push_back(
        server.submit({q, &f.data[q].test, serve::engine_kind::fixed_q16}));
  }
  for (const serve::ticket t : tickets) server.wait(t);
  const serve::server_stats stats = server.stats();
  std::size_t total_shots = 0;
  for (std::size_t q = 0; q < kQubits; ++q) total_shots += f.data[q].test.size();
  EXPECT_EQ(stats.requests_submitted, kQubits);
  EXPECT_EQ(stats.requests_completed, kQubits);
  EXPECT_EQ(stats.shots_submitted, total_shots);
  EXPECT_EQ(stats.shots_completed, total_shots);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_GT(stats.shots_per_second, 0.0);
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  EXPECT_GE(stats.latency_p99_seconds, stats.latency_p50_seconds);
}

TEST(Serve, ArenasAreRecycledAcrossRequests) {
  auto& f = fixture();
  serve::readout_server server(f.engines(), {.shard_shots = 64});
  for (int round = 0; round < 3; ++round) {
    const serve::ticket t =
        server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
    server.wait(t);
  }
  // The scheduler is internal to the server; probe arena recycling through a
  // standalone scheduler on the same pool: after drain() every arena is back
  // in the free-list, and a second dispatch must not grow it.
  serve::shard_scheduler scheduler(global_thread_pool(), 64);
  std::atomic<int> ran{0};
  const auto count_rows = [&](std::size_t, std::size_t, serve::shard_arena&) {
    ++ran;
  };
  scheduler.dispatch(256, count_rows);
  scheduler.drain();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_GE(scheduler.pooled_arena_count(), 1u);
  // A second wave reuses parked arenas: the pool never exceeds the peak
  // shard concurrency, which is bounded by the shard count.
  scheduler.dispatch(256, count_rows);
  scheduler.drain();
  EXPECT_GE(scheduler.pooled_arena_count(), 1u);
  EXPECT_LE(scheduler.pooled_arena_count(), 4u);
}

// --- request coalescing ----------------------------------------------------

// Split a dataset into consecutive blocks of at most `block` rows.
std::vector<data::trace_dataset> split_blocks(const data::trace_dataset& ds,
                                              std::size_t block) {
  std::vector<data::trace_dataset> out;
  for (std::size_t begin = 0; begin < ds.size(); begin += block) {
    const std::size_t end = std::min(begin + block, ds.size());
    std::vector<std::size_t> rows;
    for (std::size_t r = begin; r < end; ++r) rows.push_back(r);
    out.push_back(ds.subset(rows));
  }
  return out;
}

TEST(ServeCoalescing, SmallRequestsMergeBitExactAndAreCounted) {
  auto& f = fixture();
  // 25-shot requests, threshold 32, shard 128: five small submits fill one
  // merged batch; the stragglers flush on wait().
  serve::readout_server server(
      f.engines(),
      {.shard_shots = 128, .max_inflight = 256, .coalesce_shots = 32});
  std::vector<std::vector<data::trace_dataset>> blocks(kQubits);
  std::vector<std::vector<serve::ticket>> fixed_tickets(kQubits);
  std::vector<std::vector<serve::ticket>> float_tickets(kQubits);
  std::size_t small_submits = 0;
  for (std::size_t q = 0; q < kQubits; ++q) {
    blocks[q] = split_blocks(f.data[q].test, 25);
    for (const data::trace_dataset& block : blocks[q]) {
      fixed_tickets[q].push_back(
          server.submit({q, &block, serve::engine_kind::fixed_q16}));
      float_tickets[q].push_back(
          server.submit({q, &block, serve::engine_kind::float_student}));
      small_submits += 2;
    }
  }
  for (std::size_t q = 0; q < kQubits; ++q) {
    for (std::size_t b = 0; b < blocks[q].size(); ++b) {
      const data::trace_dataset& block = blocks[q][b];
      // Fixed path: bit-exact against the serial per-block evaluation.
      const serve::readout_result fixed = server.wait(fixed_tickets[q][b]);
      std::vector<q16_16> registers(block.size());
      f.hardware[q].logits(block, registers);
      ASSERT_EQ(fixed.registers.size(), registers.size());
      for (std::size_t r = 0; r < registers.size(); ++r) {
        ASSERT_EQ(fixed.registers[r].raw(), registers[r].raw())
            << "qubit " << q << " block " << b << " row " << r;
      }
      // Float path: bitwise equal too (lane-invariant plane kernels).
      const serve::readout_result floats = server.wait(float_tickets[q][b]);
      const std::vector<float> logits = f.students[q].predict_batch(block);
      ASSERT_EQ(floats.logits.size(), logits.size());
      for (std::size_t r = 0; r < logits.size(); ++r) {
        ASSERT_EQ(floats.logits[r], logits[r])
            << "qubit " << q << " block " << b << " row " << r;
      }
    }
  }
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.requests_coalesced, small_submits);
  EXPECT_GE(stats.coalesced_batches, 1u);
  // Merging amortizes accounting: far fewer dispatches than requests.
  EXPECT_LT(stats.coalesced_batches, small_submits);
  EXPECT_EQ(stats.requests_completed, stats.requests_submitted);
}

TEST(ServeCoalescing, WaitFlushesAPartialBatch) {
  auto& f = fixture();
  serve::readout_server server(
      f.engines(), {.shard_shots = 256, .coalesce_shots = 64});
  const auto blocks = split_blocks(f.data[0].test, 16);
  const serve::ticket t =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  // One 16-shot request cannot fill a 256-shot shard: it stays parked, so
  // poll() reports incomplete until something flushes.
  EXPECT_FALSE(server.poll(t));
  const serve::readout_result result = server.wait(t);  // wait() flushes
  std::vector<q16_16> registers(blocks[0].size());
  f.hardware[0].logits(blocks[0], registers);
  for (std::size_t r = 0; r < registers.size(); ++r) {
    ASSERT_EQ(result.registers[r].raw(), registers[r].raw()) << "row " << r;
  }
  EXPECT_EQ(server.stats().requests_coalesced, 1u);
}

TEST(ServeCoalescing, DestructionFlushesHeldBatches) {
  auto& f = fixture();
  const auto blocks = split_blocks(f.data[0].test, 16);
  {
    serve::readout_server server(
        f.engines(), {.shard_shots = 256, .coalesce_shots = 64});
    server.submit({0, &blocks[0], serve::engine_kind::float_student});
    server.submit({0, &blocks[1], serve::engine_kind::float_student});
    // No wait: the destructor must flush and drain without deadlocking.
  }
  SUCCEED();
}

// A non-blocking producer must not livelock: when parking would leave the
// inflight window full of undispatched work, the server flushes, so held
// tickets complete and poll() turns true without any wait()-side flush.
TEST(ServeCoalescing, TrySubmitAtCapacityNeverLivelocks) {
  auto& f = fixture();
  // Declared before the server: the last try_submit's ticket is never
  // waited, so its parked batch still borrows these blocks when the server
  // destructor flushes it.
  const auto blocks = split_blocks(f.data[0].test, 16);
  serve::readout_server server(
      f.engines(),
      {.shard_shots = 256, .max_inflight = 2, .coalesce_shots = 64});
  const auto t0 =
      server.try_submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  const auto t1 =
      server.try_submit({0, &blocks[1], serve::engine_kind::fixed_q16});
  ASSERT_TRUE(t0.has_value());
  ASSERT_TRUE(t1.has_value());  // parking this one fills the window → flush
  const auto t2 =
      server.try_submit({0, &blocks[2], serve::engine_kind::fixed_q16});
  EXPECT_FALSE(t2.has_value());  // window full of dispatched work
  // Both held tickets complete without any wait()-driven flush.
  for (int spin = 0;
       spin < 10000 && !(server.poll(*t0) && server.poll(*t1)); ++spin) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(server.poll(*t0));
  EXPECT_TRUE(server.poll(*t1));
  server.wait(*t0);
  server.wait(*t1);
  EXPECT_TRUE(
      server.try_submit({0, &blocks[2], serve::engine_kind::fixed_q16})
          .has_value());
}

// A full-shard dispatch that fills the inflight window must also flush the
// OTHER streams' parked batches — otherwise a poll-only producer on those
// streams never sees its tickets complete.
TEST(ServeCoalescing, FullShardDispatchAtCapacityFlushesOtherStreams) {
  auto& f = fixture();
  serve::readout_server server(
      f.engines(),
      {.shard_shots = 64, .max_inflight = 3, .coalesce_shots = 64});
  const auto blocks = split_blocks(f.data[0].test, 32);
  const auto small = split_blocks(f.data[1].test, 16);
  // Stream A (qubit 1, float): one small request, parked.
  const serve::ticket a =
      server.submit({1, &small[0], serve::engine_kind::float_student});
  // Stream B (qubit 0, fixed): two 32-shot requests complete a 64-shot
  // shard; the second fills the window (active = 3 = max_inflight).
  const serve::ticket b1 =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  const serve::ticket b2 =
      server.submit({0, &blocks[1], serve::engine_kind::fixed_q16});
  // Everything — including stream A's partial batch — must now be
  // dispatched: poll turns true without any wait()-side flush.
  for (int spin = 0; spin < 10000 && !(server.poll(a) && server.poll(b1) &&
                                       server.poll(b2));
       ++spin) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(server.poll(a));
  EXPECT_TRUE(server.poll(b1));
  EXPECT_TRUE(server.poll(b2));
  server.wait(a);
  server.wait(b1);
  server.wait(b2);
}

TEST(ServeCoalescing, DisabledByDefault) {
  auto& f = fixture();
  serve::readout_server server(f.engines(), {.shard_shots = 128});
  const auto blocks = split_blocks(f.data[0].test, 16);
  const serve::ticket t =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  server.wait(t);
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.requests_coalesced, 0u);
  EXPECT_EQ(stats.coalesced_batches, 0u);
}

// --- cross-request lane packing --------------------------------------------

// Single-shot requests merged AND lane-packed: one shared kernel tile
// evaluates many requests' shots, and every member's result must stay
// bit-identical to the serial per-block path — exact integer arithmetic on
// the fixed engine, lane-invariant plane kernels on the float engine.
TEST(ServeLanePacking, PackedSingleShotsBitExactAndCounted) {
  auto& f = fixture();
  serve::readout_server server(
      f.engines(), {.shard_shots = 64,
                    .max_inflight = 512,
                    .coalesce_shots = 8});
  std::vector<std::vector<data::trace_dataset>> blocks(kQubits);
  std::vector<std::vector<serve::ticket>> fixed_tickets(kQubits);
  std::vector<std::vector<serve::ticket>> float_tickets(kQubits);
  std::size_t submits = 0;
  for (std::size_t q = 0; q < kQubits; ++q) {
    // Mixed 1/3-shot requests: 1-shot members exercise the worst unpacked
    // waste, 3-shot members exercise multi-lane scatter offsets.
    auto singles = split_blocks(f.data[q].test, 1);
    singles.resize(48);
    auto triples = split_blocks(f.data[q].test, 3);
    triples.resize(16);
    blocks[q] = std::move(singles);
    for (auto& b : triples) blocks[q].push_back(std::move(b));
    for (const data::trace_dataset& block : blocks[q]) {
      fixed_tickets[q].push_back(
          server.submit({q, &block, serve::engine_kind::fixed_q16}));
      float_tickets[q].push_back(
          server.submit({q, &block, serve::engine_kind::float_student}));
      submits += 2;
    }
  }
  for (std::size_t q = 0; q < kQubits; ++q) {
    for (std::size_t b = 0; b < blocks[q].size(); ++b) {
      const data::trace_dataset& block = blocks[q][b];
      const serve::readout_result fixed = server.wait(fixed_tickets[q][b]);
      std::vector<q16_16> registers(block.size());
      f.hardware[q].logits(block, registers);
      ASSERT_EQ(fixed.status, serve::request_status::ok);
      ASSERT_EQ(fixed.registers.size(), registers.size());
      for (std::size_t r = 0; r < registers.size(); ++r) {
        ASSERT_EQ(fixed.registers[r].raw(), registers[r].raw())
            << "qubit " << q << " block " << b << " row " << r;
        ASSERT_EQ(fixed.states[r] != 0, !registers[r].sign_bit());
      }
      const serve::readout_result floats = server.wait(float_tickets[q][b]);
      const std::vector<float> logits = f.students[q].predict_batch(block);
      ASSERT_EQ(floats.status, serve::request_status::ok);
      ASSERT_EQ(floats.logits.size(), logits.size());
      for (std::size_t r = 0; r < logits.size(); ++r) {
        ASSERT_EQ(floats.logits[r], logits[r])
            << "qubit " << q << " block " << b << " row " << r;
      }
    }
  }
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.requests_coalesced, submits);
  EXPECT_GE(stats.packed_batches, 1u);
  EXPECT_GE(stats.packed_requests, stats.packed_batches * 2);
  // Packing amortizes kernel dispatches: far fewer tiles than requests.
  EXPECT_LT(stats.packed_batches, stats.packed_requests);
  EXPECT_EQ(stats.requests_completed, stats.requests_submitted);
  // The occupancy histogram materialized and saw every pack.
  EXPECT_NE(server.metrics().prometheus_text().find(
                "klinq_serve_lane_occupancy"),
            std::string::npos);
}

// Deadline expiry and cancellation inside one packed tile: skipped members
// resolve with their own status while their pack-mates complete bit-exact —
// per-member control stays intact through the shared kernel.
TEST(ServeLanePacking, MixedDeadlineAndCancelInsideOnePack) {
  auto& f = fixture();
  // shard_shots 4096 with 1-shot members: nothing auto-dispatches, the
  // batch stays parked until cancel() flushes it, so all members land in
  // the same merged batch and the same pack.
  serve::readout_server server(
      f.engines(), {.shard_shots = 4096,
                    .coalesce_shots = 64});
  const auto blocks = split_blocks(f.data[0].test, 1);
  const serve::ticket ok1 =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  serve::readout_request doomed{0, &blocks[1], serve::engine_kind::fixed_q16};
  doomed.deadline_seconds = 1e-12;  // expired long before the pack runs
  const serve::ticket late = server.submit(doomed);
  const serve::ticket ok2 =
      server.submit({0, &blocks[2], serve::engine_kind::fixed_q16});
  const serve::ticket victim =
      server.submit({0, &blocks[3], serve::engine_kind::fixed_q16});
  const serve::ticket ok3 =
      server.submit({0, &blocks[4], serve::engine_kind::fixed_q16});
  EXPECT_TRUE(server.cancel(victim));  // flushes the batch → pack executes
  EXPECT_EQ(server.wait(victim).status, serve::request_status::cancelled);
  EXPECT_EQ(server.wait(late).status, serve::request_status::timed_out);
  std::size_t b = 0;
  for (const serve::ticket t : {ok1, ok2, ok3}) {
    const serve::readout_result result = server.wait(t);
    ASSERT_EQ(result.status, serve::request_status::ok);
    const data::trace_dataset& block = blocks[b == 0 ? 0 : (b == 1 ? 2 : 4)];
    std::vector<q16_16> registers(block.size());
    f.hardware[0].logits(block, registers);
    ASSERT_EQ(result.registers[0].raw(), registers[0].raw()) << "member " << b;
    ++b;
  }
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.packed_batches, 1u);
  // Only the three runnable members shared the tile.
  EXPECT_EQ(stats.packed_requests, 3u);
  EXPECT_EQ(stats.cancelled_requests, 1u);
  EXPECT_EQ(stats.timed_out_requests, 1u);
}

// A member whose trace duration differs from its pack-mates' must not share
// their tile: the fixed front end rejects a mismatched envelope width, and a
// shared kernel call would fail every lane with it. The wrong-duration
// member resolves failed on its own; its same-qubit pack-mates stay ok and
// bit-exact.
TEST(ServeLanePacking, WrongDurationMemberFailsAlone) {
  auto& f = fixture();
  const auto blocks = split_blocks(f.data[0].test, 1);
  const std::size_t n = f.data[0].test.samples_per_quadrature();
  data::trace_dataset short_trace(1, n / 2);
  short_trace.resize_traces(1);
  // shard_shots 4096 with 1-shot members: nothing auto-dispatches, so every
  // member lands in the one batch the first wait() flushes.
  serve::readout_server server(
      f.engines(), {.shard_shots = 4096, .coalesce_shots = 64});
  const serve::ticket ok1 =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  const serve::ticket bad =
      server.submit({0, &short_trace, serve::engine_kind::fixed_q16});
  const serve::ticket ok2 =
      server.submit({0, &blocks[1], serve::engine_kind::fixed_q16});
  const serve::ticket ok3 =
      server.submit({0, &blocks[2], serve::engine_kind::fixed_q16});
  std::size_t b = 0;
  for (const serve::ticket t : {ok1, ok2, ok3}) {
    const serve::readout_result result = server.wait(t);
    ASSERT_EQ(result.status, serve::request_status::ok) << "member " << b;
    std::vector<q16_16> registers(1);
    f.hardware[0].logits(blocks[b], registers);
    ASSERT_EQ(result.registers[0].raw(), registers[0].raw()) << "member " << b;
    ++b;
  }
  EXPECT_THROW(server.wait(bad), invalid_argument_error);
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.failed_requests, 1u);
  EXPECT_EQ(stats.shard_failures, 1u);
  EXPECT_EQ(stats.packed_batches, 1u);
  EXPECT_EQ(stats.packed_requests, 3u);
}

// --- streaming partial results (per-shard completion callback) -------------

// Thread-safe collector for shard events: the callback runs on worker
// threads, so everything it copies out must be synchronized.
struct shard_event_log {
  struct entry {
    std::uint64_t ticket_id = 0;
    std::size_t qubit = 0;
    serve::engine_kind engine = serve::engine_kind::fixed_q16;
    std::uint64_t model_version = 0;
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    std::vector<std::uint8_t> states;
    std::vector<q16_16> registers;
    std::vector<float> logits;
  };

  std::mutex mutex;
  std::vector<entry> entries;

  serve::shard_callback callback() {
    return [this](const serve::shard_event& event) {
      entry e;
      e.ticket_id = event.request.id;
      e.qubit = event.qubit;
      e.engine = event.engine;
      e.model_version = event.model_version;
      e.row_begin = event.row_begin;
      e.row_end = event.row_end;
      e.states.assign(event.states.begin(), event.states.end());
      e.registers.assign(event.registers.begin(), event.registers.end());
      e.logits.assign(event.logits.begin(), event.logits.end());
      const std::lock_guard lock(mutex);
      entries.push_back(std::move(e));
    };
  }
};

// The streaming contract: every row of a request is reported exactly once
// with the same data the final result carries, no matter how the request is
// chunked into shards.
TEST(ServeStreaming, CallbackCoversEveryRowOnceAcrossShardSizes) {
  auto& f = fixture();
  for (const std::size_t shard_shots : {64u, 128u, 100000u}) {
    shard_event_log log;
    serve::readout_server server(
        f.engines(),
        {.shard_shots = shard_shots, .on_shard = log.callback()});
    std::vector<serve::ticket> tickets;
    for (std::size_t q = 0; q < kQubits; ++q) {
      tickets.push_back(server.submit(
          {q, &f.data[q].test, serve::engine_kind::fixed_q16}));
    }
    for (std::size_t q = 0; q < kQubits; ++q) {
      const serve::readout_result result = server.wait(tickets[q]);
      // Reassemble this ticket's events into per-row coverage counts and
      // compare the streamed data against the final result.
      const std::lock_guard lock(log.mutex);
      std::vector<int> covered(result.states.size(), 0);
      for (const auto& e : log.entries) {
        if (e.ticket_id != tickets[q].id) continue;
        EXPECT_EQ(e.qubit, q);
        EXPECT_EQ(e.model_version, 0u);  // static engine binding
        ASSERT_LE(e.row_end, result.states.size());
        ASSERT_EQ(e.states.size(), e.row_end - e.row_begin);
        ASSERT_EQ(e.registers.size(), e.row_end - e.row_begin);
        for (std::size_t r = e.row_begin; r < e.row_end; ++r) {
          ++covered[r];
          EXPECT_EQ(e.states[r - e.row_begin], result.states[r]);
          EXPECT_EQ(e.registers[r - e.row_begin].raw(),
                    result.registers[r].raw());
        }
      }
      for (std::size_t r = 0; r < covered.size(); ++r) {
        ASSERT_EQ(covered[r], 1) << "shard " << shard_shots << " qubit " << q
                                 << " row " << r;
      }
    }
    const serve::server_stats stats = server.stats();
    EXPECT_EQ(stats.shard_events,
              static_cast<std::uint64_t>(log.entries.size()));
    EXPECT_GE(stats.shard_events, kQubits);
  }
}

TEST(ServeStreaming, FloatEventsCarryLogits) {
  auto& f = fixture();
  shard_event_log log;
  serve::readout_server server(
      f.engines(), {.shard_shots = 64, .on_shard = log.callback()});
  const serve::ticket t =
      server.submit({1, &f.data[1].test, serve::engine_kind::float_student});
  const serve::readout_result result = server.wait(t);
  const std::lock_guard lock(log.mutex);
  std::size_t streamed_rows = 0;
  for (const auto& e : log.entries) {
    ASSERT_EQ(e.engine, serve::engine_kind::float_student);
    ASSERT_TRUE(e.registers.empty());
    for (std::size_t r = e.row_begin; r < e.row_end; ++r) {
      EXPECT_EQ(e.logits[r - e.row_begin], result.logits[r]);
    }
    streamed_rows += e.row_end - e.row_begin;
  }
  EXPECT_EQ(streamed_rows, result.logits.size());
}

// A coalesced member executes as one contiguous range inside the merged
// task, so it streams as exactly one event covering its whole block.
TEST(ServeStreaming, CoalescedMemberStreamsOneFullRangeEvent) {
  auto& f = fixture();
  shard_event_log log;
  serve::readout_server server(f.engines(),
                               {.shard_shots = 256,
                                .coalesce_shots = 64,
                                .on_shard = log.callback()});
  const auto blocks = split_blocks(f.data[0].test, 16);
  const serve::ticket t =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  server.wait(t);
  const std::lock_guard lock(log.mutex);
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0].row_begin, 0u);
  EXPECT_EQ(log.entries[0].row_end, blocks[0].size());
}

TEST(ServeStreaming, CallbackExceptionFailsTheRequest) {
  auto& f = fixture();
  serve::readout_server server(
      f.engines(),
      {.shard_shots = 64, .on_shard = [](const serve::shard_event&) {
         throw numeric_error("consumer exploded");
       }});
  const serve::ticket t =
      server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
  EXPECT_THROW(server.wait(t), numeric_error);
}

// --- shard scheduler -------------------------------------------------------

TEST(ShardScheduler, RoundsShardSizeToWholeTiles) {
  auto& pool = global_thread_pool();
  EXPECT_EQ(serve::shard_scheduler(pool, 0).shard_shots(), 256u);  // default
  EXPECT_EQ(serve::shard_scheduler(pool, 1).shard_shots(), 64u);
  EXPECT_EQ(serve::shard_scheduler(pool, 64).shard_shots(), 64u);
  EXPECT_EQ(serve::shard_scheduler(pool, 65).shard_shots(), 128u);
  // Absurd sizes (e.g. -1 wrapped through a CLI cast) clamp instead of
  // overflowing the tile round-up to a zero shard size.
  EXPECT_GT(serve::shard_scheduler(pool, static_cast<std::size_t>(-1))
                .shard_shots(),
            0u);
  const serve::shard_scheduler scheduler(pool, 128);
  EXPECT_EQ(scheduler.shard_count(1), 1u);
  EXPECT_EQ(scheduler.shard_count(128), 1u);
  EXPECT_EQ(scheduler.shard_count(129), 2u);
  EXPECT_EQ(scheduler.shard_count(512), 4u);
}

TEST(ShardScheduler, DispatchCoversEveryRowExactlyOnce) {
  serve::shard_scheduler scheduler(global_thread_pool(), 64);
  constexpr std::size_t kShots = 300;  // non-multiple: last shard is ragged
  std::vector<std::atomic<int>> touched(kShots);
  scheduler.dispatch(kShots, [&](std::size_t begin, std::size_t end,
                                 serve::shard_arena&) {
    for (std::size_t r = begin; r < end; ++r) ++touched[r];
  });
  scheduler.drain();
  for (std::size_t r = 0; r < kShots; ++r) {
    ASSERT_EQ(touched[r].load(), 1) << "row " << r;
  }
}

// --- thread pool: submit + nested parallel_for -----------------------------

TEST(ThreadPool, SubmittedTasksAllRunBeforeDestruction) {
  std::atomic<int> counter{0};
  {
    thread_pool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // dtor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitRunsInlineOnWorkerlessPool) {
  thread_pool pool(1);  // spawns zero background workers
  ASSERT_EQ(pool.worker_count(), 0u);
  bool ran = false;
  pool.submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // completed synchronously
}

TEST(ThreadPool, SubmitFromWorkerRunsInline) {
  thread_pool pool(4);
  std::atomic<bool> completed_synchronously{false};
  std::atomic<bool> done{false};
  pool.submit([&] {
    // A worker re-submitting and then blocking on the task could deadlock a
    // saturated pool, so worker-side submits must complete inline.
    bool inner_ran = false;
    pool.submit([&inner_ran] { inner_ran = true; });
    completed_synchronously = inner_ran;
    done = true;
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(completed_synchronously.load());
}

TEST(ThreadPool, NestedParallelForInsideSubmitDoesNotDeadlock) {
  thread_pool pool(2);
  std::atomic<int> total{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 8;
  for (int t = 0; t < kTasks; ++t) {
    pool.submit([&] {
      // Nested dispatch onto the same (possibly saturated) pool: must run
      // serially inline rather than deadlock.
      pool.parallel_for(0, 10, [&](std::size_t) { ++total; });
      ++done;
    });
  }
  while (done.load() < kTasks) std::this_thread::yield();
  EXPECT_EQ(total.load(), kTasks * 10);
}

TEST(ThreadPool, OnWorkerFlagVisibleInsideTasks) {
  EXPECT_FALSE(thread_pool::on_worker());
  thread_pool pool(2);
  std::atomic<int> inside{0};
  std::atomic<bool> checked{false};
  pool.submit([&] {
    inside = thread_pool::on_worker() ? 1 : 0;
    checked = true;
  });
  while (!checked.load()) std::this_thread::yield();
  EXPECT_EQ(inside.load(), 1);
  EXPECT_FALSE(thread_pool::on_worker());
}

// --- telemetry -------------------------------------------------------------

TEST(Telemetry, HistogramQuantilesLandInTheRightBin) {
  serve::latency_histogram histogram;
  EXPECT_EQ(histogram.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) histogram.record(1e-3);
  for (int i = 0; i < 10; ++i) histogram.record(1.0);
  EXPECT_EQ(histogram.count(), 100u);
  // p50 falls in the 1 ms bin, p99 in the 1 s bin; log-binning at 16 bins
  // per decade bounds relative error to ~15%.
  EXPECT_NEAR(histogram.quantile(0.50), 1e-3, 0.2e-3);
  EXPECT_NEAR(histogram.quantile(0.99), 1.0, 0.2);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.quantile(0.99), 0.0);
}

TEST(Telemetry, HistogramHandlesExtremes) {
  serve::latency_histogram histogram;
  histogram.record(0.0);      // underflow bin
  histogram.record(1e-12);    // below floor
  histogram.record(1e6);      // overflow bin
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_GT(histogram.quantile(1.0), 10.0);   // max lands in overflow
  EXPECT_LE(histogram.quantile(0.0), serve::latency_histogram::kMinSeconds);
}

// --- failure model: config, deadlines, cancellation ------------------------

TEST(ServeFailure, ConfigRejectsNegativeDeadlineDefault) {
  auto& f = fixture();
  EXPECT_THROW(
      serve::readout_server(f.engines(), {.default_deadline_seconds = -0.5}),
      invalid_argument_error);
}

TEST(ServeFailure, ConfigRejectsNonFiniteDeadlineDefault) {
  auto& f = fixture();
  EXPECT_THROW(
      serve::readout_server(
          f.engines(),
          {.default_deadline_seconds =
               std::numeric_limits<double>::infinity()}),
      invalid_argument_error);
  EXPECT_THROW(
      serve::readout_server(
          f.engines(),
          {.default_deadline_seconds =
               std::numeric_limits<double>::quiet_NaN()}),
      invalid_argument_error);
}

TEST(ServeFailure, ConfigRejectsZeroFailureThreshold) {
  auto& f = fixture();
  // 0 would demote on every single failure; disabling the policy is spelled
  // "large threshold", so 0 can only be a config bug.
  EXPECT_THROW(serve::readout_server(f.engines(), {.failure_threshold = 0}),
               invalid_argument_error);
}

TEST(ServeFailure, RejectsBadRequestDeadline) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  serve::readout_request request{0, &f.data[0].test,
                                 serve::engine_kind::fixed_q16};
  request.deadline_seconds = -1.0;
  EXPECT_THROW(server.submit(request), invalid_argument_error);
  request.deadline_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(server.submit(request), invalid_argument_error);
}

TEST(ServeFailure, ExpiredDeadlineResolvesTimedOut) {
  auto& f = fixture();
  serve::readout_server server(f.engines(), {.shard_shots = 64});
  // A deadline this tight has always expired by the time any shard starts
  // (expiry is checked against the submit-time stopwatch), so every shard
  // is skipped and the ticket must still resolve — as timed_out, not by
  // blocking wait() forever.
  serve::readout_request request{0, &f.data[0].test,
                                 serve::engine_kind::fixed_q16};
  request.deadline_seconds = 1e-12;
  const serve::ticket t = server.submit(request);
  const serve::readout_result result = server.wait(t);  // must not throw
  EXPECT_EQ(result.status, serve::request_status::timed_out);
  const serve::server_stats stats = server.stats();
  EXPECT_EQ(stats.timed_out_requests, 1u);
  EXPECT_EQ(stats.requests_completed, 1u);
  EXPECT_EQ(stats.failed_requests, 0u);
}

TEST(ServeFailure, DefaultDeadlineAppliesToPlainRequests) {
  auto& f = fixture();
  serve::readout_server server(f.engines(),
                               {.default_deadline_seconds = 1e-12});
  const serve::ticket t =
      server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
  EXPECT_EQ(server.wait(t).status, serve::request_status::timed_out);
}

TEST(ServeFailure, CancelParkedRequestResolvesCancelled) {
  auto& f = fixture();
  // A parked coalesced request is deterministically in flight: nothing
  // dispatches it until cancel() flushes its batch, so the cancel flag is
  // guaranteed to be seen before its range runs.
  serve::readout_server server(
      f.engines(), {.shard_shots = 256, .coalesce_shots = 64});
  const auto blocks = split_blocks(f.data[0].test, 16);
  const serve::ticket t =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  EXPECT_FALSE(server.poll(t));
  EXPECT_TRUE(server.cancel(t));
  const serve::readout_result result = server.wait(t);
  EXPECT_EQ(result.status, serve::request_status::cancelled);
  EXPECT_EQ(server.stats().cancelled_requests, 1u);
}

TEST(ServeFailure, CancelAfterCompletionReturnsFalse) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  const serve::ticket t =
      server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
  server.drain();
  // Too late: the result is complete and stays claimable untouched.
  EXPECT_FALSE(server.cancel(t));
  const serve::readout_result result = server.wait(t);
  EXPECT_EQ(result.status, serve::request_status::ok);
  expect_fixed_result(result, 0);
  // A consumed ticket is unknown.
  EXPECT_THROW(server.cancel(t), invalid_argument_error);
}

// --- system facade on the server -------------------------------------------

TEST(SystemServe, MeasureBatchMatchesSerialPerQubit) {
  auto& f = fixture();
  // Assemble a klinq_system from the fixture students via the on-disk
  // format (the trained-system constructor path needs a teacher).
  const std::string dir = "./test_serve_system";
  std::filesystem::create_directories(dir);
  for (std::size_t q = 0; q < kQubits; ++q) {
    const core::qubit_discriminator disc(f.students[q]);
    std::ofstream out(dir + "/qubit" + std::to_string(q) + ".klinq",
                      std::ios::binary);
    disc.save(out);
  }
  const core::klinq_system system =
      core::klinq_system::load_directory(dir, kQubits);
  std::filesystem::remove_all(dir);

  std::vector<const data::trace_dataset*> blocks;
  for (std::size_t q = 0; q < kQubits; ++q) blocks.push_back(&f.data[q].test);
  const auto sharded = system.measure_batch(blocks);

  ASSERT_EQ(sharded.size(), kQubits);
  for (std::size_t q = 0; q < kQubits; ++q) {
    std::vector<std::uint8_t> serial(f.data[q].test.size());
    system.discriminator(q).measure_batch(f.data[q].test, serial);
    ASSERT_EQ(sharded[q], serial) << "qubit " << q;
  }

  // Null entries skip qubits.
  blocks[1] = nullptr;
  const auto partial = system.measure_batch(blocks);
  EXPECT_TRUE(partial[1].empty());
  EXPECT_EQ(partial[0], sharded[0]);
  EXPECT_EQ(partial[2], sharded[2]);
}

// --- observability: stage tracing, kept traces, full-stack dump ------------

TEST(ObsServe, StageSpansSumToRequestLatency) {
  auto& f = fixture();
  obs::metric_registry metrics;
  serve::server_config config;
  config.metrics = &metrics;
  serve::readout_server server(f.engines(), config);

  std::vector<serve::ticket> tickets;
  for (std::size_t q = 0; q < kQubits; ++q) {
    tickets.push_back(
        server.submit({q, &f.data[q].test, serve::engine_kind::fixed_q16}));
    tickets.push_back(
        server.submit({q, &f.data[q].test, serve::engine_kind::float_student}));
  }
  for (const serve::ticket t : tickets) {
    EXPECT_EQ(server.wait(t).status, serve::request_status::ok);
  }

  // Every ok request fits in the slowest set here.
  ASSERT_LE(tickets.size(), obs::trace_ring::kKeptSlowest);
  const std::vector<obs::kept_trace> kept = server.traces().kept();
  ASSERT_EQ(kept.size(), tickets.size());
  for (const obs::kept_trace& entry : kept) {
    EXPECT_FALSE(entry.anomalous);
    EXPECT_EQ(entry.status, "ok");
    ASSERT_EQ(entry.spans.size(), 3u);
    EXPECT_EQ(entry.spans[0].name, "serve.hold");
    EXPECT_EQ(entry.spans[1].name, "serve.queue");
    EXPECT_EQ(entry.spans[2].name, "serve.exec");
    // The three spans tile the submit→completion interval exactly: hold ends
    // where queue starts, queue where the first shard starts, exec at the
    // last shard, all on the same microsecond grid.
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < entry.spans.size(); ++i) {
      sum += entry.spans[i].duration_us;
      if (i + 1 < entry.spans.size()) {
        EXPECT_EQ(entry.spans[i].start_us + entry.spans[i].duration_us,
                  entry.spans[i + 1].start_us);
      }
    }
    EXPECT_EQ(sum, entry.duration_us);
  }

  // The same spans landed in the labeled stage histograms: one ok request
  // per (qubit, engine), and a p100 exec span no longer than the slowest
  // request end-to-end.
  const obs::metrics_snapshot snap = metrics.snapshot();
  for (std::size_t q = 0; q < kQubits; ++q) {
    const std::string qs = std::to_string(q);
    for (const char* engine : {"fixed-q16.16", "float-student"}) {
      EXPECT_EQ(snap.value("klinq_serve_requests_submitted_total",
                           {{"qubit", qs}, {"engine", engine}}),
                1.0);
      EXPECT_EQ(snap.value("klinq_serve_requests_completed_total",
                           {{"qubit", qs}, {"engine", engine},
                            {"status", "ok"}}),
                1.0);
    }
  }
  const double exec_p100 = snap.histogram_quantile(
      "klinq_serve_stage_seconds", {{"stage", "exec"}, {"status", "ok"}}, 1.0);
  const double total_p100 =
      snap.histogram_quantile("klinq_serve_request_seconds", {}, 1.0);
  EXPECT_GT(exec_p100, 0.0);
  EXPECT_LE(exec_p100, total_p100 * (1.0 + 1e-9));
}

TEST(ObsServe, KeptTracesCaptureInjectedFaults) {
  auto& f = fixture();
  fault::disarm_all();
  obs::metric_registry metrics;
  serve::server_config config;
  config.metrics = &metrics;
  serve::readout_server server(f.engines(), config);

  // Baseline request so the kept set has a realistic "fast" latency on file.
  EXPECT_EQ(server
                .wait(server.submit(
                    {0, &f.data[0].test, serve::engine_kind::fixed_q16}))
                .status,
            serve::request_status::ok);

  // Delay every shard by 25 ms: the request still resolves ok, but slow
  // enough that the slowest set must pick it up with its span breakdown.
  fault::arm_from_string("serve.shard.run:delay_ms=25:1.0:7");
  EXPECT_EQ(server
                .wait(server.submit(
                    {0, &f.data[0].test, serve::engine_kind::fixed_q16}))
                .status,
            serve::request_status::ok);
  fault::disarm_all();

  // Throw in the shard: the request resolves failed (wait rethrows) and the
  // anomaly ring keeps its record.
  fault::arm_from_string("serve.shard.run:throw:1.0:9");
  const serve::ticket doomed =
      server.submit({1, &f.data[1].test, serve::engine_kind::float_student});
  EXPECT_THROW(server.wait(doomed), fault::injected_fault);
  fault::disarm_all();

  const std::vector<obs::kept_trace> kept = server.traces().kept();
  const obs::kept_trace* failed = nullptr;
  const obs::kept_trace* slow_ok = nullptr;
  for (const obs::kept_trace& entry : kept) {
    if (entry.anomalous && entry.status == "failed") failed = &entry;
    if (!entry.anomalous && entry.duration_us >= 20000) slow_ok = &entry;
  }
  ASSERT_NE(failed, nullptr) << "anomaly ring missed the failed request";
  ASSERT_NE(slow_ok, nullptr) << "slowest set missed the delayed request";
  for (const obs::kept_trace* entry : {failed, slow_ok}) {
    ASSERT_EQ(entry->spans.size(), 3u);
    EXPECT_EQ(entry->spans[0].name, "serve.hold");
    EXPECT_EQ(entry->spans[1].name, "serve.queue");
    EXPECT_EQ(entry->spans[2].name, "serve.exec");
  }
  // The delay accrued inside shard execution, not while queued.
  EXPECT_GE(slow_ok->spans[2].duration_us, 20000u);

  const obs::metrics_snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.value("klinq_serve_requests_completed_total",
                       {{"qubit", "1"}, {"engine", "float-student"},
                        {"status", "failed"}}),
            1.0);
  EXPECT_EQ(server.stats().failed_requests, 1u);
}

TEST(ObsServe, DisarmedRingStillKeepsFailedRequests) {
  auto& f = fixture();
  fault::disarm_all();
  obs::metric_registry metrics;
  obs::trace_ring ring;  // never armed: head sampling records nothing
  serve::server_config config;
  config.metrics = &metrics;
  config.traces = &ring;
  serve::readout_server server(f.engines(), config);

  fault::arm_from_string("serve.shard.run:throw:1.0:9");
  serve::readout_request request{0, &f.data[0].test,
                                 serve::engine_kind::fixed_q16};
  request.trace_id = 0xFEEDu;  // a wire trace id does not arm the ring
  const serve::ticket doomed = server.submit(request);
  EXPECT_THROW(server.wait(doomed), fault::injected_fault);
  fault::disarm_all();

  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.spans().empty());
  const std::vector<obs::kept_trace> kept = ring.kept();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept[0].anomalous);
  EXPECT_EQ(kept[0].status, "failed");
  EXPECT_NE(kept[0].trace_id, 0u);
  ASSERT_EQ(kept[0].spans.size(), 3u);
  EXPECT_EQ(kept[0].spans[2].name, "serve.exec");
  EXPECT_EQ(&server.traces(), &ring);
}

TEST(ObsServe, FullStackPrometheusDumpLintsClean) {
  auto& f = fixture();
  fault::disarm_all();
  // One shared registry backs every layer, the way tools/klinq_serve.cpp
  // wires it: serve + model registry + drift monitor + fault mirror.
  obs::metric_registry metrics;
  obs::bind_fault_metrics(metrics);

  registry::model_registry reg(kQubits,
                               {.keep_versions = 2, .metrics = &metrics});
  for (std::size_t q = 0; q < kQubits; ++q) {
    reg.publish(q, registry::model_snapshot(f.students[q]));
  }

  serve::server_config config;
  config.metrics = &metrics;
  serve::readout_server server(reg, config);

  registry::drift_monitor monitor(kQubits);
  monitor.bind_metrics(metrics);

  // Armed across the traffic below so the fault mirror has fired sites to
  // report (1 ms delay on every registry acquire, deterministic).
  fault::arm_from_string("registry.acquire:delay_ms=1:1.0:29");
  for (std::size_t q = 0; q < kQubits; ++q) {
    const serve::readout_result result = server.wait(server.submit(
        {q, &f.data[q].test, serve::engine_kind::float_student}));
    EXPECT_EQ(result.status, serve::request_status::ok);
    monitor.observe(result);
  }

  const std::string text = metrics.prometheus_text();
  fault::disarm_all();

  // Every subsystem's families in one dump (labels render key-sorted, the
  // histogram `le` last).
  for (const char* needle : {
           "klinq_serve_requests_submitted_total{engine=\"float-student\","
           "qubit=\"0\"}",
           "klinq_serve_requests_completed_total{engine=\"float-student\","
           "qubit=\"0\",status=\"ok\"}",
           "klinq_serve_stage_seconds_bucket{engine=\"float-student\","
           "qubit=\"0\",stage=\"exec\",status=\"ok\"",
           "klinq_serve_request_seconds_count",
           "klinq_registry_publishes_total{qubit=\"1\"}",
           "klinq_registry_activations_total{qubit=\"1\"}",
           "klinq_registry_acquires_total",
           "klinq_registry_active_version{qubit=\"2\"}",
           "klinq_registry_degraded{qubit=\"0\"}",
           "klinq_drift_score{qubit=\"0\"}",
           "klinq_drift_window_shots{qubit=\"0\"}",
           "klinq_fault_evaluations_total{site=\"registry.acquire\"}",
           "klinq_fault_fired_total{site=\"registry.acquire\"}",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  const std::vector<std::string> problems = obs::lint_prometheus_text(text);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

// --- latency classes (feedback vs bulk lane) --------------------------------

TEST(ServeLane, FeedbackBypassesCoalescingAndIsCounted) {
  auto& f = fixture();
  serve::readout_server server(
      f.engines(), {.shard_shots = 256, .coalesce_shots = 64});
  const auto blocks = split_blocks(f.data[0].test, 16);

  // A small bulk request parks in its coalescing batch…
  serve::readout_request bulk{0, &blocks[0], serve::engine_kind::fixed_q16};
  const serve::ticket bulk_ticket = server.submit(bulk);
  EXPECT_FALSE(server.poll(bulk_ticket));

  // …while an equally small feedback request bypasses the batch entirely
  // and completes without anything flushing it.
  serve::readout_request feedback{0, &blocks[1],
                                  serve::engine_kind::fixed_q16};
  feedback.lane = serve::lane_class::feedback;
  const serve::ticket feedback_ticket = server.submit(feedback);
  // It runs on a pool worker, so give it time — poll() never flushes, and
  // the bulk member must still be parked once the feedback one is done.
  for (int spin = 0; spin < 10000 && !server.poll(feedback_ticket); ++spin) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(server.poll(feedback_ticket));
  EXPECT_FALSE(server.poll(bulk_ticket));
  const serve::readout_result result = server.wait(feedback_ticket);
  EXPECT_EQ(result.status, serve::request_status::ok);
  // Bit-exact against the serial path for those rows.
  std::vector<q16_16> expected(blocks[1].size());
  f.hardware[0].logits(blocks[1], expected);
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(result.registers[r].raw(), expected[r].raw()) << "row " << r;
  }

  serve::server_stats stats = server.stats();
  stats.validate();
  EXPECT_EQ(stats.feedback_requests, 1u);
  EXPECT_EQ(stats.requests_coalesced, 1u);  // only the bulk member parked
  EXPECT_GT(stats.feedback_p99_seconds, 0.0);

  EXPECT_EQ(server.wait(bulk_ticket).status, serve::request_status::ok);
  server.stats().validate();
}

TEST(ServeLane, FeedbackDefaultDeadlineAppliesOnlyToFeedback) {
  auto& f = fixture();
  // The feedback lane gets its own (impossibly tight) default deadline;
  // bulk requests must be untouched by it.
  serve::readout_server server(
      f.engines(), {.feedback_default_deadline_seconds = 1e-12});
  serve::readout_request feedback{0, &f.data[0].test,
                                  serve::engine_kind::fixed_q16};
  feedback.lane = serve::lane_class::feedback;
  const serve::ticket ft = server.submit(feedback);
  EXPECT_EQ(server.wait(ft).status, serve::request_status::timed_out);

  const serve::ticket bt =
      server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
  EXPECT_EQ(server.wait(bt).status, serve::request_status::ok);
}

TEST(ServeLane, ConfigRejectsBadFeedbackDeadline) {
  auto& f = fixture();
  serve::server_config config;
  config.feedback_default_deadline_seconds = -1.0;
  EXPECT_THROW(serve::readout_server(f.engines(), config),
               invalid_argument_error);
  config.feedback_default_deadline_seconds =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(serve::readout_server(f.engines(), config),
               invalid_argument_error);
}

TEST(ServeLane, StatsValidateCatchesInconsistentCounters) {
  serve::server_stats s;
  s.validate();  // all-zero is consistent
  const auto rejects = [](auto mutate) {
    serve::server_stats s;
    mutate(s);
    EXPECT_THROW(s.validate(), invalid_argument_error);
  };
  rejects([](auto& s) { s.requests_completed = 1; });  // nothing submitted
  rejects([](auto& s) {
    s.requests_submitted = 2;
    s.requests_completed = 1;
    s.cancelled_requests = 2;  // terminal statuses exceed completions
  });
  rejects([](auto& s) { s.shots_completed = 10; });
  rejects([](auto& s) { s.requests_coalesced = 1; });  // exceeds submitted
  rejects([](auto& s) {
    s.requests_submitted = 4;
    s.packed_requests = 2;  // packed without coalesced
  });
  rejects([](auto& s) { s.feedback_requests = 1; });
  rejects([](auto& s) { s.inflight = 1; });
  rejects([](auto& s) { s.latency_p50_seconds = -1.0; });
  rejects([](auto& s) {
    s.feedback_p50_seconds = 2.0;
    s.feedback_p99_seconds = 1.0;  // p50 above p99
  });
}

// --- completion doorbell ----------------------------------------------------

TEST(ServeDoorbell, FiresExactlyOncePerTicketAtTerminalStatus) {
  auto& f = fixture();
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, serve::request_status>> events;
  serve::server_config config;
  config.shard_shots = 256;
  config.coalesce_shots = 64;
  config.on_complete = [&](serve::ticket t, serve::request_status status) {
    const std::lock_guard lock(mutex);
    events.emplace_back(t.id, status);
  };
  serve::readout_server server(f.engines(), config);
  const auto blocks = split_blocks(f.data[0].test, 16);

  // ok (direct dispatch), cancelled (parked member), and an empty request:
  // every terminal path must ring the doorbell exactly once.
  const serve::ticket ok_ticket =
      server.submit({0, &f.data[0].test, serve::engine_kind::fixed_q16});
  const serve::ticket parked =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  EXPECT_TRUE(server.cancel(parked));
  const data::trace_dataset empty;
  const serve::ticket zero_shot =
      server.submit({0, &empty, serve::engine_kind::fixed_q16});
  server.drain();

  {
    const std::lock_guard lock(mutex);
    ASSERT_EQ(events.size(), 3u);
    const auto status_of = [&](serve::ticket t) {
      for (const auto& [id, status] : events) {
        if (id == t.id) return status;
      }
      return serve::request_status::failed;
    };
    EXPECT_EQ(status_of(ok_ticket), serve::request_status::ok);
    EXPECT_EQ(status_of(parked), serve::request_status::cancelled);
    EXPECT_EQ(status_of(zero_shot), serve::request_status::ok);
  }
  server.wait(ok_ticket);
  server.wait(parked);
  server.wait(zero_shot);
}

TEST(ServeDoorbell, SetOnCompleteRequiresQuiescence) {
  auto& f = fixture();
  serve::readout_server server(
      f.engines(), {.shard_shots = 256, .coalesce_shots = 64});
  const auto blocks = split_blocks(f.data[0].test, 16);
  const serve::ticket parked =
      server.submit({0, &blocks[0], serve::engine_kind::fixed_q16});
  // An unresolved (parked) ticket makes the swap illegal…
  EXPECT_THROW(server.set_on_complete([](serve::ticket,
                                         serve::request_status) {}),
               invalid_argument_error);
  server.cancel(parked);
  server.wait(parked);
  // …and consuming it makes the same swap legal.
  std::atomic<int> rings{0};
  server.set_on_complete(
      [&](serve::ticket, serve::request_status) { ++rings; });
  const serve::ticket t =
      server.submit({0, &blocks[1], serve::engine_kind::fixed_q16});
  server.cancel(t);
  server.wait(t);
  // The doorbell rings after the ticket resolves, from the task that
  // resolved it; drain() waits for that task body to return.
  server.drain();
  EXPECT_EQ(rings.load(), 1);
  server.set_on_complete({});  // clearing is also a swap: needs quiescence
}

// --- cancel vs batch-flush teardown race (regression hammer) ----------------

TEST(ServeTeardown, CancelDuringFlushHammer) {
  auto& f = fixture();
  // cancel() racing drain()/destruction while coalesced batches flush: the
  // post-completion demote tail used to touch server members the destructor
  // was already tearing down. Run the whole lifecycle repeatedly with a
  // concurrent canceller; TSAN (the CI thread-sanitizer job) turns any
  // regression into a hard failure.
  const auto blocks = split_blocks(f.data[0].test, 12);
  for (int iteration = 0; iteration < 25; ++iteration) {
    std::vector<serve::ticket> tickets;
    auto server = std::make_unique<serve::readout_server>(
        f.engines(),
        serve::server_config{.shard_shots = 256, .coalesce_shots = 64});
    for (std::size_t b = 0; b < 4 && b < blocks.size(); ++b) {
      tickets.push_back(
          server->submit({0, &blocks[b], serve::engine_kind::fixed_q16}));
    }
    // The canceller races drain(): cancel() can land exactly while drain's
    // flush is dispatching the parked batches these tickets sit in.
    std::thread canceller([&] {
      for (const serve::ticket t : tickets) {
        server->cancel(t);
      }
    });
    server->drain();
    canceller.join();
    server->stats().validate();
    if (iteration % 2 == 0) {
      for (const serve::ticket t : tickets) {
        const serve::request_status status = server->wait(t).status;
        EXPECT_TRUE(status == serve::request_status::ok ||
                    status == serve::request_status::cancelled);
      }
    }
    server.reset();  // odd iterations: destroy with unconsumed tickets
  }
}

TEST(ServeTeardown, DrainDestroyCyclesStayConsistent) {
  auto& f = fixture();
  for (int cycle = 0; cycle < 10; ++cycle) {
    serve::readout_server server(
        f.engines(), {.shard_shots = 128, .coalesce_shots = 32});
    const auto blocks = split_blocks(f.data[0].test, 16);
    for (std::size_t b = 0; b < 3; ++b) {
      server.submit({0, &blocks[b], serve::engine_kind::fixed_q16});
    }
    server.drain();
    const serve::server_stats stats = server.stats();
    stats.validate();
    EXPECT_EQ(stats.requests_completed, 3u);
    // Destruction with unconsumed-but-completed tickets must be clean.
  }
}

// --- urgent submission (the feedback lane's scheduling hook) ----------------

TEST(ThreadPool, SubmitUrgentRunsInlineOnWorkerlessPool) {
  thread_pool pool(1);  // spawns zero background workers
  ASSERT_EQ(pool.worker_count(), 0u);
  bool ran = false;
  pool.submit_urgent([&ran] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, SubmitUrgentJumpsTheQueue) {
  thread_pool pool(2);
  std::mutex order_mutex;
  std::vector<int> order;
  std::atomic<bool> release{false};
  std::atomic<int> blocked{0};
  // Saturate every worker so subsequent submits genuinely queue.
  for (std::size_t w = 0; w < pool.worker_count(); ++w) {
    pool.submit([&] {
      ++blocked;
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (blocked.load() < static_cast<int>(pool.worker_count())) {
    std::this_thread::yield();
  }
  const auto record = [&](int id) {
    const std::lock_guard lock(order_mutex);
    order.push_back(id);
  };
  pool.submit([&, record] { record(1); });
  pool.submit([&, record] { record(2); });
  pool.submit_urgent([&, record] { record(0); });  // enqueued last, runs first
  release = true;
  for (;;) {
    {
      const std::lock_guard lock(order_mutex);
      if (order.size() == 3) break;
    }
    std::this_thread::yield();
  }
  const std::lock_guard lock(order_mutex);
  EXPECT_EQ(order.front(), 0) << "urgent task did not jump the queue";
}

}  // namespace
