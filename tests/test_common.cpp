// Tests for klinq_common: RNG, thread pool, math helpers, CLI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "klinq/common/cast.hpp"
#include "klinq/common/cli.hpp"
#include "klinq/common/env.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/math.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"

namespace {

using namespace klinq;

TEST(Rng, DeterministicForSameSeed) {
  xoshiro256 a(123);
  xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  xoshiro256 a(1);
  xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  xoshiro256 rng(11);
  running_stats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  xoshiro256 rng(13);
  running_stats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  xoshiro256 rng(17);
  running_stats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(40.0));
  EXPECT_NEAR(stats.mean(), 40.0, 1.0);
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  xoshiro256 rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, UniformIndexStaysInRange) {
  xoshiro256 rng(23);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(Rng, SplitProducesIndependentStream) {
  xoshiro256 parent(31);
  xoshiro256 child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, DiscardNormalsMatchesNormalCalls) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 0xDEADBEEFull}) {
    for (const bool cached : {false, true}) {
      for (const std::size_t count : {0u, 1u, 2u, 3u, 999u, 1000u, 1001u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " cached "
                                        << cached << " count " << count);
        xoshiro256 skipped(seed);
        xoshiro256 drawn(seed);
        if (cached) {  // leave the second deviate of a pair in the cache
          skipped.normal();
          drawn.normal();
        }
        skipped.discard_normals(count);
        for (std::size_t i = 0; i < count; ++i) drawn.normal();
        for (int i = 0; i < 64; ++i) {
          ASSERT_EQ(skipped.normal(), drawn.normal());
          ASSERT_EQ(skipped.uniform(), drawn.uniform());
        }
      }
    }
  }
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  thread_pool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(0, counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ChunkedCoversRangeWithoutOverlap) {
  thread_pool pool(3);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_for_chunked(0, counts.size(),
                            [&](std::size_t b, std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                counts[i].fetch_add(1);
                              }
                            });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  thread_pool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesWorkerException) {
  thread_pool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, SingleWorkerStillRuns) {
  thread_pool pool(1);
  int sum = 0;
  pool.parallel_for_chunked(0, 10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, NestedParallelForCoversEveryIndexExactlyOnce) {
  // Nested dispatch from inside a chunk queues sub-chunks like any other
  // caller; the work-stealing wait keeps a saturated pool deadlock-free.
  thread_pool pool(4);
  constexpr std::size_t outer = 8;
  constexpr std::size_t inner = 250;
  std::vector<std::atomic<int>> counts(outer * inner);
  pool.parallel_for(0, outer, [&](std::size_t i) {
    pool.parallel_for(0, inner, [&](std::size_t j) {
      counts[i * inner + j].fetch_add(1);
    });
  });
  for (const auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  thread_pool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 4,
                        [&](std::size_t) {
                          pool.parallel_for(0, 64, [](std::size_t j) {
                            if (j == 33) throw std::runtime_error("inner");
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, BlockedCallerDrainsQueueWhileWorkersAreBusy) {
  // One spawned worker, parked on a gate. parallel_for's queued chunk can
  // only run if the blocked caller drains the queue itself — the pre-
  // work-stealing scheduler would sleep here until the gate opened.
  thread_pool pool(2);
  std::atomic<bool> parked{false};
  std::atomic<bool> gate{false};
  std::atomic<bool> worker_timed_out{false};
  pool.submit([&] {
    parked = true;
    for (int spin = 0; spin < 10000 && !gate.load(); ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!gate.load()) worker_timed_out = true;
  });
  while (!parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::atomic<int>> counts(16);
  pool.parallel_for(0, counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
  gate = true;  // parallel_for returned while the worker was still parked
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  EXPECT_FALSE(worker_timed_out.load());
}

/// Waits up to five seconds for `count` to reach `target`.
bool reaches(const std::atomic<int>& count, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPoolDeferredWake, EveryTaskSubmittedUnderTheGuardRunsAfterIt) {
  // Fewer, as many and more tasks than workers: the guard's one wake must
  // leave no task queued with every worker asleep.
  thread_pool pool(4);
  std::atomic<int> ran{0};
  int submitted = 0;
  for (int round = 0; round < 40; ++round) {
    {
      const thread_pool::deferred_wake guard(pool);
      for (int t = 0; t < round % 7; ++t) {
        pool.submit([&] { ran.fetch_add(1); });
        ++submitted;
      }
    }
    ASSERT_TRUE(reaches(ran, submitted)) << "round " << round;
  }
}

TEST(ThreadPoolDeferredWake, NestedGuardsWakeOnceAtTheOutermostEnd) {
  thread_pool pool(3);
  std::atomic<int> ran{0};
  // Let both workers go to sleep: a worker that is awake may take a
  // deferred task, which the contract allows.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    const thread_pool::deferred_wake outer(pool);
    {
      const thread_pool::deferred_wake inner(pool);
      pool.submit([&] { ran.fetch_add(1); });
    }
    pool.submit([&] { ran.fetch_add(1); });
    // The inner guard's end woke nobody.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(ran.load(), 0);
  }
  EXPECT_TRUE(reaches(ran, 2));
}

TEST(ThreadPoolDeferredWake, GuardLeftByAnExceptionStillWakesThePool) {
  thread_pool pool(4);
  std::atomic<int> ran{0};
  try {
    const thread_pool::deferred_wake guard(pool);
    for (int t = 0; t < 5; ++t) pool.submit([&] { ran.fetch_add(1); });
    throw std::runtime_error("leave the turn early");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(reaches(ran, 5));
}

TEST(ThreadPoolDeferredWake, WorkerlessPoolStillRunsTasksInline) {
  thread_pool pool(1);
  ASSERT_EQ(pool.worker_count(), 0u);
  int ran = 0;
  const thread_pool::deferred_wake guard(pool);
  pool.submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // before submit returned, guard still open
}

TEST(ThreadPoolDeferredWake, AnotherPoolsSubmissionsAreNotDeferred) {
  thread_pool held(2);
  thread_pool other(2);
  std::atomic<int> ran{0};
  const thread_pool::deferred_wake guard(held);
  const thread_pool::deferred_wake inert(other);  // held's guard is open
  other.submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(reaches(ran, 1));
}

TEST(Math, CeilLog2MatchesDefinition) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(31), 5);   // FNN-A first-layer adder tree
  EXPECT_EQ(ceil_log2(32), 5);
  EXPECT_EQ(ceil_log2(201), 8);  // FNN-B first-layer adder tree
  EXPECT_EQ(ceil_log2(1024), 10);
}

TEST(Math, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1023));
}

TEST(Math, NearestPowerOfTwoExponent) {
  EXPECT_EQ(nearest_power_of_two_exponent(1.0), 0);
  EXPECT_EQ(nearest_power_of_two_exponent(2.0), 1);
  EXPECT_EQ(nearest_power_of_two_exponent(0.5), -1);
  EXPECT_EQ(nearest_power_of_two_exponent(3.0), 2);   // log2(3)≈1.58 → 2
  EXPECT_EQ(nearest_power_of_two_exponent(2.8), 1);   // log2(2.8)≈1.49 → 1
  EXPECT_THROW(nearest_power_of_two_exponent(0.0), invalid_argument_error);
  EXPECT_THROW(nearest_power_of_two_exponent(-1.0), invalid_argument_error);
}

TEST(Math, GeometricMeanBasics) {
  const std::vector<double> v{4.0, 1.0};
  EXPECT_NEAR(geometric_mean(v), 2.0, 1e-12);
  const std::vector<double> fidelities{0.968, 0.748, 0.929, 0.934, 0.959};
  // Paper Table I reports F5Q = 0.904 for KLiNQ.
  EXPECT_NEAR(geometric_mean(fidelities), 0.904, 0.001);
}

TEST(Math, GeometricMeanRejectsNonPositive) {
  const std::vector<double> v{1.0, 0.0};
  EXPECT_THROW(geometric_mean(v), invalid_argument_error);
  EXPECT_THROW(geometric_mean(std::vector<double>{}), invalid_argument_error);
}

TEST(Math, SigmoidSymmetry) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_GT(sigmoid(100.0), 0.999);
  EXPECT_LT(sigmoid(-100.0), 0.001);
}

TEST(Math, NormalCdfLandmarks) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
}

TEST(Math, RunningStatsMatchesBatch) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 10.0};
  running_stats stats;
  for (const double x : v) stats.add(x);
  EXPECT_NEAR(stats.mean(), mean(v), 1e-12);
  EXPECT_NEAR(stats.variance(), variance(v), 1e-12);
  EXPECT_EQ(stats.count(), v.size());
}

TEST(Cast, CheckedCastRoundTrips) {
  EXPECT_EQ(checked_cast<int>(42L), 42);
  EXPECT_EQ(checked_cast<std::uint8_t>(255), 255);
}

TEST(Cast, CheckedCastThrowsOnNarrowing) {
  EXPECT_THROW(checked_cast<std::uint8_t>(256), numeric_error);
  EXPECT_THROW(checked_cast<std::uint32_t>(-1), numeric_error);
}

TEST(Cli, ParsesFlagsAndOptions) {
  cli_parser cli("prog", "test");
  cli.add_flag("fast", "go fast");
  cli.add_option("seed", "rng seed", "42");
  const char* argv[] = {"prog", "--fast", "--seed", "7"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_TRUE(cli.get_flag("fast"));
  EXPECT_EQ(cli.get_int("seed"), 7);
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  cli_parser cli("prog", "test");
  cli.add_option("seed", "rng seed", "42");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("seed"), 42);
}

TEST(Cli, EqualsSyntax) {
  cli_parser cli("prog", "test");
  cli.add_option("rate", "learning rate", "0.5");
  const char* argv[] = {"prog", "--rate=0.25"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.25);
}

TEST(Cli, RejectsUnknownOption) {
  cli_parser cli("prog", "test");
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_THROW(cli.parse(2, argv), invalid_argument_error);
}

TEST(Cli, RejectsMissingValue) {
  cli_parser cli("prog", "test");
  cli.add_option("seed", "rng seed", "1");
  const char* argv[] = {"prog", "--seed"};
  EXPECT_THROW(cli.parse(2, argv), invalid_argument_error);
}

TEST(Cli, RejectsBadInteger) {
  cli_parser cli("prog", "test");
  cli.add_option("seed", "rng seed", "1");
  const char* argv[] = {"prog", "--seed", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("seed"), invalid_argument_error);
}

TEST(Cli, HelpReturnsFalse) {
  cli_parser cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Env, FallbackWhenUnset) {
  EXPECT_EQ(env_int("KLINQ_TEST_UNSET_VAR_XYZ", 99), 99);
  EXPECT_EQ(env_string("KLINQ_TEST_UNSET_VAR_XYZ", "d"), "d");
  EXPECT_DOUBLE_EQ(env_double("KLINQ_TEST_UNSET_VAR_XYZ", 1.5), 1.5);
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    KLINQ_REQUIRE(false, "my message");
    FAIL() << "should have thrown";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find("my message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Error, AssertMacroThrowsLogicBug) {
  EXPECT_THROW(KLINQ_ASSERT(1 == 2), logic_error_bug);
}

}  // namespace
