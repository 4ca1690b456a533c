// Tests for the readout physics simulator and dataset builder.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "klinq/common/math.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/qsim/device_params.hpp"
#include "klinq/qsim/readout_simulator.hpp"

namespace {

using namespace klinq;
using qsim::device_params;
using qsim::readout_simulator;

TEST(DeviceParams, PresetsValidate) {
  EXPECT_NO_THROW(qsim::lienhard5q_preset().validate());
  EXPECT_NO_THROW(qsim::single_qubit_test_preset().validate());
  EXPECT_EQ(qsim::lienhard5q_preset().qubit_count(), 5u);
}

TEST(DeviceParams, ValidateRejectsBadValues) {
  auto device = qsim::single_qubit_test_preset();
  device.qubits[0].t1_ns = -1.0;
  EXPECT_THROW(device.validate(), invalid_argument_error);
  device = qsim::single_qubit_test_preset();
  device.qubits[0].prep_error = 0.7;
  EXPECT_THROW(device.validate(), invalid_argument_error);
  device = qsim::single_qubit_test_preset();
  device.crosstalk = la::matrix_d(2, 2, 0.0);  // wrong shape for 1 qubit
  EXPECT_THROW(device.validate(), invalid_argument_error);
}

TEST(CleanTrajectory, RingsUpTowardSteadyState) {
  const auto device = qsim::single_qubit_test_preset();
  const readout_simulator sim(device);
  std::vector<float> i_tr;
  std::vector<float> q_tr;
  sim.clean_trajectory(0, /*excited=*/false, -1.0, i_tr, q_tr);
  ASSERT_EQ(i_tr.size(), 500u);
  // Starts near zero (resonator empty), converges to the ground response.
  EXPECT_LT(std::abs(i_tr[0]), std::abs(device.qubits[0].ground.i));
  EXPECT_NEAR(i_tr.back(), device.qubits[0].ground.i, 0.01);
  EXPECT_NEAR(q_tr.back(), device.qubits[0].ground.q, 0.01);
  // Monotone approach for a first-order system.
  EXPECT_LT(std::abs(i_tr[400] - static_cast<float>(device.qubits[0].ground.i)),
            std::abs(i_tr[100] - static_cast<float>(device.qubits[0].ground.i)));
}

TEST(CleanTrajectory, ExcitedDiffersFromGround) {
  const readout_simulator sim(qsim::single_qubit_test_preset());
  std::vector<float> i0, q0, i1, q1;
  sim.clean_trajectory(0, false, -1.0, i0, q0);
  sim.clean_trajectory(0, true, -1.0, i1, q1);
  double max_gap = 0.0;
  for (std::size_t s = 0; s < i0.size(); ++s) {
    max_gap = std::max(
        max_gap, static_cast<double>(std::hypot(i1[s] - i0[s], q1[s] - q0[s])));
  }
  EXPECT_GT(max_gap, 0.4);  // separation 0.5 in the preset
}

TEST(CleanTrajectory, DecaySwitchesTargetMidTrace) {
  const auto device = qsim::single_qubit_test_preset();
  const readout_simulator sim(device);
  std::vector<float> i_dec, q_dec, i0, q0;
  sim.clean_trajectory(0, true, /*decay at*/ 300.0, i_dec, q_dec);
  sim.clean_trajectory(0, false, -1.0, i0, q0);
  // After decay + settling, the trajectory approaches the ground response.
  EXPECT_NEAR(i_dec.back(), i0.back(), 0.02);
  // But before the decay it tracked the excited branch.
  std::vector<float> i1, q1;
  sim.clean_trajectory(0, true, -1.0, i1, q1);
  EXPECT_NEAR(i_dec[140], i1[140], 1e-6);
}

TEST(Shot, DeterministicGivenSameRngState) {
  const readout_simulator sim(qsim::lienhard5q_preset());
  xoshiro256 rng_a(99);
  xoshiro256 rng_b(99);
  const auto shot_a = sim.simulate_shot(0b10110, rng_a);
  const auto shot_b = sim.simulate_shot(0b10110, rng_b);
  ASSERT_EQ(shot_a.channels.size(), 5u);
  for (std::size_t q = 0; q < 5; ++q) {
    EXPECT_EQ(shot_a.channels[q], shot_b.channels[q]);
  }
  EXPECT_EQ(shot_a.actual_initial_states, shot_b.actual_initial_states);
}

TEST(Shot, ChannelsHaveCorrectShape) {
  const readout_simulator sim(qsim::lienhard5q_preset());
  xoshiro256 rng(1);
  const auto shot = sim.simulate_shot(0, rng);
  EXPECT_EQ(shot.channels.size(), 5u);
  for (const auto& ch : shot.channels) EXPECT_EQ(ch.size(), 1000u);
  EXPECT_EQ(shot.decay_time_ns.size(), 5u);
}

TEST(Shot, PrepErrorZeroMeansStatesMatchPermutation) {
  auto device = qsim::lienhard5q_preset();
  for (auto& q : device.qubits) q.prep_error = 0.0;
  const readout_simulator sim(device);
  xoshiro256 rng(2);
  for (std::uint32_t perm : {0u, 7u, 21u, 31u}) {
    const auto shot = sim.simulate_shot(perm, rng);
    EXPECT_EQ(shot.actual_initial_states, perm);
  }
}

TEST(Shot, ExcitedStatesSometimesDecay) {
  auto device = qsim::single_qubit_test_preset();
  device.qubits[0].t1_ns = 500.0;  // comparable to the trace → frequent decay
  const readout_simulator sim(device);
  xoshiro256 rng(3);
  int decays = 0;
  const int shots = 500;
  for (int s = 0; s < shots; ++s) {
    const auto shot = sim.simulate_shot(1, rng);
    if (shot.decay_time_ns[0] >= 0.0) ++decays;
  }
  // P(decay within 1 µs) = 1 − exp(−1000/500) ≈ 0.865.
  EXPECT_NEAR(static_cast<double>(decays) / shots, 0.865, 0.05);
}

TEST(Shot, GroundStateNeverDecays) {
  const readout_simulator sim(qsim::single_qubit_test_preset());
  xoshiro256 rng(4);
  for (int s = 0; s < 100; ++s) {
    const auto shot = sim.simulate_shot(0, rng);
    EXPECT_LT(shot.decay_time_ns[0], 0.0);
  }
}

TEST(Shot, NoiseSigmaMatchesConfiguration) {
  auto device = qsim::single_qubit_test_preset();
  device.qubits[0].gain_jitter = 0.0;
  device.qubits[0].phase_jitter = 0.0;
  device.qubits[0].noise_sigma = 2.0;
  const readout_simulator sim(device);
  xoshiro256 rng(5);
  // Collect residuals around the clean trajectory.
  std::vector<float> i_clean, q_clean;
  sim.clean_trajectory(0, false, -1.0, i_clean, q_clean);
  running_stats residuals;
  for (int s = 0; s < 50; ++s) {
    const auto shot = sim.simulate_shot(0, rng);
    for (std::size_t k = 0; k < 500; ++k) {
      residuals.add(shot.channels[0][k] - i_clean[k]);
    }
  }
  EXPECT_NEAR(residuals.stddev(), 2.0, 0.05);
  EXPECT_NEAR(residuals.mean(), 0.0, 0.05);
}

TEST(Shot, CrosstalkLeaksNeighbourSignal) {
  // Two qubits, no noise: channel 0 picks up 50 % of qubit 1's signal.
  device_params device;
  device.trace_duration_ns = 1000.0;
  qsim::qubit_params q0;
  q0.ground = {1.0, 0.0};
  q0.excited = {-1.0, 0.0};
  q0.noise_sigma = 0.0;
  q0.gain_jitter = 0.0;
  q0.phase_jitter = 0.0;
  q0.prep_error = 0.0;
  q0.t1_ns = 1e9;
  auto q1 = q0;
  q1.ground = {0.0, 2.0};
  q1.excited = {0.0, -2.0};
  device.qubits = {q0, q1};
  device.crosstalk = la::matrix_d(2, 2, 0.0);
  device.crosstalk(0, 1) = 0.5;
  const readout_simulator sim(device);

  xoshiro256 rng(6);
  // Permutation 0b10: qubit 1 excited → its Q response is −2; channel 0's Q
  // should show 0.5 · (−2) = −1 at steady state.
  const auto shot = sim.simulate_shot(0b10, rng);
  EXPECT_NEAR(shot.channels[0][999], -1.0, 0.02);   // Q of channel 0
  // And with qubit 1 in ground, +1.
  const auto shot2 = sim.simulate_shot(0b00, rng);
  EXPECT_NEAR(shot2.channels[0][999], 1.0, 0.02);
}

TEST(Feedline, MultiplexSumsModulatedChannels) {
  const auto device = qsim::lienhard5q_preset();
  const readout_simulator sim(device);
  xoshiro256 rng(7);
  const auto shot = sim.simulate_shot(5, rng);
  const auto feedline = sim.multiplex_feedline(shot);
  ASSERT_EQ(feedline.size(), 1000u);
  // The direct formula, Σ_q (I + jQ)·e^{jω_q k} with cos/sin per sample,
  // must match the simulator's precomputed carrier table exactly.
  const std::size_t n = 500;
  const double dt_us = data::kSamplePeriodNs * 1e-3;
  std::vector<float> expected(2 * n, 0.0f);
  for (std::size_t q = 0; q < device.qubit_count(); ++q) {
    const double omega =
        2.0 * 3.14159265358979323846 * device.qubits[q].if_freq_mhz * dt_us;
    const auto& channel = shot.channels[q];
    for (std::size_t k = 0; k < n; ++k) {
      const double angle = omega * static_cast<double>(k);
      const double c = std::cos(angle);
      const double s = std::sin(angle);
      expected[k] += static_cast<float>(c * channel[k] - s * channel[n + k]);
      expected[n + k] +=
          static_cast<float>(s * channel[k] + c * channel[n + k]);
    }
  }
  EXPECT_EQ(std::memcmp(feedline.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0);
  double energy = 0.0;
  for (const float v : feedline) energy += v * v;
  EXPECT_GT(energy, 0.0);
}

TEST(ShotSeed, DistinctAcrossInputs) {
  const auto a = qsim::shot_seed(1, 0, 0, false);
  EXPECT_NE(a, qsim::shot_seed(1, 0, 0, true));
  EXPECT_NE(a, qsim::shot_seed(1, 0, 1, false));
  EXPECT_NE(a, qsim::shot_seed(1, 1, 0, false));
  EXPECT_NE(a, qsim::shot_seed(2, 0, 0, false));
  EXPECT_EQ(a, qsim::shot_seed(1, 0, 0, false));
}

TEST(DatasetBuilder, ShapesAndBalance) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 4;
  spec.shots_per_permutation_test = 2;
  spec.seed = 11;
  const auto qd = qsim::build_qubit_dataset(spec, 2);
  EXPECT_EQ(qd.train.size(), 32u * 4);
  EXPECT_EQ(qd.test.size(), 32u * 2);
  EXPECT_EQ(qd.train.samples_per_quadrature(), 500u);
  // Exactly half the permutations have qubit 2 excited.
  const auto ones = qd.train.rows_with_label(true);
  EXPECT_EQ(ones.size(), qd.train.size() / 2);
  qd.train.validate();
  qd.test.validate();
}

TEST(DatasetBuilder, LabelsFollowPermutationBit) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 1;
  spec.shots_per_permutation_test = 1;
  const auto qd = qsim::build_qubit_dataset(spec, 3);
  for (std::size_t r = 0; r < qd.train.size(); ++r) {
    const auto perm = qd.train.permutations()[r];
    EXPECT_EQ(qd.train.label_state(r), ((perm >> 3) & 1) != 0);
  }
}

TEST(DatasetBuilder, DeterministicAcrossCalls) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 2;
  spec.shots_per_permutation_test = 1;
  spec.seed = 13;
  const auto a = qsim::build_qubit_dataset(spec, 0);
  const auto b = qsim::build_qubit_dataset(spec, 0);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t r = 0; r < a.train.size(); ++r) {
    for (std::size_t c = 0; c < a.train.feature_width(); ++c) {
      ASSERT_FLOAT_EQ(a.train.trace(r)[c], b.train.trace(r)[c]);
    }
  }
}

TEST(DatasetBuilder, TrainAndTestShotsDiffer) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 1;
  spec.shots_per_permutation_test = 1;
  const auto qd = qsim::build_qubit_dataset(spec, 0);
  // Same permutation, same shot index, different split ⇒ different noise.
  bool any_different = false;
  for (std::size_t c = 0; c < qd.train.feature_width(); ++c) {
    if (qd.train.trace(0)[c] != qd.test.trace(0)[c]) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(DatasetBuilder, SameShotsAcrossQubitExtraction) {
  // Extracting different qubits replays identical physical shots: every
  // per-qubit row, on both splits, is bit for bit the same channel of the
  // full shot rebuilt from its seed, although the builder simulates only
  // that one channel.
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 2;
  spec.shots_per_permutation_test = 1;
  spec.seed = 17;
  const readout_simulator sim(spec.device);
  for (std::size_t q = 0; q < spec.device.qubit_count(); ++q) {
    const auto qd = qsim::build_qubit_dataset(spec, q);
    for (const bool is_test : {false, true}) {
      const auto& ds = is_test ? qd.test : qd.train;
      const std::size_t shots = is_test ? spec.shots_per_permutation_test
                                        : spec.shots_per_permutation_train;
      for (std::size_t row = 0; row < ds.size(); ++row) {
        const auto perm = static_cast<std::uint32_t>(row / shots);
        xoshiro256 rng(qsim::shot_seed(spec.seed, perm, row % shots, is_test));
        const auto shot = sim.simulate_shot(perm, rng);
        ASSERT_EQ(std::memcmp(ds.trace(row).data(), shot.channels[q].data(),
                              shot.channels[q].size() * sizeof(float)),
                  0)
            << "qubit " << q << " test " << is_test << " row " << row;
      }
    }
  }
}

TEST(Shot, SelectedChannelsMatchFullShot) {
  // Any subset of channels equals the full shot's channels bit for bit,
  // with the same actual states and decay times, for crosstalk victims
  // (channel 1) and channels past a skipped one alike.
  const readout_simulator sim(qsim::lienhard5q_preset());
  const std::size_t width = 2 * sim.samples_per_quadrature();
  for (const std::uint32_t mask : {0b00001u, 0b00010u, 0b10000u, 0b01010u,
                                   0b10101u, 0b11111u}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      xoshiro256 full_rng(seed);
      xoshiro256 part_rng(seed);
      const auto perm = static_cast<std::uint32_t>(seed * 5 % 32);
      const auto shot = sim.simulate_shot(perm, full_rng);
      std::vector<std::vector<float>> buffers(5, std::vector<float>(width));
      std::vector<float*> out(5, nullptr);
      for (std::size_t q = 0; q < 5; ++q) {
        if ((mask >> q) & 1u) out[q] = buffers[q].data();
      }
      std::vector<double> decay(5);
      const std::uint32_t actual =
          sim.simulate_channels(perm, part_rng, out, decay);
      EXPECT_EQ(actual, shot.actual_initial_states);
      EXPECT_EQ(decay, shot.decay_time_ns);
      for (std::size_t q = 0; q < 5; ++q) {
        if (out[q] == nullptr) continue;
        ASSERT_EQ(std::memcmp(buffers[q].data(), shot.channels[q].data(),
                              width * sizeof(float)),
                  0)
            << "mask " << mask << " seed " << seed << " channel " << q;
      }
    }
  }
}

/// FNV-1a over the raw bytes of every trace row.
std::uint64_t fnv1a_traces(const data::trace_dataset& ds, std::uint64_t h) {
  for (std::size_t r = 0; r < ds.size(); ++r) {
    const auto row = ds.trace(r);
    const auto* bytes = reinterpret_cast<const unsigned char*>(row.data());
    for (std::size_t b = 0; b < row.size_bytes(); ++b) {
      h ^= bytes[b];
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

TEST(DatasetBuilder, GoldenLienhardTracesHash) {
  // Every lienhard5q qubit's train and test traces at a small spec, hashed
  // byte for byte. fidelity_f5q rests on these bytes: a change to qsim's
  // draw order or arithmetic must show here, not as a silent fidelity drift.
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 3;
  spec.shots_per_permutation_test = 2;
  spec.seed = 42;
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t q = 0; q < spec.device.qubit_count(); ++q) {
    const auto qd = qsim::build_qubit_dataset(spec, q);
    h = fnv1a_traces(qd.train, h);
    h = fnv1a_traces(qd.test, h);
  }
  EXPECT_EQ(h, 0x8D9135E2B556710Bull) << std::hex << "got 0x" << h;
}

TEST(DatasetBuilder, MultiplexedDatasetShape) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 1;
  spec.shots_per_permutation_test = 1;
  const auto qd = qsim::build_multiplexed_dataset(spec, 0);
  EXPECT_EQ(qd.train.size(), 32u);
  EXPECT_EQ(qd.train.feature_width(), 1000u);
}

TEST(DatasetBuilder, RejectsBadQubitIndex) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 1;
  spec.shots_per_permutation_test = 1;
  EXPECT_THROW(qsim::build_qubit_dataset(spec, 9), invalid_argument_error);
}

}  // namespace
