// Tests for FIR design/filtering and the digital down-converter.
#include <gtest/gtest.h>

#include <cmath>

#include "klinq/common/rng.hpp"
#include "klinq/dsp/ddc.hpp"
#include "klinq/dsp/fir.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/qsim/readout_simulator.hpp"

namespace {

using namespace klinq;

constexpr double kPi = 3.14159265358979323846;

TEST(Fir, DesignHasUnitDcGainAndSymmetry) {
  const auto taps = dsp::design_lowpass_fir(63, 0.1);
  ASSERT_EQ(taps.size(), 63u);
  double sum = 0.0;
  for (const float t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (std::size_t k = 0; k < taps.size() / 2; ++k) {
    EXPECT_NEAR(taps[k], taps[taps.size() - 1 - k], 1e-7);
  }
}

TEST(Fir, DesignRejectsBadParameters) {
  EXPECT_THROW(dsp::design_lowpass_fir(10, 0.1), invalid_argument_error);
  EXPECT_THROW(dsp::design_lowpass_fir(63, 0.0), invalid_argument_error);
  EXPECT_THROW(dsp::design_lowpass_fir(63, 0.6), invalid_argument_error);
}

TEST(Fir, PassesDcBlocksStopband) {
  const dsp::fir_filter filter(dsp::design_lowpass_fir(101, 0.05));
  const std::size_t n = 1024;
  std::vector<float> dc(n, 1.0f);
  std::vector<float> out(n);
  filter.apply(dc, out);
  EXPECT_NEAR(out[n / 2], 1.0f, 0.01f);  // passband gain ≈ 1 mid-signal

  // Tone at 0.2 fs (4x the cutoff) must be strongly attenuated.
  std::vector<float> tone(n);
  for (std::size_t k = 0; k < n; ++k) {
    tone[k] = static_cast<float>(std::sin(2.0 * kPi * 0.2 * k));
  }
  filter.apply(tone, out);
  double power = 0.0;
  for (std::size_t k = 200; k < n - 200; ++k) power += out[k] * out[k];
  power /= static_cast<double>(n - 400);
  EXPECT_LT(power, 1e-4);  // > 35 dB suppression
}

TEST(Fir, GroupDelayCompensated) {
  const dsp::fir_filter filter(dsp::design_lowpass_fir(31, 0.2));
  std::vector<float> impulse(101, 0.0f);
  impulse[50] = 1.0f;
  std::vector<float> out(101);
  filter.apply(impulse, out);
  // Response peak must stay centred at the impulse position.
  std::size_t peak = 0;
  for (std::size_t k = 1; k < out.size(); ++k) {
    if (out[k] > out[peak]) peak = k;
  }
  EXPECT_EQ(peak, 50u);
}

TEST(Fir, ApplyValidatesSpans) {
  const dsp::fir_filter filter(dsp::design_lowpass_fir(11, 0.2));
  std::vector<float> buffer(32, 0.0f);
  std::vector<float> shorter(16, 0.0f);
  EXPECT_THROW(filter.apply(buffer, shorter), invalid_argument_error);
  EXPECT_THROW(
      filter.apply(buffer, std::span<float>(buffer.data(), buffer.size())),
      invalid_argument_error);
}

TEST(Ddc, RecoversSingleToneBaseband) {
  // Build a clean single-qubit baseband signal, up-convert it to 40 MHz,
  // then DDC back and compare (away from filter edges).
  auto device = qsim::single_qubit_test_preset();
  device.qubits[0].noise_sigma = 0.0;
  device.qubits[0].gain_jitter = 0.0;
  device.qubits[0].phase_jitter = 0.0;
  device.qubits[0].if_freq_mhz = 40.0;
  const qsim::readout_simulator sim(device);
  xoshiro256 rng(5);
  const auto shot = sim.simulate_shot(1, rng);
  const auto feedline = sim.multiplex_feedline(shot);

  const dsp::digital_down_converter ddc({.if_freq_mhz = 40.0});
  const auto recovered = ddc.convert(feedline, 500);
  ASSERT_EQ(recovered.size(), 1000u);
  for (std::size_t k = 150; k < 350; ++k) {  // away from edges/ring-up
    EXPECT_NEAR(recovered[k], shot.channels[0][k], 0.02) << "I sample " << k;
    EXPECT_NEAR(recovered[500 + k], shot.channels[0][500 + k], 0.02)
        << "Q sample " << k;
  }
}

TEST(Ddc, SuppressesNeighbourTone) {
  // Two tones 30 MHz apart; channelizing one must reject the other.
  auto device = qsim::lienhard5q_preset();
  device.qubits.resize(2);
  device.crosstalk = la::matrix_d();
  for (auto& q : device.qubits) {
    q.noise_sigma = 0.0;
    q.gain_jitter = 0.0;
    q.phase_jitter = 0.0;
  }
  device.qubits[0].if_freq_mhz = 10.0;
  device.qubits[1].if_freq_mhz = 40.0;
  const qsim::readout_simulator sim(device);
  xoshiro256 rng(6);
  // Qubit 0 in ground state both times; qubit 1 toggles. If the DDC rejects
  // qubit 1's tone, channel-0 output must not depend on qubit 1's state.
  const auto shot_a = sim.simulate_shot(0b00, rng);
  const auto shot_b = sim.simulate_shot(0b10, rng);
  const dsp::digital_down_converter ddc({.if_freq_mhz = 10.0});
  const auto chan_a = ddc.convert(sim.multiplex_feedline(shot_a), 500);
  const auto chan_b = ddc.convert(sim.multiplex_feedline(shot_b), 500);
  for (std::size_t k = 150; k < 350; ++k) {
    EXPECT_NEAR(chan_a[k], chan_b[k], 0.03) << "sample " << k;
  }
}

TEST(Ddc, ConvertAllPreservesLabels) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 2;
  spec.shots_per_permutation_test = 1;
  const auto feedline = qsim::build_multiplexed_dataset(spec, 2);
  const dsp::digital_down_converter ddc(
      {.if_freq_mhz = spec.device.qubits[2].if_freq_mhz});
  const auto channels = ddc.convert_all(feedline.train);
  ASSERT_EQ(channels.size(), feedline.train.size());
  for (std::size_t r = 0; r < channels.size(); ++r) {
    EXPECT_EQ(channels.label_state(r), feedline.train.label_state(r));
    EXPECT_EQ(channels.permutations()[r], feedline.train.permutations()[r]);
  }
  EXPECT_EQ(channels.labels().size(), channels.size());
  EXPECT_EQ(channels.permutations().size(), channels.size());
}

TEST(Ddc, ValidatesConfig) {
  EXPECT_THROW(dsp::digital_down_converter(
                   {.if_freq_mhz = 10.0, .cutoff_mhz = 300.0}),
               invalid_argument_error);
  const dsp::digital_down_converter ddc({.if_freq_mhz = 10.0});
  std::vector<float> wrong(300);
  EXPECT_THROW(ddc.convert(wrong, 500), invalid_argument_error);
}

}  // namespace
