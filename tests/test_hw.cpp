// Tests for the hardware model: fixed-point inference vs float reference,
// cycle-accurate latency (Table III), resource estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "klinq/common/rng.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/fixed/fixed_kernels.hpp"
#include "klinq/hw/cycle_model.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/hw/fixed_frontend.hpp"
#include "klinq/hw/quantized_network.hpp"
#include "klinq/hw/report.hpp"
#include "klinq/hw/resource_model.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/qsim/dataset_builder.hpp"

namespace {

using namespace klinq;
using fx::q16_16;
using fx::q8_8;

const qsim::qubit_dataset& tiny_data() {
  static const qsim::qubit_dataset data = [] {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 400;
    spec.shots_per_permutation_test = 300;
    spec.seed = 9;
    return qsim::build_qubit_dataset(spec, 0);
  }();
  return data;
}

const kd::student_model& tiny_student() {
  static const kd::student_model student = [] {
    kd::student_config config;
    config.groups_per_quadrature = 15;
    config.epochs = 25;
    config.seed = 4;
    return kd::distill_student(tiny_data().train, {}, config);
  }();
  return student;
}

// ---------------------------------------------------------------------------
// Quantized network numerics
// ---------------------------------------------------------------------------

TEST(QuantizedNetwork, MatchesFloatOnSmallNet) {
  xoshiro256 rng(1);
  auto net = nn::make_mlp(4, {6, 3});
  net.initialize(nn::weight_init::he_normal, rng);
  const hw::quantized_network<q16_16> fixed_net(net);
  EXPECT_EQ(fixed_net.input_dim(), 4u);
  EXPECT_EQ(fixed_net.parameter_count(), net.parameter_count());

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> input(4);
    for (auto& v : input) v = static_cast<float>(rng.uniform(-3, 3));
    std::vector<q16_16> fixed_input;
    for (const float v : input) fixed_input.push_back(q16_16::from_double(v));
    const float float_logit = net.predict_logit(input);
    const double fixed_logit = fixed_net.forward_logit(fixed_input).to_double();
    EXPECT_NEAR(fixed_logit, float_logit, 0.01)
        << "trial " << trial;
  }
}

TEST(QuantizedNetwork, ReluZeroesNegativePreactivations) {
  // Single neuron with weight −1: positive input ⇒ negative pre-activation
  // ⇒ ReLU outputs zero ⇒ final logit equals the output layer bias.
  nn::network net(1, {{1, nn::activation::relu}, {1, nn::activation::identity}});
  net.layer(0).weights()(0, 0) = -1.0f;
  net.layer(0).bias()[0] = 0.0f;
  net.layer(1).weights()(0, 0) = 1.0f;
  net.layer(1).bias()[0] = 0.25f;
  const hw::quantized_network<q16_16> fixed_net(net);
  const std::vector<q16_16> input{q16_16::from_double(2.0)};
  EXPECT_DOUBLE_EQ(fixed_net.forward_logit(input).to_double(), 0.25);
}

TEST(QuantizedNetwork, SaturatesInsteadOfWrapping) {
  // Huge weights drive the accumulator past the Q16.16 rail; the activation
  // stage must clamp, not wrap to negative.
  nn::network net(2, {{1, nn::activation::identity}});
  net.layer(0).weights()(0, 0) = 30000.0f;
  net.layer(0).weights()(0, 1) = 30000.0f;
  net.layer(0).bias()[0] = 0.0f;
  const hw::quantized_network<q16_16> fixed_net(net);
  const std::vector<q16_16> input{q16_16::from_double(2.0),
                                  q16_16::from_double(2.0)};
  const q16_16 logit = fixed_net.forward_logit(input);
  EXPECT_TRUE(logit.is_saturated());
  EXPECT_FALSE(logit.sign_bit());
}

TEST(QuantizedNetwork, PredictStateIsSignBit) {
  nn::network net(1, {{1, nn::activation::identity}});
  net.layer(0).weights()(0, 0) = 1.0f;
  net.layer(0).bias()[0] = 0.0f;
  const hw::quantized_network<q16_16> fixed_net(net);
  EXPECT_TRUE(fixed_net.predict_state(
      std::vector<q16_16>{q16_16::from_double(0.5)}));
  EXPECT_FALSE(fixed_net.predict_state(
      std::vector<q16_16>{q16_16::from_double(-0.5)}));
}

// ---------------------------------------------------------------------------
// Fixed front-end
// ---------------------------------------------------------------------------

TEST(FixedFrontend, MatchesFloatPipelineClosely) {
  const auto& student = tiny_student();
  const auto& test = tiny_data().test;
  const hw::fixed_frontend<q16_16> frontend(student.pipeline());
  ASSERT_EQ(frontend.output_width(), student.pipeline().output_width());

  std::vector<float> float_features(student.pipeline().output_width());
  std::vector<q16_16> fixed_features(frontend.output_width());
  const std::size_t n = test.samples_per_quadrature();
  for (std::size_t r = 0; r < 50; ++r) {
    student.pipeline().extract(test.trace(r), n, float_features);
    const auto quantized =
        hw::fixed_frontend<q16_16>::quantize_trace(test.trace(r));
    frontend.extract(quantized, n, fixed_features);
    for (std::size_t c = 0; c < float_features.size(); ++c) {
      EXPECT_NEAR(fixed_features[c].to_double(), float_features[c], 0.02)
          << "row " << r << " feature " << c;
    }
  }
}

TEST(FixedFrontend, RequiresPow2Normalization) {
  kd::student_config config;
  config.groups_per_quadrature = 15;
  config.normalization = dsp::norm_mode::exact;
  config.epochs = 2;
  const auto student = kd::distill_student(tiny_data().train, {}, config);
  EXPECT_THROW(hw::fixed_frontend<q16_16>(student.pipeline()),
               invalid_argument_error);
}

TEST(FixedFrontend, RejectsWrongDuration) {
  const auto& student = tiny_student();
  const hw::fixed_frontend<q16_16> frontend(student.pipeline());
  // Envelope fitted at 500 samples; a 250-sample trace must be rejected.
  std::vector<q16_16> short_trace(500, q16_16::zero());
  std::vector<q16_16> out(frontend.output_width());
  EXPECT_THROW(frontend.extract(short_trace, 250, out),
               invalid_argument_error);
}

/// extract_trace at every sweep tier (the pinned sweep runs only with MF)
/// and extract_raw, feature for feature against the fixed<I,F> reference
/// extract().
void expect_fast_paths_match_reference(
    const hw::fixed_frontend<q16_16>& frontend, std::span<const float> trace,
    std::size_t n, const std::string& what) {
  const auto quantized = hw::fixed_frontend<q16_16>::quantize_trace(trace);
  std::vector<q16_16> expected(frontend.output_width());
  frontend.extract(quantized, n, expected);
  std::vector<std::pair<const char*,
                        hw::fixed_frontend<q16_16>::sweep_kernel>>
      sweeps = {{"scalar64", fx::kernels::scalar64::quantize_mac_row},
                {"dispatched", fx::kernels::quantize_mac_row}};
  if (fx::kernels::avx2_available()) {
    sweeps.emplace_back("avx2", fx::kernels::avx2::quantize_mac_row);
  }
  if (fx::kernels::avx512_available()) {
    sweeps.emplace_back("avx512", fx::kernels::avx512::quantize_mac_row);
  }
  hw::frontend_scratch scratch;
  std::vector<std::int32_t> actual(frontend.output_width());
  for (const auto& [name, sweep] : sweeps) {
    frontend.extract_trace(trace, n, scratch, actual.data(), 1, sweep);
    for (std::size_t c = 0; c < expected.size(); ++c) {
      ASSERT_EQ(actual[c], expected[c].raw())
          << what << " extract_trace/" << name << " feature " << c;
    }
  }
  std::vector<std::int32_t> row(trace.size());
  hw::fixed_frontend<q16_16>::quantize_trace_raw(trace, row);
  frontend.extract_raw(row, n, actual.data(), 1);
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(actual[c], expected[c].raw())
        << what << " extract_raw feature " << c;
  }
}

// The NORM corners on purpose: with G = 125 every group holds 4 samples and
// its reciprocal 0.25 is exact, so a group of 4 equal samples averages to
// exactly their register. That steers each AVG feature onto chosen
// (x - x_min) values: rounding ties of both signs under right shifts, and
// the saturation edge under left shifts.
TEST(FixedFrontend, ExtractTraceMatchesReferenceOnNormTiesAndRails) {
  constexpr std::size_t n = 500;
  constexpr std::size_t groups = 125;
  // Group g's samples spread by 2^((g % 9) - 4), so the fitted NORM
  // exponents span both signs.
  data::trace_dataset train(64, n);
  xoshiro256 rng(21);
  std::vector<float> trace(2 * n);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t i = 0; i < 2 * n; ++i) {
      const std::size_t g = (i % n) / (n / groups);
      const double spread = std::ldexp(1.0, static_cast<int>(g % 9) - 4);
      trace[i] = static_cast<float>((r % 2 == 0 ? 0.01 : -0.01) +
                                    spread * rng.uniform(-1.0, 1.0));
    }
    train.append(trace, r % 2 == 0);
  }
  const auto pipeline = dsp::feature_pipeline::fit(
      train, {.groups_per_quadrature = groups});
  const hw::fixed_frontend<q16_16> frontend(pipeline);
  const auto shifts = pipeline.normalizer().shift_exponents();
  ASSERT_LT(*std::min_element(shifts.begin(), shifts.end()), 0);
  ASSERT_GT(*std::max_element(shifts.begin(), shifts.end()), 0);

  for (int variant = -4; variant < 4; ++variant) {
    for (std::size_t c = 0; c < 2 * groups; ++c) {
      const std::int64_t x_min =
          q16_16::from_double(pipeline.normalizer().x_min()[c]).raw();
      const int k = shifts[c];
      float value;
      if (k > 0) {
        // An odd multiple of half a step: a tie, below x_min for negative
        // variants.
        const std::int64_t target =
            x_min + (2 * variant + 1) * (std::int64_t{1} << (k - 1));
        value = static_cast<float>(
            std::ldexp(static_cast<double>(target), -q16_16::frac_bits));
      } else {
        // The floats next to x_min +- (raw_max >> -k), the largest
        // |x - x_min| the left shift keeps off the rails: odd variants step
        // past it, even ones stay inside.
        const std::int64_t edge = q16_16::raw_max >> -k;
        const std::int64_t target = x_min + (variant < 0 ? -edge : edge);
        const float inside = static_cast<float>(
            std::ldexp(static_cast<double>(target), -q16_16::frac_bits));
        const float x_min_value = pipeline.normalizer().x_min()[c];
        value = variant % 2 != 0
                    ? std::nextafter(inside, variant < 0 ? -1e9f : 1e9f)
                    : std::nextafter(inside, x_min_value);
      }
      const std::size_t quadrature = c / groups;
      const std::size_t first = quadrature * n + (c % groups) * (n / groups);
      std::fill_n(trace.begin() + static_cast<std::ptrdiff_t>(first),
                  n / groups, value);
    }
    expect_fast_paths_match_reference(frontend, trace, n,
                                      "variant " + std::to_string(variant));
  }
  // Rails everywhere: every group, the MF MAC and the NORM saturate.
  for (const float rail : {1e9f, -1e9f}) {
    std::fill(trace.begin(), trace.end(), rail);
    expect_fast_paths_match_reference(frontend, trace, n, "rail");
  }
}

// The prefix-sum AVG on rows that push it to its extremes: every sample on
// one rail (the prefix sums reach +-2^31 * 2N), alternating rails, and
// noise, at G in {1, 7, 15, 100, N} over a prime N (N % G != 0, and groups
// of one sample at G = 100 and G = N), with and without MF.
TEST(FixedFrontend, PrefixSumAvgMatchesReferenceOnAdversarialRows) {
  constexpr std::size_t n = 103;
  data::trace_dataset train(64, n);
  xoshiro256 rng(5);
  std::vector<float> trace(2 * n);
  for (std::size_t r = 0; r < 64; ++r) {
    for (float& value : trace) {
      value = static_cast<float>((r % 2 == 0 ? 0.02 : -0.02) +
                                 rng.uniform(-0.05, 0.05));
    }
    train.append(trace, r % 2 == 0);
  }
  std::vector<std::pair<std::string, std::vector<float>>> rows;
  rows.emplace_back("raw_max", std::vector<float>(2 * n, 1e9f));
  rows.emplace_back("raw_min", std::vector<float>(2 * n, -1e9f));
  std::vector<float> alternating(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    alternating[i] = i % 2 == 0 ? 1e9f : -1e9f;
  }
  rows.emplace_back("alternating", alternating);
  rows.emplace_back("noise", std::vector<float>(train.trace(1).begin(),
                                                train.trace(1).end()));
  for (const bool mf : {true, false}) {
    for (const std::size_t groups : {std::size_t{1}, std::size_t{7},
                                     std::size_t{15}, std::size_t{100}, n}) {
      const hw::fixed_frontend<q16_16> frontend(dsp::feature_pipeline::fit(
          train, {.groups_per_quadrature = groups, .use_matched_filter = mf}));
      for (const auto& [name, row] : rows) {
        expect_fast_paths_match_reference(
            frontend, row, n,
            name + " G=" + std::to_string(groups) + (mf ? " MF" : " no MF"));
      }
    }
  }
}

// Without MF no envelope pins the duration, so the AVG plan lives in the
// caller's scratch (extract_trace) or the thread (extract_raw). One scratch
// shared by front ends of different G, at two durations, must still
// reproduce each front end's reference features.
TEST(FixedFrontend, ExtractTraceWithoutMfSharesScratchAcrossShapes) {
  const auto& data = tiny_data();
  std::vector<hw::fixed_frontend<q16_16>> frontends;
  for (const std::size_t groups : {7, 15}) {
    frontends.emplace_back(dsp::feature_pipeline::fit(
        data.train,
        {.groups_per_quadrature = groups, .use_matched_filter = false}));
  }
  const std::size_t full = data.test.samples_per_quadrature();
  hw::frontend_scratch scratch;
  for (std::size_t r = 0; r < 4; ++r) {
    for (const std::size_t n : {full, full / 2}) {
      // The first n samples of each quadrature.
      const auto trace = data.test.trace(r);
      std::vector<float> cut(trace.begin(),
                             trace.begin() + static_cast<std::ptrdiff_t>(n));
      cut.insert(cut.end(),
                 trace.begin() + static_cast<std::ptrdiff_t>(full),
                 trace.begin() + static_cast<std::ptrdiff_t>(full + n));
      for (const auto& frontend : frontends) {
        const std::string what =
            "G=" + std::to_string(frontend.groups_per_quadrature()) +
            " n=" + std::to_string(n);
        std::vector<q16_16> expected(frontend.output_width());
        frontend.extract(hw::fixed_frontend<q16_16>::quantize_trace(cut), n,
                         expected);
        std::vector<std::int32_t> actual(frontend.output_width());
        frontend.extract_trace(cut, n, scratch, actual.data(), 1);
        for (std::size_t c = 0; c < expected.size(); ++c) {
          ASSERT_EQ(actual[c], expected[c].raw())
              << what << " extract_trace feature " << c;
        }
        std::vector<std::int32_t> row(cut.size());
        hw::fixed_frontend<q16_16>::quantize_trace_raw(cut, row);
        frontend.extract_raw(row, n, actual.data(), 1);
        for (std::size_t c = 0; c < expected.size(); ++c) {
          ASSERT_EQ(actual[c], expected[c].raw())
              << what << " extract_raw feature " << c;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end fixed discriminator
// ---------------------------------------------------------------------------

TEST(FixedDiscriminator, AccuracyMatchesFloatModel) {
  const auto& student = tiny_student();
  const auto& test = tiny_data().test;
  const hw::fixed_discriminator<q16_16> hw_model(student);
  const double float_acc = student.accuracy(test);
  const double fixed_acc = hw_model.accuracy(test);
  // Paper claim: Q16.16 maintains discrimination accuracy.
  EXPECT_NEAR(fixed_acc, float_acc, 0.005);
  EXPECT_GT(hw_model.agreement_with_float(student, test), 0.995);
}

TEST(FixedDiscriminator, NarrowFormatDegrades) {
  const auto& student = tiny_student();
  const auto& test = tiny_data().test;
  const hw::fixed_discriminator<q16_16> wide(student);
  const hw::fixed_discriminator<q8_8> narrow(student);
  // Q8.8 saturates on the MF accumulation → agreement drops measurably.
  EXPECT_LE(narrow.agreement_with_float(student, test),
            wide.agreement_with_float(student, test));
}

// ---------------------------------------------------------------------------
// Fast path vs the fixed<I,F> reference: every discriminator entry point
// ---------------------------------------------------------------------------

/// The reference datapath: fixed<I,F> quantize_trace + extract, then the
/// network's forward_logit.
template <class Fixed>
Fixed reference_logit(const hw::fixed_discriminator<Fixed>& engine,
                      std::span<const float> trace, std::size_t n) {
  const auto quantized = hw::fixed_frontend<Fixed>::quantize_trace(trace);
  std::vector<Fixed> features(engine.frontend().output_width());
  engine.frontend().extract(quantized, n, features);
  return engine.net().forward_logit(features);
}

/// A copy of `test` with every sample times `scale`, plus (with
/// `rail_shots`) shots that drive every stage onto its rails: samples at
/// ±1e9, ±inf and NaN, and whole traces beyond the Q16.16 range, so the AVG
/// trees, the MF MAC and the NORM shifts all saturate somewhere.
data::trace_dataset scaled_copy(const data::trace_dataset& test, float scale,
                                bool rail_shots) {
  data::trace_dataset out(test.size() + 8, test.samples_per_quadrature());
  std::vector<float> trace(test.feature_width());
  for (std::size_t r = 0; r < test.size(); ++r) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i] = test.trace(r)[i] * scale;
    }
    out.append(trace, test.label_state(r));
  }
  if (!rail_shots) return out;
  const float specials[] = {1e9f, -1e9f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const float base = test.trace(k)[i] * scale;
      if (k < 2) {
        trace[i] = k == 0 ? 40000.0f : -40000.0f;  // every group saturates
      } else if (i % (k + 3) == 0) {
        trace[i] = specials[(i + k) % 5];
      } else {
        trace[i] = base;
      }
    }
    out.append(trace, k % 2 == 0);
  }
  return out;
}

struct frontend_case {
  std::size_t groups;
  bool matched_filter;
  float scale;  // trace gain: large gains give positive NORM shifts
};

TEST(FixedDiscriminator, FastPathEqualsReferenceAtEveryCallShape) {
  const auto& data = tiny_data();
  const std::size_t n = data.test.samples_per_quadrature();
  ASSERT_EQ(n, 500u);
  // G = 7 does not divide N = 500: groups of 71 and 72 samples.
  const frontend_case cases[] = {
      {15, true, 1.0f}, {100, true, 1.0f}, {7, true, 1.0f}, {7, false, 1.0f},
      {15, false, 2048.0f}};
  bool negative_shift = false;
  bool positive_shift = false;
  for (const frontend_case& fc : cases) {
    SCOPED_TRACE("G=" + std::to_string(fc.groups) +
                 " mf=" + std::to_string(fc.matched_filter) +
                 " scale=" + std::to_string(fc.scale));
    const data::trace_dataset train = scaled_copy(data.train, fc.scale, false);
    const data::trace_dataset test = scaled_copy(data.test, fc.scale, true);
    kd::student_config config;
    config.groups_per_quadrature = fc.groups;
    config.use_matched_filter = fc.matched_filter;
    config.epochs = 2;
    const auto student = kd::distill_student(train, {}, config);
    for (const int k : student.pipeline().normalizer().shift_exponents()) {
      negative_shift |= k < 0;
      positive_shift |= k > 0;
    }
    const hw::fixed_discriminator<q16_16> engine(student);

    std::vector<std::int64_t> expected(test.size());
    for (std::size_t r = 0; r < test.size(); ++r) {
      expected[r] = reference_logit(engine, test.trace(r), n).raw();
    }

    hw::discriminator_scratch<q16_16> scratch;
    for (std::size_t r = 0; r < test.size(); ++r) {
      ASSERT_EQ(engine.logit(test.trace(r), n, scratch).raw(), expected[r])
          << "logit row " << r;
    }
    // Every split of a tile into whole 8-lane blocks (tile kernel) and a
    // ragged rest (row kernel): rest only, blocks only, both, and tiles of
    // 64 followed by a ragged or a whole-block tail.
    for (const std::size_t size : {1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 63,
                                   64, 65, 71, 72}) {
      std::vector<q16_16> out(test.size());
      for (std::size_t b = 0; b < test.size(); b += size) {
        const std::size_t e = std::min(test.size(), b + size);
        engine.logits_block(test, b, e, std::span(out).subspan(b, e - b),
                            scratch);
      }
      for (std::size_t r = 0; r < test.size(); ++r) {
        ASSERT_EQ(out[r].raw(), expected[r])
            << "logits_block size " << size << " row " << r;
      }
    }
    // A block at an odd row_begin: a full tile, then 8 + 3 shots.
    constexpr std::size_t odd_begin = 5;
    constexpr std::size_t odd_size = 75;
    ASSERT_GE(test.size(), odd_begin + odd_size);
    std::vector<q16_16> odd_out(odd_size);
    engine.logits_block(test, odd_begin, odd_begin + odd_size, odd_out,
                        scratch);
    for (std::size_t s = 0; s < odd_size; ++s) {
      ASSERT_EQ(odd_out[s].raw(), expected[odd_begin + s])
          << "logits_block from row " << odd_begin << " shot " << s;
    }
  }
  EXPECT_TRUE(negative_shift);
  EXPECT_TRUE(positive_shift);
}

// ---------------------------------------------------------------------------
// Cycle model (Table III latencies)
// ---------------------------------------------------------------------------

TEST(CycleModel, PaperCalibratedReproducesTable3) {
  const auto lat_a = hw::compute_latency(hw::fnn_a_datapath(),
                                         hw::latency_mode::paper_calibrated);
  EXPECT_EQ(lat_a.stage_cycles("MF"), 11u);
  EXPECT_EQ(lat_a.stage_cycles("AVG&NORM"), 9u);
  EXPECT_EQ(lat_a.stage_cycles("Network"), 12u);
  EXPECT_EQ(lat_a.total_serial_cycles, 32u);

  const auto lat_b = hw::compute_latency(hw::fnn_b_datapath(),
                                         hw::latency_mode::paper_calibrated);
  EXPECT_EQ(lat_b.stage_cycles("MF"), 11u);
  EXPECT_EQ(lat_b.stage_cycles("AVG&NORM"), 6u);
  EXPECT_EQ(lat_b.stage_cycles("Network"), 15u);
  EXPECT_EQ(lat_b.total_serial_cycles, 32u);
}

TEST(CycleModel, BothConfigsCoincideAt32ns) {
  // The paper highlights that both configurations "coincidentally" land on
  // the same 32 ns total — structural property of the calibrated model.
  const auto a = hw::compute_latency(hw::fnn_a_datapath(),
                                     hw::latency_mode::paper_calibrated);
  const auto b = hw::compute_latency(hw::fnn_b_datapath(),
                                     hw::latency_mode::paper_calibrated);
  EXPECT_EQ(a.total_serial_cycles, b.total_serial_cycles);
  EXPECT_DOUBLE_EQ(a.serial_ns(), 32.0);
}

TEST(CycleModel, LatencyConstantAcrossAcceptedDurations) {
  // §V-D: latency is fixed at synthesis; hardware built for the 1 µs config
  // accepts every shorter Table-II duration (550 ns = 275 samples, etc.)
  // without re-synthesis, so the 32-cycle figure holds across durations.
  const auto config_a = hw::fnn_a_datapath(500);
  const auto config_b = hw::fnn_b_datapath(500);
  for (const std::size_t runtime_samples : {475u, 375u, 275u, 250u}) {
    EXPECT_TRUE(hw::supports_runtime_duration(config_a, runtime_samples));
    EXPECT_TRUE(hw::supports_runtime_duration(config_b, runtime_samples));
  }
  EXPECT_EQ(hw::compute_latency(config_a, hw::latency_mode::paper_calibrated)
                .total_serial_cycles,
            32u);
  // A trace shorter than one sample per FNN-B group is rejected.
  EXPECT_THROW(hw::supports_runtime_duration(config_b, 50),
               invalid_argument_error);
}

TEST(CycleModel, AnalyticModeIsUpperBound) {
  for (const auto& config : {hw::fnn_a_datapath(), hw::fnn_b_datapath()}) {
    const auto analytic =
        hw::compute_latency(config, hw::latency_mode::analytic);
    const auto calibrated =
        hw::compute_latency(config, hw::latency_mode::paper_calibrated);
    EXPECT_GE(analytic.total_serial_cycles, calibrated.total_serial_cycles);
  }
}

TEST(CycleModel, CriticalPathShorterThanSerialSum) {
  const auto lat = hw::compute_latency(hw::fnn_a_datapath(),
                                       hw::latency_mode::paper_calibrated);
  // MF (11) and AVG&NORM (9) overlap: critical path = 11 + 12 = 23.
  EXPECT_EQ(lat.total_critical_path_cycles, 23u);
  EXPECT_LT(lat.total_critical_path_cycles, lat.total_serial_cycles);
}

TEST(CycleModel, AdderTreeDepthDrivesNetworkGap) {
  // Network latency difference B − A = ⌈log2 201⌉ − ⌈log2 31⌉ = 3.
  const auto a = hw::compute_latency(hw::fnn_a_datapath(),
                                     hw::latency_mode::paper_calibrated);
  const auto b = hw::compute_latency(hw::fnn_b_datapath(),
                                     hw::latency_mode::paper_calibrated);
  EXPECT_EQ(b.stage_cycles("Network") - a.stage_cycles("Network"), 3u);
}

TEST(CycleModel, UnknownStageThrows) {
  const auto lat = hw::compute_latency(hw::fnn_a_datapath(),
                                       hw::latency_mode::paper_calibrated);
  EXPECT_THROW(lat.stage_cycles("DMA"), invalid_argument_error);
}

// ---------------------------------------------------------------------------
// Resource model (Table III utilization)
// ---------------------------------------------------------------------------

TEST(ResourceModel, MfDspMatchesPaper) {
  const auto est = hw::estimate_mf(hw::fnn_a_datapath());
  EXPECT_EQ(est.dsp, 375u);  // paper: 375 DSP for the shared MF
  // LUT/FF within 20 % of the paper's 27180 / 24052.
  EXPECT_NEAR(static_cast<double>(est.lut), 27180.0, 0.2 * 27180.0);
  EXPECT_NEAR(static_cast<double>(est.ff), 24052.0, 0.2 * 24052.0);
}

TEST(ResourceModel, AvgNormUsesZeroDsp) {
  // Shift-based normalization: no DSP blocks, by construction.
  EXPECT_EQ(hw::estimate_avg_norm(hw::fnn_a_datapath()).dsp, 0u);
  EXPECT_EQ(hw::estimate_avg_norm(hw::fnn_b_datapath()).dsp, 0u);
}

TEST(ResourceModel, AvgNormLutNearPaper) {
  const auto est_a = hw::estimate_avg_norm(hw::fnn_a_datapath());
  const auto est_b = hw::estimate_avg_norm(hw::fnn_b_datapath());
  EXPECT_NEAR(static_cast<double>(est_a.lut), 17770.0, 0.15 * 17770.0);
  EXPECT_NEAR(static_cast<double>(est_b.lut), 19600.0, 0.15 * 19600.0);
}

TEST(ResourceModel, NetworkBCostsRoughlyFourTimesA) {
  const auto est_a = hw::estimate_network(hw::fnn_a_datapath());
  const auto est_b = hw::estimate_network(hw::fnn_b_datapath());
  EXPECT_GT(est_b.dsp, 3 * est_a.dsp);
  EXPECT_LT(est_b.dsp, 8 * est_a.dsp);
  EXPECT_GT(est_b.lut, est_a.lut);
  EXPECT_GT(est_b.ff, est_a.ff);
}

TEST(ResourceModel, NetworkDspNearPaper) {
  // Paper: 55 (FNN-A) and 226 (FNN-B); model lands within ±30 %.
  const auto est_a = hw::estimate_network(hw::fnn_a_datapath());
  const auto est_b = hw::estimate_network(hw::fnn_b_datapath());
  EXPECT_NEAR(static_cast<double>(est_a.dsp), 55.0, 0.3 * 55.0);
  EXPECT_NEAR(static_cast<double>(est_b.dsp), 226.0, 0.3 * 226.0);
}

TEST(ResourceModel, UtilizationPercentages) {
  EXPECT_DOUBLE_EQ(hw::utilization_pct(100, 1000), 10.0);
  EXPECT_THROW(hw::utilization_pct(1, 0), invalid_argument_error);
  // MF DSP share of the ZCU216: paper says 8.78 %.
  const auto est = hw::estimate_mf(hw::fnn_a_datapath());
  const hw::device_capacity capacity;
  EXPECT_NEAR(hw::utilization_pct(est.dsp, capacity.dsp), 8.78, 0.3);
}

TEST(Report, BuildsAllRowsAndTotals) {
  const auto report = hw::build_utilization_report();
  ASSERT_EQ(report.rows.size(), 5u);
  EXPECT_EQ(report.total_cycles_fnn_a, 32u);
  EXPECT_EQ(report.total_cycles_fnn_b, 32u);
  std::ostringstream out;
  hw::print_utilization_report(report, out);
  EXPECT_NE(out.str().find("MF (shared)"), std::string::npos);
  EXPECT_NE(out.str().find("End-to-end latency"), std::string::npos);
}

}  // namespace
