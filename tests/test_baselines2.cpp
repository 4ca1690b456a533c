// Tests for the HMM and SVM baselines and the DDC-related dataset builders.
#include <gtest/gtest.h>

#include <cstring>

#include "klinq/baselines/hmm.hpp"
#include "klinq/baselines/mf_threshold.hpp"
#include "klinq/baselines/svm.hpp"
#include "klinq/dsp/matched_filter.hpp"
#include "klinq/qsim/dataset_builder.hpp"

namespace {

using namespace klinq;

/// Easy qubit (no decay): sanity floor for all classical methods.
const qsim::qubit_dataset& easy_data() {
  static const qsim::qubit_dataset data = [] {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 400;
    spec.shots_per_permutation_test = 300;
    spec.seed = 55;
    return qsim::build_qubit_dataset(spec, 0);
  }();
  return data;
}

/// Decay-heavy qubit: T1 comparable to the trace, where temporal models
/// (HMM) must beat static integration (MF threshold).
const qsim::qubit_dataset& decay_data() {
  static const qsim::qubit_dataset data = [] {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.device.qubits[0].t1_ns = 2000.0;  // 40 % of shots decay mid-trace
    spec.device.qubits[0].ground = {1.6, 1.2};
    spec.device.qubits[0].excited = {2.4, 1.2};
    spec.shots_per_permutation_train = 400;
    spec.shots_per_permutation_test = 400;
    spec.seed = 56;
    return qsim::build_qubit_dataset(spec, 0);
  }();
  return data;
}

TEST(Hmm, HighAccuracyOnEasyQubit) {
  const auto model = baselines::hmm_discriminator::fit(easy_data().train);
  EXPECT_GT(model.accuracy(easy_data().test), 0.98);
  EXPECT_EQ(model.name(), "hmm");
}

TEST(Hmm, BeatsNaiveIntegratorUnderHeavyDecay) {
  const auto hmm = baselines::hmm_discriminator::fit(decay_data().train);
  const double hmm_acc = hmm.accuracy(decay_data().test);

  // Naive full-trace integrator: uniform envelope along the mean difference
  // (a matched filter that ignores the decay statistics). The mean/var
  // envelope of dsp::matched_filter down-weights late samples automatically
  // — the HMM must clearly beat the *naive* integrator, and stay within a
  // couple points of the decay-aware linear filter.
  const auto& train = decay_data().train;
  const auto rows0 = train.rows_with_label(false);
  const auto rows1 = train.rows_with_label(true);
  std::vector<float> envelope(train.feature_width(), 0.0f);
  for (const auto r : rows0) {
    const auto t = train.trace(r);
    for (std::size_t c = 0; c < t.size(); ++c) {
      envelope[c] += t[c] / static_cast<float>(rows0.size());
    }
  }
  for (const auto r : rows1) {
    const auto t = train.trace(r);
    for (std::size_t c = 0; c < t.size(); ++c) {
      envelope[c] -= t[c] / static_cast<float>(rows1.size());
    }
  }
  const dsp::matched_filter naive{std::vector<float>(envelope)};
  const float threshold = naive.fit_threshold(train);
  std::size_t correct = 0;
  const auto& test = decay_data().test;
  for (std::size_t r = 0; r < test.size(); ++r) {
    const bool predicted = !naive.classify_as_ground(test.trace(r), threshold);
    correct += (predicted == test.label_state(r)) ? 1 : 0;
  }
  const double naive_acc = static_cast<double>(correct) / test.size();
  EXPECT_GT(hmm_acc, naive_acc + 0.02);

  const auto weighted =
      baselines::mf_threshold_discriminator::fit(decay_data().train);
  EXPECT_GT(hmm_acc, weighted.accuracy(decay_data().test) - 0.05);
}

TEST(Hmm, SurvivalProbabilityTracksT1) {
  const auto model = baselines::hmm_discriminator::fit(decay_data().train);
  // Per-step decay probability: step = 5 samples = 10 ns, T1 = 2 µs ⇒
  // survival ≈ exp(−10/2000) ≈ 0.995.
  EXPECT_NEAR(model.survival_probability(), std::exp(-10.0 / 2000.0), 0.003);
}

TEST(Hmm, LlrSeparatesClasses) {
  const auto model = baselines::hmm_discriminator::fit(easy_data().train);
  const auto& test = easy_data().test;
  double mean0 = 0.0;
  double mean1 = 0.0;
  std::size_t n0 = 0;
  std::size_t n1 = 0;
  // Rows are permutation-major: walk the whole set to see both classes.
  for (std::size_t r = 0; r < test.size(); ++r) {
    const double llr = model.log_likelihood_ratio(test.trace(r));
    if (test.label_state(r)) {
      mean1 += llr;
      ++n1;
    } else {
      mean0 += llr;
      ++n0;
    }
  }
  ASSERT_GT(n0, 0u);
  ASSERT_GT(n1, 0u);
  EXPECT_GT(mean1 / n1, mean0 / n0);
}

TEST(Hmm, ConfiguredSurvivalOverridesFit) {
  baselines::hmm_config config;
  config.survival_probability = 0.9;
  const auto model =
      baselines::hmm_discriminator::fit(easy_data().train, config);
  EXPECT_DOUBLE_EQ(model.survival_probability(), 0.9);
}

TEST(Hmm, ParameterCountMatchesSteps) {
  const auto model = baselines::hmm_discriminator::fit(easy_data().train);
  // 500 samples / 5 per step = 100 steps; 4 means per step + 3 scalars.
  EXPECT_EQ(model.step_count(), 100u);
  EXPECT_EQ(model.parameter_count(), 403u);
}

TEST(Hmm, RejectsWrongTraceWidth) {
  const auto model = baselines::hmm_discriminator::fit(easy_data().train);
  const std::vector<float> wrong(500, 0.0f);
  EXPECT_THROW(model.predict_state(wrong), invalid_argument_error);
}

TEST(Svm, HighAccuracyOnEasyQubit) {
  const auto model = baselines::svm_discriminator::fit(easy_data().train);
  EXPECT_GT(model.accuracy(easy_data().test), 0.98);
  EXPECT_EQ(model.name(), "svm");
  EXPECT_EQ(model.parameter_count(), 31u);  // 30 weights + bias
}

TEST(Svm, DecisionValueSignMatchesPrediction) {
  const auto model = baselines::svm_discriminator::fit(easy_data().train);
  const auto& test = easy_data().test;
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(model.predict_state(test.trace(r)),
              model.decision_value(test.trace(r)) >= 0.0);
  }
}

TEST(Svm, LambdaValidation) {
  baselines::svm_config config;
  config.lambda = 0.0;
  EXPECT_THROW(baselines::svm_discriminator::fit(easy_data().train, config),
               invalid_argument_error);
}

TEST(MultichannelDataset, ConcatenatesChannelsInOrder) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 1;
  spec.shots_per_permutation_test = 1;
  spec.seed = 60;
  const std::vector<std::size_t> channels{1, 0, 2};
  const auto multi = qsim::build_multichannel_dataset(spec, 1, channels);
  EXPECT_EQ(multi.train.feature_width(), 3u * 1000u);

  // Block c of row r must be bit for bit channel channels[c] of the same
  // shot, i.e. the single-channel dataset's row r for that qubit.
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const auto single = qsim::build_qubit_dataset(spec, channels[c]);
    for (std::size_t r = 0; r < multi.train.size(); ++r) {
      ASSERT_EQ(std::memcmp(multi.train.trace(r).data() + c * 1000,
                            single.train.trace(r).data(), 1000 * sizeof(float)),
                0)
          << "block " << c << " row " << r;
      EXPECT_EQ(multi.train.label_state(r),
                ((multi.train.permutations()[r] >> 1) & 1u) != 0);
    }
  }

  // A channel listed twice fills both blocks with the same samples.
  const auto twice = qsim::build_multichannel_dataset(spec, 2, {2, 2});
  for (std::size_t r = 0; r < twice.test.size(); ++r) {
    ASSERT_EQ(std::memcmp(twice.test.trace(r).data(),
                          twice.test.trace(r).data() + 1000,
                          1000 * sizeof(float)),
              0);
  }
}

TEST(MultichannelDataset, ValidatesInputs) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  spec.shots_per_permutation_train = 1;
  spec.shots_per_permutation_test = 1;
  EXPECT_THROW(qsim::build_multichannel_dataset(spec, 0, {9}),
               invalid_argument_error);
  EXPECT_THROW(qsim::build_multichannel_dataset(spec, 0, {}),
               invalid_argument_error);
}

}  // namespace
