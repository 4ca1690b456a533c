// Tests for the core public API: presets, fidelity metrics, discriminator,
// cache, workflow, and the end-to-end system facade.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "klinq/core/cache.hpp"
#include "klinq/core/fidelity.hpp"
#include "klinq/core/presets.hpp"
#include "klinq/core/qubit_discriminator.hpp"
#include "klinq/core/system.hpp"
#include "klinq/core/workflow.hpp"

namespace {

using namespace klinq;

TEST(Presets, QubitArchitectureAssignment) {
  // Paper: FNN-A for Q1/Q4/Q5 (indices 0,3,4), FNN-B for Q2/Q3 (1,2).
  EXPECT_EQ(core::arch_for_qubit(0), core::student_arch::fnn_a);
  EXPECT_EQ(core::arch_for_qubit(1), core::student_arch::fnn_b);
  EXPECT_EQ(core::arch_for_qubit(2), core::student_arch::fnn_b);
  EXPECT_EQ(core::arch_for_qubit(3), core::student_arch::fnn_a);
  EXPECT_EQ(core::arch_for_qubit(4), core::student_arch::fnn_a);
  EXPECT_THROW(core::arch_for_qubit(5), invalid_argument_error);
}

TEST(Presets, GroupCountsAndNames) {
  EXPECT_EQ(core::groups_for_arch(core::student_arch::fnn_a), 15u);
  EXPECT_EQ(core::groups_for_arch(core::student_arch::fnn_b), 100u);
  EXPECT_STREQ(core::arch_name(core::student_arch::fnn_a), "FNN-A");
  EXPECT_STREQ(core::arch_name(core::student_arch::fnn_b), "FNN-B");
}

TEST(Presets, ExpectedParameterCounts) {
  EXPECT_EQ(core::expected_student_params(core::student_arch::fnn_a), 657u);
  EXPECT_EQ(core::expected_student_params(core::student_arch::fnn_b), 3377u);
  EXPECT_EQ(core::expected_teacher_params(), 1627001u);
}

TEST(Presets, StudentConfigMatchesArch) {
  const auto config_a = core::student_config_for(core::student_arch::fnn_a);
  EXPECT_EQ(config_a.groups_per_quadrature, 15u);
  EXPECT_EQ(config_a.hidden, (std::vector<std::size_t>{16, 8}));
  EXPECT_TRUE(config_a.use_matched_filter);
  EXPECT_EQ(config_a.normalization, dsp::norm_mode::pow2_shift);
  const auto config_b = core::student_config_for(core::student_arch::fnn_b);
  EXPECT_EQ(config_b.groups_per_quadrature, 100u);
}

TEST(Fidelity, PaperTable1Numbers) {
  core::fidelity_report report;
  report.label = "KLiNQ";
  report.per_qubit = {0.968, 0.748, 0.929, 0.934, 0.959};
  EXPECT_NEAR(report.geometric_mean_all(), 0.904, 0.001);   // F5Q
  EXPECT_NEAR(report.geometric_mean_excluding(1), 0.947, 0.001);  // F4Q
}

TEST(Fidelity, PrintingContainsColumns) {
  core::fidelity_report report;
  report.label = "test-row";
  report.per_qubit = {0.9, 0.8};
  std::ostringstream out;
  core::print_fidelity_header(2, out);
  core::print_fidelity_row(report, out);
  EXPECT_NE(out.str().find("test-row"), std::string::npos);
  EXPECT_NE(out.str().find("F5Q"), std::string::npos);
  EXPECT_NE(out.str().find("0.900"), std::string::npos);
}

TEST(Fidelity, ExcludeOutOfRangeThrows) {
  core::fidelity_report report;
  report.per_qubit = {0.9};
  EXPECT_THROW(report.geometric_mean_excluding(3), invalid_argument_error);
}

TEST(Cache, HashIsStableAndDistinct) {
  const auto a = core::artifact_cache::hash_key("config-a");
  EXPECT_EQ(a, core::artifact_cache::hash_key("config-a"));
  EXPECT_NE(a, core::artifact_cache::hash_key("config-b"));
}

TEST(Cache, DisabledCacheAlwaysMisses) {
  core::artifact_cache cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.load_teacher("any").has_value());
}

TEST(Cache, TeacherCacheKeyDependsOnConfig) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  const kd::teacher_config teacher;
  const auto base = core::teacher_cache_key(spec, 0, teacher);
  EXPECT_NE(base, core::teacher_cache_key(spec, 1, teacher));
  auto spec2 = spec;
  spec2.seed += 1;
  EXPECT_NE(base, core::teacher_cache_key(spec2, 0, teacher));
  auto spec3 = spec;
  spec3.device.qubits[0].noise_sigma *= 2.0;
  EXPECT_NE(base, core::teacher_cache_key(spec3, 0, teacher));
  kd::teacher_config teacher2;
  teacher2.epochs += 1;
  EXPECT_NE(base, core::teacher_cache_key(spec, 0, teacher2));
  // And it is deterministic.
  EXPECT_EQ(base, core::teacher_cache_key(spec, 0, teacher));
}

// Every input that shapes a trained teacher is in its key, so a changed
// value retrains instead of loading a stale cached teacher. The test split
// is not a training input: its size leaves the key alone.
TEST(Cache, TeacherCacheKeyCoversEveryTrainingInput) {
  qsim::dataset_spec spec;
  spec.device = qsim::lienhard5q_preset();
  const kd::teacher_config teacher;
  const std::string base = core::teacher_cache_key(spec, 1, teacher);
  using spec_edit = std::function<void(qsim::dataset_spec&)>;
  using teacher_edit = std::function<void(kd::teacher_config&)>;
  const std::vector<std::pair<std::string, spec_edit>> spec_edits = {
      {"seed", [](auto& s) { s.seed += 1; }},
      {"train shots", [](auto& s) { s.shots_per_permutation_train += 1; }},
      {"duration", [](auto& s) { s.device.trace_duration_ns *= 0.5; }},
      {"ground.i", [](auto& s) { s.device.qubits[1].ground.i += 0.01; }},
      {"ground.q", [](auto& s) { s.device.qubits[1].ground.q += 0.01; }},
      {"excited.i", [](auto& s) { s.device.qubits[1].excited.i += 0.01; }},
      {"excited.q", [](auto& s) { s.device.qubits[1].excited.q += 0.01; }},
      {"tau_ring", [](auto& s) { s.device.qubits[1].tau_ring_ns += 1.0; }},
      {"noise", [](auto& s) { s.device.qubits[1].noise_sigma *= 1.001; }},
      {"t1", [](auto& s) { s.device.qubits[1].t1_ns += 1.0; }},
      {"prep_error", [](auto& s) { s.device.qubits[1].prep_error += 1e-4; }},
      {"gain_jitter", [](auto& s) { s.device.qubits[1].gain_jitter += 1e-4; }},
      {"phase_jitter",
       [](auto& s) { s.device.qubits[1].phase_jitter += 1e-4; }},
      {"neighbour", [](auto& s) { s.device.qubits[0].noise_sigma *= 2.0; }},
      {"crosstalk", [](auto& s) { s.device.crosstalk(1, 0) += 1e-3; }},
  };
  const std::vector<std::pair<std::string, teacher_edit>> teacher_edits = {
      {"hidden", [](auto& t) { t.hidden.back() += 1; }},
      {"depth", [](auto& t) { t.hidden.push_back(8); }},
      {"epochs", [](auto& t) { t.epochs += 1; }},
      {"batch", [](auto& t) { t.batch_size += 1; }},
      {"learning_rate", [](auto& t) { t.learning_rate *= 1.001f; }},
      {"weight_decay", [](auto& t) { t.weight_decay *= 1.001f; }},
      {"augment_noise_sigma", [](auto& t) { t.augment_noise_sigma *= 1.001f; }},
      {"lr_decay", [](auto& t) { t.lr_decay *= 1.001f; }},
      {"seed", [](auto& t) { t.seed += 1; }},
  };
  std::set<std::string> keys = {base,
                                core::teacher_cache_key(spec, 0, teacher)};
  for (const auto& [name, edit] : spec_edits) {
    auto edited = spec;
    edit(edited);
    const std::string key = core::teacher_cache_key(edited, 1, teacher);
    EXPECT_TRUE(keys.insert(key).second) << "spec field " << name;
  }
  for (const auto& [name, edit] : teacher_edits) {
    auto edited = teacher;
    edit(edited);
    const std::string key = core::teacher_cache_key(spec, 1, edited);
    EXPECT_TRUE(keys.insert(key).second) << "teacher field " << name;
  }
  auto test_split = spec;
  test_split.shots_per_permutation_test += 1;
  EXPECT_EQ(core::teacher_cache_key(test_split, 1, teacher), base);
}

// Shared tiny end-to-end fixture: a 2-qubit device so that arch assignment
// exercises both FNN-A (qubit index 0) and FNN-B (qubit index 1).
qsim::dataset_spec tiny_spec() {
  qsim::dataset_spec spec;
  qsim::device_params device = qsim::lienhard5q_preset();
  device.qubits.resize(2);
  device.crosstalk = la::matrix_d(2, 2, 0.0);
  device.crosstalk(1, 0) = 0.1;
  // Boost separations so tiny shot counts still train well.
  for (auto& q : device.qubits) {
    const double mid_i = 0.5 * (q.ground.i + q.excited.i);
    const double mid_q = 0.5 * (q.ground.q + q.excited.q);
    q.ground.i = mid_i + 4.0 * (q.ground.i - mid_i);
    q.ground.q = mid_q + 4.0 * (q.ground.q - mid_q);
    q.excited.i = mid_i + 4.0 * (q.excited.i - mid_i);
    q.excited.q = mid_q + 4.0 * (q.excited.q - mid_q);
  }
  spec.device = std::move(device);
  spec.shots_per_permutation_train = 250;
  spec.shots_per_permutation_test = 200;
  spec.seed = 77;
  return spec;
}

core::system_config tiny_system_config() {
  core::system_config config;
  config.dataset = tiny_spec();
  config.teacher.hidden = {64, 32};  // reduced for test speed
  config.teacher.epochs = 20;        // small dataset ⇒ more epochs
  config.teacher.batch_size = 16;
  config.cache_dir = "";  // no caching inside tests
  return config;
}

const core::klinq_system& tiny_system() {
  static const core::klinq_system system =
      core::klinq_system::train(tiny_system_config());
  return system;
}

TEST(System, TrainsOneDiscriminatorPerQubit) {
  const auto& system = tiny_system();
  EXPECT_EQ(system.qubit_count(), 2u);
  // Qubit 0 → FNN-A (657 params), qubit 1 → FNN-B (3377 params).
  EXPECT_EQ(system.discriminator(0).parameter_count(), 657u);
  EXPECT_EQ(system.discriminator(1).parameter_count(), 3377u);
  EXPECT_THROW(system.discriminator(2), invalid_argument_error);
}

TEST(System, EvaluateProducesHighFidelityOnBoostedDevice) {
  const auto& system = tiny_system();
  const auto report = system.evaluate(tiny_spec());
  ASSERT_EQ(report.per_qubit.size(), 2u);
  EXPECT_GT(report.per_qubit[0], 0.95);
  EXPECT_GT(report.per_qubit[1], 0.90);
  EXPECT_GT(report.geometric_mean_all(), 0.92);
}

TEST(System, IndependentMeasurementMatchesDiscriminator) {
  const auto& system = tiny_system();
  const auto data = qsim::build_qubit_dataset(tiny_spec(), 0);
  const std::size_t n = data.test.samples_per_quadrature();
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(system.measure(0, data.test.trace(r), n),
              system.discriminator(0).measure(data.test.trace(r), n));
  }
}

TEST(System, SaveLoadDirectoryRoundTrip) {
  const auto& system = tiny_system();
  const std::string dir = "./test_system_artifacts";
  system.save_directory(dir);
  const auto restored = core::klinq_system::load_directory(dir, 2);
  const auto data = qsim::build_qubit_dataset(tiny_spec(), 1);
  const std::size_t n = data.test.samples_per_quadrature();
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(restored.measure(1, data.test.trace(r), n),
              system.measure(1, data.test.trace(r), n));
  }
  std::filesystem::remove_all(dir);
}

TEST(System, SaveLoadDirectoryBitIdenticalMeasurements) {
  // Round-tripping through the on-disk format must reproduce the trained
  // system exactly: bit-exact Q16.16 registers (the FPGA decisions ride on
  // them) and bitwise-equal float logits, on every qubit and trace.
  const auto& system = tiny_system();
  const std::string dir = "./test_system_artifacts_bitexact";
  system.save_directory(dir);
  const auto restored = core::klinq_system::load_directory(dir, 2);
  std::filesystem::remove_all(dir);
  for (std::size_t q = 0; q < system.qubit_count(); ++q) {
    const auto data = qsim::build_qubit_dataset(tiny_spec(), q);
    std::vector<fx::q16_16> trained_registers(data.test.size());
    std::vector<fx::q16_16> loaded_registers(data.test.size());
    system.discriminator(q).hardware().logits(data.test, trained_registers);
    restored.discriminator(q).hardware().logits(data.test, loaded_registers);
    for (std::size_t r = 0; r < data.test.size(); ++r) {
      ASSERT_EQ(loaded_registers[r].raw(), trained_registers[r].raw())
          << "qubit " << q << " row " << r;
    }
    const auto trained_logits =
        system.discriminator(q).student().predict_batch(data.test);
    const auto loaded_logits =
        restored.discriminator(q).student().predict_batch(data.test);
    ASSERT_EQ(loaded_logits, trained_logits) << "qubit " << q;
  }
}

TEST(System, FixedAndFloatPathsAgree) {
  const auto& system = tiny_system();
  const auto data = qsim::build_qubit_dataset(tiny_spec(), 0);
  EXPECT_GT(system.discriminator(0).fixed_float_agreement(data.test), 0.99);
}

TEST(Workflow, DistillForShorterDurationKeepsInputWidth) {
  const auto data = qsim::build_qubit_dataset(tiny_spec(), 0);
  const auto student =
      core::distill_for_duration(data.train, {}, 0, 500.0, 7, false);
  // Input stays 31-wide (fixed G), trained on 250-sample traces.
  EXPECT_EQ(student.net().input_dim(), 31u);
  const auto sliced_test = data.test.sliced_to_duration_ns(500.0);
  EXPECT_GT(student.accuracy(sliced_test), 0.9);
}

TEST(Workflow, CachedTeacherRoundTrips) {
  const std::string dir = "./test_teacher_cache";
  std::filesystem::remove_all(dir);
  core::artifact_cache cache(dir);
  ASSERT_TRUE(cache.enabled());

  const auto spec = tiny_spec();
  const auto data = qsim::build_qubit_dataset(spec, 0);
  kd::teacher_config config;
  config.hidden = {32, 16};
  config.epochs = 2;  // cache round-trip only; accuracy irrelevant

  const auto first = core::obtain_teacher(spec, 0, data.train, config, cache);
  const auto second = core::obtain_teacher(spec, 0, data.train, config, cache);
  // Second call loads the stored model: identical logits.
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_FLOAT_EQ(second.logit(data.test.trace(r)),
                    first.logit(data.test.trace(r)));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
