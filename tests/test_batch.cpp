// Batched-vs-single-shot parity for the zero-allocation inference engine.
//
// The contract under test since the float kernels grew an AVX2 FMA tier
// (klinq/nn/kernels.hpp):
//   * the fixed-point (Q16.16) batched paths remain BIT-EXACT against their
//     single-shot APIs (integer arithmetic is order-independent);
//   * the batched float paths are bitwise invariant to batch size, tile
//     position and worker count WITHIN the active float tier (the plane
//     kernels are lane-invariant), so batched-vs-batched comparisons stay
//     exact;
//   * batched float logits match the single-shot predict_logit/logit() only
//     to rounding tolerance — the single-shot path reduces in dot order,
//     the batched path in fused plane order (KLINQ_DETERMINISTIC pins the
//     scalar tier but does not remove this order difference).
#include <cmath>
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "klinq/common/rng.hpp"
#include "klinq/core/qubit_discriminator.hpp"
#include "klinq/dsp/batch_extractor.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/linalg/gemm.hpp"
#include "klinq/nn/kernels.hpp"
#include "klinq/nn/network.hpp"
#include "klinq/qsim/dataset_builder.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

la::matrix_f random_matrix(std::size_t rows, std::size_t cols,
                           xoshiro256& rng) {
  la::matrix_f m(rows, cols);
  for (auto& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// Shared fixture: one quick student + hardware twin on a small dataset big
// enough to cross the thread-pool and GEMM parallel thresholds.
struct engine_fixture {
  qsim::qubit_dataset data;
  kd::student_model student;
  hw::fixed_discriminator<q16_16> hw_student;

  engine_fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 150;
    spec.shots_per_permutation_test = 64;
    spec.seed = 11;
    data = qsim::build_qubit_dataset(spec, 0);
    kd::student_config config;
    config.groups_per_quadrature = 15;
    config.epochs = 5;
    student = kd::distill_student(data.train, {}, config);
    hw_student = hw::fixed_discriminator<q16_16>(student);
  }
};

engine_fixture& fixture() {
  static engine_fixture f;
  return f;
}

data::trace_dataset first_rows(const data::trace_dataset& ds,
                               std::size_t count) {
  std::vector<std::size_t> rows(count);
  std::iota(rows.begin(), rows.end(), 0);
  return ds.subset(rows);
}

/// Rounding tolerance for batched (plane-order) vs single-shot (dot-order)
/// float logits: both reductions agree to a few ULPs of the accumulated
/// magnitude; 1e-4 relative with a small absolute floor is generous.
void expect_logit_close(float batched, float single, const char* what,
                        std::size_t row) {
  const float tol = 1e-5f + 1e-4f * std::fabs(single);
  EXPECT_NEAR(batched, single, tol) << what << " row " << row;
}

// --- nn: batched predict_logits vs single-shot predict_logit ---------------

TEST(BatchParity, NetworkBatchedLogitsMatchSingleShotWithinTolerance) {
  xoshiro256 rng(7);
  nn::network net = nn::make_mlp(31, {16, 8});
  net.initialize(nn::weight_init::he_normal, rng);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const la::matrix_f input = random_matrix(batch, 31, rng);
    nn::inference_scratch scratch;
    std::vector<float> batched(batch);
    net.predict_logits(input, batched, scratch);
    for (std::size_t r = 0; r < batch; ++r) {
      expect_logit_close(batched[r], net.predict_logit(input.row(r)),
                         "network", r);
    }
  }
}

// Lane invariance: a row's batched logit must not depend on the batch it
// rides in — prefixes of a larger batch reproduce the smaller batch bitwise.
TEST(BatchParity, NetworkBatchedLogitsInvariantToBatchSize) {
  xoshiro256 rng(23);
  nn::network net = nn::make_mlp(31, {16, 8});
  net.initialize(nn::weight_init::he_normal, rng);
  const la::matrix_f big = random_matrix(130, 31, rng);  // 2 tiles + ragged
  nn::inference_scratch scratch;
  std::vector<float> full(big.rows());
  net.predict_logits(big, full, scratch);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{64},
                                  std::size_t{65}}) {
    la::matrix_f prefix(batch, 31);
    std::copy(big.data(), big.data() + batch * 31, prefix.data());
    std::vector<float> part(batch);
    net.predict_logits(prefix, part, scratch);
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(part[r], full[r]) << "batch " << batch << " row " << r;
    }
  }
}

TEST(BatchParity, NetworkScratchReuseAcrossBatchSizesIsStable) {
  xoshiro256 rng(19);
  nn::network net = nn::make_mlp(31, {16, 8});
  net.initialize(nn::weight_init::he_normal, rng);
  const la::matrix_f big = random_matrix(64, 31, rng);
  nn::inference_scratch scratch;
  std::vector<float> first(64);
  net.predict_logits(big, first, scratch);
  // Shrink, grow, and repeat through the same arena — results must not drift.
  const la::matrix_f small = random_matrix(3, 31, rng);
  std::vector<float> tmp(3);
  net.predict_logits(small, tmp, scratch);
  std::vector<float> again(64);
  net.predict_logits(big, again, scratch);
  EXPECT_EQ(first, again);
}

// --- dsp: parallel batch extraction vs serial extract ----------------------

TEST(BatchParity, BatchExtractorMatchesSerialExtract) {
  auto& f = fixture();
  const auto& pipeline = f.student.pipeline();
  const auto& ds = f.data.test;
  la::matrix_f batched;
  dsp::batch_extractor(pipeline).extract(ds, batched);
  ASSERT_EQ(batched.rows(), ds.size());
  std::vector<float> row(pipeline.output_width());
  for (std::size_t r = 0; r < ds.size(); ++r) {
    pipeline.extract(ds.trace(r), ds.samples_per_quadrature(), row);
    for (std::size_t c = 0; c < row.size(); ++c) {
      ASSERT_EQ(batched(r, c), row[c]) << "row " << r << " col " << c;
    }
  }
}

// Tile producer: same per-shot values as extract_block, feature-major
// layout, zero-filled pad lanes.
TEST(BatchParity, ExtractTileMatchesExtractBlockExactly) {
  auto& f = fixture();
  const auto& pipeline = f.student.pipeline();
  const auto& ds = f.data.test;
  const std::size_t width = pipeline.output_width();
  constexpr std::size_t kStride = nn::kernels::max_tile_lanes;
  const dsp::batch_extractor extractor(pipeline);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}, std::size_t{64}}) {
    std::vector<float> plane(width * kStride, -9.0f);
    extractor.extract_tile(ds, 3, lanes, plane.data(), kStride);
    la::matrix_f rows(lanes, width);
    extractor.extract_block(ds, 3, 3 + lanes, rows);
    for (std::size_t s = 0; s < lanes; ++s) {
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(plane[i * kStride + s], rows(s, i))
            << "lanes " << lanes << " shot " << s << " feature " << i;
      }
    }
    for (std::size_t s = lanes; s < nn::kernels::padded_lanes(lanes); ++s) {
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(plane[i * kStride + s], 0.0f) << "pad lane " << s;
      }
    }
  }
}

// --- kd: student predict_batch vs per-trace logit --------------------------

TEST(BatchParity, StudentPredictBatchMatchesSingleShotWithinTolerance) {
  auto& f = fixture();
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const data::trace_dataset subset = first_rows(f.data.test, batch);
    const std::vector<float> batched = f.student.predict_batch(subset);
    for (std::size_t r = 0; r < batch; ++r) {
      expect_logit_close(batched[r],
                         f.student.logit(subset.trace(r),
                                         subset.samples_per_quadrature()),
                         "student", r);
    }
  }
}

TEST(BatchParity, StudentPredictBatchUnderThreadPool) {
  auto& f = fixture();
  // Full test set: larger than every serial-fallback threshold, so the
  // parallel fused extract→FC chunks are exercised. The pooled result must
  // be bitwise identical to a serial predict_block over the same rows
  // (chunking invariance) and tolerance-close to the single-shot path.
  const auto& ds = f.data.test;
  ASSERT_GE(ds.size(), 64u);
  const std::vector<float> batched = f.student.predict_batch(ds);
  kd::student_scratch scratch;
  std::vector<float> serial(ds.size());
  f.student.predict_block(ds, 0, ds.size(), serial, scratch);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    ASSERT_EQ(batched[r], serial[r]) << "row " << r;
    expect_logit_close(batched[r],
                       f.student.logit(ds.trace(r),
                                       ds.samples_per_quadrature()),
                       "student-pool", r);
  }
}

// Fused (extract_tile → plane kernels) vs unfused (materialized feature
// matrix → predict_logits): bitwise equal within a tier, by construction.
TEST(BatchParity, FusedAndUnfusedFloatPathsBitIdentical) {
  auto& f = fixture();
  const auto& ds = f.data.test;
  const std::vector<float> fused = f.student.predict_batch(ds);
  la::matrix_f features;
  dsp::batch_extractor(f.student.pipeline()).extract(ds, features);
  nn::inference_scratch scratch;
  std::vector<float> unfused(ds.size());
  f.student.net().predict_logits(features, unfused, scratch);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    ASSERT_EQ(fused[r], unfused[r]) << "row " << r;
  }
}

// --- hw: blocked fixed-point engine vs single-shot registers ---------------

TEST(BatchParity, FixedBatchedLogitsBitExact) {
  auto& f = fixture();
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const data::trace_dataset subset = first_rows(f.data.test, batch);
    std::vector<q16_16> batched(batch);
    f.hw_student.logits(subset, batched);
    for (std::size_t r = 0; r < batch; ++r) {
      const q16_16 single = f.hw_student.logit(
          subset.trace(r), subset.samples_per_quadrature());
      ASSERT_EQ(batched[r].raw(), single.raw())
          << "batch " << batch << " row " << r;
    }
  }
}

TEST(BatchParity, FixedBatchedLogitsUnderThreadPool) {
  auto& f = fixture();
  const auto& ds = f.data.test;
  std::vector<q16_16> batched(ds.size());
  f.hw_student.logits(ds, batched);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    const q16_16 single =
        f.hw_student.logit(ds.trace(r), ds.samples_per_quadrature());
    ASSERT_EQ(batched[r].raw(), single.raw()) << "row " << r;
  }
}

TEST(BatchParity, QuantizedNetworkScratchReuseBitExact) {
  auto& f = fixture();
  const auto& net = f.hw_student.net();
  const auto quantized =
      hw::fixed_frontend<q16_16>::quantize_trace(f.data.test.trace(0));
  std::vector<q16_16> features(f.hw_student.frontend().output_width());
  f.hw_student.frontend().extract(
      quantized, f.data.test.samples_per_quadrature(), features);
  hw::quantized_scratch<q16_16> scratch;
  const q16_16 first = net.forward_logit(features, scratch);
  // Reused (dirty) scratch must give the same register as a fresh one.
  const q16_16 second = net.forward_logit(features, scratch);
  EXPECT_EQ(first.raw(), second.raw());
  EXPECT_EQ(first.raw(), net.forward_logit(features).raw());
}

// --- core: batched measurement matches the public decision API -------------

TEST(BatchParity, MeasureBatchMatchesMeasure) {
  auto& f = fixture();
  const core::qubit_discriminator disc(f.student);
  const auto& ds = f.data.test;
  std::vector<std::uint8_t> decisions(ds.size());
  disc.measure_batch(ds, decisions);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    const bool single = disc.measure(ds.trace(r), ds.samples_per_quadrature());
    EXPECT_EQ(decisions[r] != 0, single) << "row " << r;
  }
}

// --- nn: identity layers no longer materialize a pre-activation copy -------

TEST(BatchParity, IdentityLayerWritesDirectlyToPost) {
  xoshiro256 rng(3);
  nn::dense_layer layer(8, 4, nn::activation::identity);
  layer.initialize(nn::weight_init::he_normal, rng);
  const la::matrix_f input = random_matrix(5, 8, rng);
  la::matrix_f pre;
  la::matrix_f post;
  layer.forward(input, pre, post);
  EXPECT_TRUE(pre.empty());  // identity: GEMM goes straight into post
  ASSERT_EQ(post.rows(), 5u);
  ASSERT_EQ(post.cols(), 4u);
  std::vector<float> y(4);
  for (std::size_t r = 0; r < 5; ++r) {
    la::gemv(layer.weights(), input.row(r), y, layer.bias());
    for (std::size_t c = 0; c < 4; ++c) {
      // gemv reduces in dot order, the batched forward in kernel order:
      // rounding tolerance, not bit equality.
      expect_logit_close(post(r, c), y[c], "identity-layer", r);
    }
  }
}

}  // namespace
