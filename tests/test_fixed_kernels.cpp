// Adversarial equality harness for the vectorized fixed-point kernels.
//
// The contract under test: for every int64-fast-path format (Q8.8, Q12.12,
// Q16.16) the scalar64 and AVX2 kernel tiers are bit-identical to the
// int128 reference arithmetic in fixed.hpp — fixed::operator* per product,
// fixed_accumulator for the adder tree, fixed::from_double for
// quantization. Sweeps deliberately hit the hard corners: the saturation
// rails, half-ULP tie products of both signs, negative exact multiples
// (where a naive floor-shift overshoots by one LSB), and randomized fuzzing
// per format. The AVX2/AVX-512 comparisons run only where the executing CPU
// has the tier; the scalar comparisons run everywhere.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"
#include "klinq/hw/quantized_network.hpp"
#include "klinq/nn/init.hpp"
#include "klinq/nn/network.hpp"

namespace {

using namespace klinq;
namespace kernels = fx::kernels;
using fx::fixed;
using fx::fixed_accumulator;
using fx::q12_12;
using fx::q16_16;
using fx::q8_8;

// ---------------------------------------------------------------------------
// int128 references (the exact arithmetic the kernels must reproduce)
// ---------------------------------------------------------------------------

template <class Fixed>
std::int64_t ref_product(std::int32_t w, std::int32_t x) {
  return (Fixed::from_raw(w) * Fixed::from_raw(x)).raw();
}

template <class Fixed>
std::int64_t ref_mac_row(const std::vector<std::int32_t>& weights,
                         const std::vector<std::int32_t>& inputs,
                         std::int64_t bias_raw) {
  fixed_accumulator<Fixed> acc;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc.add(Fixed::from_raw(weights[i]) * Fixed::from_raw(inputs[i]));
  }
  acc.add_raw(bias_raw);
  return acc.result().raw();
}

template <class Fixed>
std::vector<std::int32_t> random_raws(xoshiro256& rng, std::size_t n,
                                      bool rail_heavy) {
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    if (rail_heavy && rng.uniform(0.0, 1.0) < 0.25) {
      raw = static_cast<std::int32_t>(
          rng.uniform(0.0, 1.0) < 0.5 ? Fixed::raw_max : Fixed::raw_min);
    } else {
      raw = static_cast<std::int32_t>(
          rng.uniform(static_cast<double>(Fixed::raw_min),
                      static_cast<double>(Fixed::raw_max)));
    }
  }
  return raws;
}

template <class Fixed>
class FixedKernelTest : public ::testing::Test {};

using FastFormats = ::testing::Types<q8_8, q12_12, q16_16>;
TYPED_TEST_SUITE(FixedKernelTest, FastFormats);

// ---------------------------------------------------------------------------
// The post-scaler: round_shift_clamp vs fixed::operator*
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, PostScalerMatchesInt128OnAdversarialProducts) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  const auto check = [&](std::int32_t w, std::int32_t x) {
    const std::int64_t product = static_cast<std::int64_t>(w) * x;
    ASSERT_EQ(kernels::round_shift_clamp(product, spec.frac_bits,
                                         spec.raw_min, spec.raw_max),
              ref_product<Fixed>(w, x))
        << "w=" << w << " x=" << x;
  };
  const auto max32 = static_cast<std::int32_t>(Fixed::raw_max);
  const auto min32 = static_cast<std::int32_t>(Fixed::raw_min);
  // Saturation rails in all sign combinations.
  for (const std::int32_t w : {max32, min32}) {
    for (const std::int32_t x : {max32, min32}) check(w, x);
  }
  // Half-ULP ties of both signs: with |w| = 1 the product's magnitude is
  // |x|, so x = k*2^F + 2^(F-1) lands exactly on the rounding boundary.
  const std::int64_t half = std::int64_t{1} << (Fixed::frac_bits - 1);
  for (std::int64_t k = -4; k <= 4; ++k) {
    const auto tie = static_cast<std::int32_t>(k * 2 * half + half);
    check(1, tie);
    check(-1, tie);
    check(1, static_cast<std::int32_t>(-tie));
    check(-1, static_cast<std::int32_t>(-tie));
  }
  // Negative exact multiples: product = -(k << F) must stay exactly -k.
  for (std::int64_t k = 1; k <= 8; ++k) {
    check(static_cast<std::int32_t>(-k), static_cast<std::int32_t>(2 * half));
  }
  // Randomized sweep across the full register range.
  xoshiro256 rng(2026);
  for (int trial = 0; trial < 200000; ++trial) {
    const auto pair = random_raws<Fixed>(rng, 2, true);
    check(pair[0], pair[1]);
  }
}

// ---------------------------------------------------------------------------
// mac_row: every tier vs the wide-accumulator reference
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, MacRowTiersMatchInt128Reference) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  xoshiro256 rng(7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{31},
                              std::size_t{201}, std::size_t{1000}}) {
    for (int trial = 0; trial < 50; ++trial) {
      const bool rail_heavy = trial % 2 == 0;
      const auto weights = random_raws<Fixed>(rng, n, rail_heavy);
      const auto inputs = random_raws<Fixed>(rng, n, rail_heavy);
      const auto bias = static_cast<std::int64_t>(random_raws<Fixed>(
          rng, 1, rail_heavy)[0]);
      const std::int64_t reference = ref_mac_row<Fixed>(weights, inputs, bias);
      ASSERT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), n,
                                           bias, spec),
                reference)
          << "scalar64 n=" << n << " trial=" << trial;
      if (kernels::avx2_available()) {
        ASSERT_EQ(kernels::avx2::mac_row(weights.data(), inputs.data(), n,
                                         bias, spec),
                  reference)
            << "avx2 n=" << n << " trial=" << trial;
      }
      if (kernels::avx512_available()) {
        ASSERT_EQ(kernels::avx512::mac_row(weights.data(), inputs.data(), n,
                                           bias, spec),
                  reference)
            << "avx512 n=" << n << " trial=" << trial;
      }
      ASSERT_EQ(
          kernels::mac_row(weights.data(), inputs.data(), n, bias, spec),
          reference)
          << "dispatched n=" << n << " trial=" << trial;
    }
  }
}

TYPED_TEST(FixedKernelTest, MacRowSaturatesAccumulatorAtExtractionOnly) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  // Rail-magnitude products in both directions: the int64 accumulator must
  // survive far past the rails and saturate once at the end, exactly like
  // fixed_accumulator — and a later cancellation must bring it back.
  const auto one_raw = static_cast<std::int32_t>(std::int64_t{1}
                                                 << Fixed::frac_bits);
  const auto max32 = static_cast<std::int32_t>(Fixed::raw_max);
  std::vector<std::int32_t> weights(64, one_raw);
  std::vector<std::int32_t> inputs(64, max32);
  for (std::size_t i = 32; i < 64; ++i) inputs[i] = -max32;  // cancels
  const std::int64_t balanced = ref_mac_row<Fixed>(weights, inputs, 0);
  EXPECT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), 64, 0,
                                       spec),
            balanced);
  inputs.assign(64, max32);
  const std::int64_t pinned = ref_mac_row<Fixed>(weights, inputs, 0);
  EXPECT_EQ(pinned, Fixed::raw_max);
  EXPECT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), 64, 0,
                                       spec),
            pinned);
  if (kernels::avx2_available()) {
    EXPECT_EQ(
        kernels::avx2::mac_row(weights.data(), inputs.data(), 64, 0, spec),
        pinned);
  }
  if (kernels::avx512_available()) {
    EXPECT_EQ(
        kernels::avx512::mac_row(weights.data(), inputs.data(), 64, 0, spec),
        pinned);
  }
}

// ---------------------------------------------------------------------------
// mac_tile: every lane of every neuron vs the reference, both activations
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, MacTileTiersMatchInt128Reference) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  constexpr std::size_t stride = kernels::max_tile_lanes;
  xoshiro256 rng(13);
  const std::size_t out_dim = 5;
  const std::size_t in_dim = 31;
  for (const std::size_t tile :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
        std::size_t{8}, std::size_t{33}, std::size_t{64}}) {
    for (const bool relu : {false, true}) {
      const auto weights = random_raws<Fixed>(rng, out_dim * in_dim, true);
      const auto bias_raws = random_raws<Fixed>(rng, out_dim, false);
      std::vector<std::int32_t> plane(in_dim * stride, 0);
      for (std::size_t i = 0; i < in_dim; ++i) {
        const auto lane = random_raws<Fixed>(rng, tile, true);
        std::copy(lane.begin(), lane.end(), plane.begin() + i * stride);
      }
      // Reference, lane by lane through the accumulator arithmetic.
      std::vector<std::int32_t> expected(out_dim * stride, 0);
      for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
        for (std::size_t s = 0; s < tile; ++s) {
          fixed_accumulator<Fixed> acc;
          for (std::size_t i = 0; i < in_dim; ++i) {
            acc.add(Fixed::from_raw(weights[neuron * in_dim + i]) *
                    Fixed::from_raw(plane[i * stride + s]));
          }
          acc.add_raw(bias_raws[neuron]);
          Fixed value = acc.result();
          if (relu && value.sign_bit()) value = Fixed::zero();
          expected[neuron * stride + s] =
              static_cast<std::int32_t>(value.raw());
        }
      }
      std::vector<std::int32_t> actual(out_dim * stride, 0);
      kernels::scalar64::mac_tile(weights.data(), bias_raws.data(), out_dim,
                                  in_dim, plane.data(), tile, stride, relu,
                                  actual.data(), spec);
      EXPECT_EQ(actual, expected) << "scalar64 tile=" << tile
                                  << " relu=" << relu;
      if (kernels::avx2_available()) {
        std::vector<std::int32_t> simd(out_dim * stride, 0);
        kernels::avx2::mac_tile(weights.data(), bias_raws.data(), out_dim,
                                in_dim, plane.data(), tile, stride, relu,
                                simd.data(), spec);
        EXPECT_EQ(simd, expected) << "avx2 tile=" << tile << " relu=" << relu;
      }
      if (kernels::avx512_available()) {
        std::vector<std::int32_t> simd(out_dim * stride, 0);
        kernels::avx512::mac_tile(weights.data(), bias_raws.data(), out_dim,
                                  in_dim, plane.data(), tile, stride, relu,
                                  simd.data(), spec);
        EXPECT_EQ(simd, expected)
            << "avx512 tile=" << tile << " relu=" << relu;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// quantize_block vs fixed::from_double
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, QuantizeBlockMatchesFromDouble) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  std::vector<float> values;
  // Tie lattice around zero: (k + 0.5) LSB steps in both signs.
  for (int k = -64; k <= 64; ++k) {
    values.push_back(static_cast<float>(
        (static_cast<double>(k) + 0.5) * Fixed::resolution()));
  }
  // Rails and beyond, NaN, signed zero, infinities, tiny magnitudes.
  const double rail = static_cast<double>(Fixed::raw_max) *
                      Fixed::resolution();
  for (const double v :
       {rail - 1.0, rail, rail + 1.0, -rail, -rail - 1.0, 1e30, -1e30, 0.0,
        -0.0, 1e-30, -1e-30}) {
    values.push_back(static_cast<float>(v));
  }
  values.push_back(std::numeric_limits<float>::quiet_NaN());
  values.push_back(std::numeric_limits<float>::infinity());
  values.push_back(-std::numeric_limits<float>::infinity());
  xoshiro256 rng(99);
  for (int trial = 0; trial < 5000; ++trial) {
    values.push_back(
        static_cast<float>(rng.uniform(-2.5 * rail, 2.5 * rail)));
  }
  std::vector<std::int32_t> expected(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    expected[i] =
        static_cast<std::int32_t>(Fixed::from_double(values[i]).raw());
  }
  std::vector<std::int32_t> scalar(values.size(), -1);
  kernels::scalar64::quantize_block(values.data(), values.size(),
                                    scalar.data(), spec);
  EXPECT_EQ(scalar, expected);
  if (kernels::avx2_available()) {
    std::vector<std::int32_t> simd(values.size(), -1);
    kernels::avx2::quantize_block(values.data(), values.size(), simd.data(),
                                  spec);
    EXPECT_EQ(simd, expected);
  }
  if (kernels::avx512_available()) {
    std::vector<std::int32_t> simd(values.size(), -1);
    kernels::avx512::quantize_block(values.data(), values.size(), simd.data(),
                                    spec);
    EXPECT_EQ(simd, expected);
  }
  std::vector<std::int32_t> dispatched(values.size(), -1);
  kernels::quantize_block(values.data(), values.size(), dispatched.data(),
                          spec);
  EXPECT_EQ(dispatched, expected);
}

// ---------------------------------------------------------------------------
// quantize_mac_row: the front end's fused sweep vs quantize_block + mac_row
// ---------------------------------------------------------------------------

// The AVX-512 quantizer compares the scaled sample against float(raw_max),
// not raw_max. That is exact only if no float lies in
// [raw_max, float(raw_max)): for Q8.8 and Q12.12 raw_max is a float; for
// Q16.16 float(raw_max) = 2^31 and the float just below it is 2^31 - 128.
TYPED_TEST(FixedKernelTest, NoFloatLiesBetweenRailAndItsFloatRounding) {
  using Fixed = TypeParam;
  const auto rail = static_cast<float>(Fixed::raw_max);
  if (static_cast<double>(rail) != static_cast<double>(Fixed::raw_max)) {
    EXPECT_GT(static_cast<double>(rail), static_cast<double>(Fixed::raw_max));
    EXPECT_LT(static_cast<double>(std::nextafter(rail, 0.0f)),
              static_cast<double>(Fixed::raw_max));
  }
  EXPECT_EQ(static_cast<double>(static_cast<float>(Fixed::raw_min)),
            static_cast<double>(Fixed::raw_min));
}

template <class Fixed>
std::vector<float> adversarial_samples(std::size_t n, std::uint64_t seed) {
  const double lsb = Fixed::resolution();
  const double rail = static_cast<double>(Fixed::raw_max) * lsb;
  const double power = std::ldexp(1.0, Fixed::int_bits - 1);  // 2^(I-1)
  std::vector<float> corners = {
      1e9f, -1e9f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(), static_cast<float>(power),
      static_cast<float>(-power), 0.0f, -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 1e-40f, -1e-40f,
      std::numeric_limits<float>::min(), -std::numeric_limits<float>::min()};
  // Half-ULP ties of both signs.
  for (int k = -8; k <= 8; ++k) {
    corners.push_back(
        static_cast<float>((static_cast<double>(k) + 0.5) * lsb));
  }
  // Every float within 40 ULPs of both rails (the float-precision rail
  // compare of the AVX-512 quantizer).
  for (const double edge : {rail, -rail - lsb}) {
    float up = static_cast<float>(edge);
    float down = up;
    for (int step = 0; step < 40; ++step) {
      corners.push_back(up);
      corners.push_back(down);
      up = std::nextafter(up, std::numeric_limits<float>::infinity());
      down = std::nextafter(down, -std::numeric_limits<float>::infinity());
    }
  }
  xoshiro256 rng(seed);
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = rng.uniform(0.0, 1.0) < 0.3
                    ? corners[static_cast<std::size_t>(rng.uniform(
                                  0.0, static_cast<double>(corners.size()))) %
                              corners.size()]
                    : static_cast<float>(rng.uniform(-1.5 * rail, 1.5 * rail));
  }
  // Plant the corners at spread-out lanes; all of them once n exceeds
  // their count.
  for (std::size_t c = 0; c < corners.size() && c < n; ++c) {
    values[(c * 17) % n] = corners[c];
  }
  return values;
}

TYPED_TEST(FixedKernelTest, QuantizeMacRowTiersMatchQuantizeThenMacRow) {
  using Fixed = TypeParam;
  // Each tier's sweep, and its quantize_block (which the AVX-512 tier runs
  // in float precision like its sweep).
  struct tier {
    const char* name;
    std::int64_t (*sweep)(const float*, const std::int32_t*, std::size_t,
                          std::int32_t*, const kernels::mac_spec&) noexcept;
    void (*quantize)(const float*, std::size_t, std::int32_t*,
                     const kernels::mac_spec&) noexcept;
  };
  const auto spec = kernels::spec_of<Fixed>();
  std::vector<tier> tiers = {
      {"scalar64", kernels::scalar64::quantize_mac_row,
       kernels::scalar64::quantize_block},
      {"dispatched", kernels::quantize_mac_row, kernels::quantize_block}};
  if (kernels::avx2_available()) {
    tiers.push_back({"avx2", kernels::avx2::quantize_mac_row,
                     kernels::avx2::quantize_block});
  }
  if (kernels::avx512_available()) {
    tiers.push_back({"avx512", kernels::avx512::quantize_mac_row,
                     kernels::avx512::quantize_block});
  }
  xoshiro256 rng(31);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{33}, std::size_t{200}, std::size_t{1000},
        std::size_t{1003}}) {
    const auto values = adversarial_samples<Fixed>(n, 100 + n);
    // Rail-heavy random weights, and every third one +-2^(F-1) (0.5) or
    // +-1 LSB: against an odd register those make half-ULP tie products of
    // both signs.
    auto weights = random_raws<Fixed>(rng, n, true);
    const auto half = static_cast<std::int32_t>(1 << (Fixed::frac_bits - 1));
    for (std::size_t i = 0; i < n; i += 3) {
      const std::int32_t pick[] = {half, -half, 1, -1};
      weights[i] = pick[(i / 3) % 4];
    }
    // References: fixed::from_double per sample, the int128 MAC over the
    // registers, and the scalar two-pass kernels.
    std::vector<std::int32_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] =
          static_cast<std::int32_t>(Fixed::from_double(values[i]).raw());
    }
    const std::int64_t expected_mac = ref_mac_row<Fixed>(weights, expected, 0);
    std::vector<std::int32_t> two_pass(n, -1);
    kernels::scalar64::quantize_block(values.data(), n, two_pass.data(), spec);
    ASSERT_EQ(two_pass, expected) << "n=" << n;
    ASSERT_EQ(kernels::scalar64::mac_row(weights.data(), two_pass.data(), n, 0,
                                         spec),
              expected_mac)
        << "n=" << n;
    for (const auto& [name, sweep, quantize] : tiers) {
      std::vector<std::int32_t> row(n + 1, -7);  // one guard register
      EXPECT_EQ(sweep(values.data(), weights.data(), n, row.data(), spec),
                expected_mac)
          << name << " n=" << n;
      EXPECT_EQ(row[n], -7) << name << " sweep wrote past the row, n=" << n;
      row.pop_back();
      EXPECT_EQ(row, expected) << name << " n=" << n;
      std::vector<std::int32_t> quantized(n + 1, -7);
      quantize(values.data(), n, quantized.data(), spec);
      EXPECT_EQ(quantized[n], -7)
          << name << " quantize_block wrote past the row, n=" << n;
      quantized.pop_back();
      EXPECT_EQ(quantized, expected) << name << " quantize_block n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// forward_logits parity: the rewired network vs the int128 reference pass
// ---------------------------------------------------------------------------

template <class Fixed>
Fixed ref_forward(const nn::network& float_net,
                  const hw::quantized_network<Fixed>& net,
                  std::span<const Fixed> input) {
  std::vector<Fixed> current(input.begin(), input.end());
  std::vector<Fixed> next;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& weights = net.layer_weights(l);
    const auto& bias = net.layer_bias(l);
    const std::size_t out_dim = bias.size();
    const std::size_t in_dim = current.size();
    next.assign(out_dim, Fixed::zero());
    for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
      fixed_accumulator<Fixed> acc;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc.add(weights[neuron * in_dim + i] * current[i]);
      }
      acc.add(bias[neuron]);
      Fixed value = acc.result();
      if (float_net.layer(l).act() == nn::activation::relu &&
          value.sign_bit()) {
        value = Fixed::zero();
      }
      next[neuron] = value;
    }
    current.swap(next);
  }
  return current.front();
}

TYPED_TEST(FixedKernelTest, ForwardLogitsMatchInt128ReferenceUnderPool) {
  using Fixed = TypeParam;
  xoshiro256 rng(31);
  auto float_net = nn::make_mlp(31, {16, 8});
  float_net.initialize(nn::weight_init::he_normal, rng);
  const hw::quantized_network<Fixed> net(float_net);

  const std::size_t shots = 130;  // two full tiles + a ragged tail
  la::matrix<Fixed> inputs(shots, 31);
  for (std::size_t r = 0; r < shots; ++r) {
    for (std::size_t c = 0; c < 31; ++c) {
      inputs(r, c) = Fixed::from_double(rng.uniform(-4.0, 4.0));
    }
  }
  std::vector<Fixed> expected(shots);
  for (std::size_t r = 0; r < shots; ++r) {
    expected[r] = ref_forward<Fixed>(float_net, net, inputs.row(r));
  }

  // Batched (kernel tile path), serial.
  hw::quantized_scratch<Fixed> scratch;
  std::vector<Fixed> batched(shots);
  net.forward_logits(inputs, batched, scratch);
  for (std::size_t r = 0; r < shots; ++r) {
    ASSERT_EQ(batched[r].raw(), expected[r].raw()) << "row " << r;
  }

  // Single-shot (kernel row path).
  for (std::size_t r = 0; r < shots; r += 17) {
    ASSERT_EQ(net.forward_logit(inputs.row(r), scratch).raw(),
              expected[r].raw())
        << "row " << r;
  }

  // Under the pool: per-chunk scratch, exactly like fixed_discriminator.
  std::vector<Fixed> pooled(shots);
  parallel_for_chunked(0, shots, [&](std::size_t begin, std::size_t end) {
    hw::quantized_scratch<Fixed> local;
    for (std::size_t r = begin; r < end; ++r) {
      pooled[r] = net.forward_logit(inputs.row(r), local);
    }
  });
  for (std::size_t r = 0; r < shots; ++r) {
    ASSERT_EQ(pooled[r].raw(), expected[r].raw()) << "row " << r;
  }
}

// The wide reference format keeps the int128 path: same reference pass, no
// kernels involved — guards the else-branches of the rewired hw:: layer.
TEST(FixedKernelsWideFormat, Q24StaysOnReferencePath) {
  using Fixed = fx::q24_24;
  static_assert(!kernels::has_int64_fast_path<Fixed>);
  xoshiro256 rng(41);
  auto float_net = nn::make_mlp(8, {6, 4});
  float_net.initialize(nn::weight_init::he_normal, rng);
  const hw::quantized_network<Fixed> net(float_net);
  la::matrix<Fixed> inputs(70, 8);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    for (std::size_t c = 0; c < inputs.cols(); ++c) {
      inputs(r, c) = Fixed::from_double(rng.uniform(-4.0, 4.0));
    }
  }
  hw::quantized_scratch<Fixed> scratch;
  std::vector<Fixed> batched(inputs.rows());
  net.forward_logits(inputs, batched, scratch);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    ASSERT_EQ(batched[r].raw(),
              ref_forward<Fixed>(float_net, net, inputs.row(r)).raw())
        << "row " << r;
  }
}

}  // namespace
