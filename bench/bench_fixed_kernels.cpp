// Google-benchmark throughput benches for the fixed-point MAC kernels.
//
// Measures mac_row / mac_tile / quantize_block per dispatch tier (int128
// reference, scalar64, AVX2/AVX-512 where the host has them) and per format
// (Q8.8, Q16.16), in MACs/sec (row/tile) and samples/sec (quantize). Shapes match
// the real datapath: 201-wide rows (FNN-B's first layer), 64-shot tiles,
// 1000-sample traces. The reference rows quantify exactly what the int64
// post-scaler buys over the int128 round-shift.
//
// BM_FrontendRow_* time the whole Q16.16 front end for one N = 500 shot at
// G = 15 (FNN-A) and G = 100 (FNN-B), in shots/sec: the fixed<I,F>
// reference (quantize_trace + extract) and fixed_frontend::extract_trace
// with its quantize+MF sweep pinned to each tier.
//
// Machine-readable snapshot:
//   bench_fixed_kernels --benchmark_out=BENCH_fixed.json
//                       --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_gbench.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/data/trace_dataset.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"
#include "klinq/hw/fixed_frontend.hpp"

namespace {

using namespace klinq;
namespace kernels = fx::kernels;
using fx::fixed_accumulator;
using fx::q16_16;
using fx::q8_8;

template <class Fixed>
std::vector<std::int32_t> random_raws(std::size_t n, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    raw = static_cast<std::int32_t>(
        rng.uniform(static_cast<double>(Fixed::raw_min) / 4,
                    static_cast<double>(Fixed::raw_max) / 4));
  }
  return raws;
}

// --- mac_row: one 201-wide neuron row --------------------------------------

template <class Fixed>
void BM_MacRowReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto weights = random_raws<Fixed>(n, 1);
  const auto inputs = random_raws<Fixed>(n, 2);
  for (auto _ : state) {
    fixed_accumulator<Fixed> acc;
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(Fixed::from_raw(weights[i]) * Fixed::from_raw(inputs[i]));
    }
    benchmark::DoNotOptimize(acc.result());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

template <class Fixed, auto MacRow>
void BM_MacRowKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto weights = random_raws<Fixed>(n, 1);
  const auto inputs = random_raws<Fixed>(n, 2);
  const auto spec = kernels::spec_of<Fixed>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MacRow(weights.data(), inputs.data(), n, 0, spec));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// --- mac_tile: one layer over a 64-shot tile -------------------------------

template <class Fixed, auto MacTile>
void BM_MacTileKernel(benchmark::State& state) {
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const auto out_dim = static_cast<std::size_t>(state.range(0));
  const auto in_dim = static_cast<std::size_t>(state.range(1));
  const auto weights = random_raws<Fixed>(out_dim * in_dim, 3);
  const auto bias = random_raws<Fixed>(out_dim, 4);
  const auto plane = random_raws<Fixed>(in_dim * stride, 5);
  std::vector<std::int32_t> out(out_dim * stride);
  const auto spec = kernels::spec_of<Fixed>();
  for (auto _ : state) {
    MacTile(weights.data(), bias.data(), out_dim, in_dim, plane.data(),
            stride, stride, true, out.data(), spec);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out_dim * in_dim *
                                                    stride));
}

// --- quantize_block: one 1000-sample trace ---------------------------------

template <class Fixed>
void BM_QuantizeBlockReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(6);
  std::vector<float> trace(n);
  for (auto& v : trace) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<std::int32_t> out(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::int32_t>(Fixed::from_double(trace[i]).raw());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

template <class Fixed, auto QuantizeBlock>
void BM_QuantizeBlockKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(6);
  std::vector<float> trace(n);
  for (auto& v : trace) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<std::int32_t> out(n);
  const auto spec = kernels::spec_of<Fixed>();
  for (auto _ : state) {
    QuantizeBlock(trace.data(), n, out.data(), spec);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// --- the front end: one N = 500 shot, quantize + AVG + MF + NORM -----------

constexpr std::size_t kFrontendSamples = 500;

/// Noisy two-state traces with a state-dependent I/Q offset, enough for a
/// fitted pipeline with a real envelope and NORM exponents.
const data::trace_dataset& frontend_traces() {
  static const data::trace_dataset traces = [] {
    constexpr std::size_t kShots = 256;
    data::trace_dataset ds(kShots, kFrontendSamples);
    xoshiro256 rng(8);
    std::vector<float> trace(2 * kFrontendSamples);
    for (std::size_t r = 0; r < kShots; ++r) {
      const bool state = r % 2 == 1;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const double offset = state ? 0.02 : -0.02;
        trace[i] = static_cast<float>(offset + rng.uniform(-0.05, 0.05));
      }
      ds.append(trace, state);
    }
    return ds;
  }();
  return traces;
}

hw::fixed_frontend<q16_16> bench_frontend(std::size_t groups) {
  return hw::fixed_frontend<q16_16>(dsp::feature_pipeline::fit(
      frontend_traces(), {.groups_per_quadrature = groups}));
}

void BM_FrontendRowReference(benchmark::State& state) {
  const auto frontend =
      bench_frontend(static_cast<std::size_t>(state.range(0)));
  const data::trace_dataset& traces = frontend_traces();
  std::vector<q16_16> quantized(traces.feature_width());
  std::vector<q16_16> features(frontend.output_width());
  std::size_t row = 0;
  for (auto _ : state) {
    hw::fixed_frontend<q16_16>::quantize_trace(traces.trace(row), quantized);
    frontend.extract(quantized, kFrontendSamples, features);
    benchmark::DoNotOptimize(features.data());
    row = (row + 1) % traces.size();
  }
  state.SetItemsProcessed(state.iterations());
}

template <auto Sweep>
void BM_FrontendRowKernel(benchmark::State& state) {
  const auto frontend =
      bench_frontend(static_cast<std::size_t>(state.range(0)));
  const data::trace_dataset& traces = frontend_traces();
  hw::frontend_scratch scratch;
  std::vector<std::int32_t> features(frontend.output_width());
  std::size_t row = 0;
  for (auto _ : state) {
    frontend.extract_trace(traces.trace(row), kFrontendSamples, scratch,
                           features.data(), 1, Sweep);
    benchmark::DoNotOptimize(features.data());
    benchmark::ClobberMemory();
    row = (row + 1) % traces.size();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_FrontendRowReference)
    ->Name("BM_FrontendRow_ref_q16.16")->ArgName("G")->Arg(15)->Arg(100);
BENCHMARK(BM_FrontendRowKernel<kernels::scalar64::quantize_mac_row>)
    ->Name("BM_FrontendRow_scalar64_q16.16")->ArgName("G")->Arg(15)->Arg(100);
BENCHMARK(BM_FrontendRowKernel<kernels::avx2::quantize_mac_row>)
    ->Name("BM_FrontendRow_avx2_q16.16")->ArgName("G")->Arg(15)->Arg(100);
BENCHMARK(BM_FrontendRowKernel<kernels::avx512::quantize_mac_row>)
    ->Name("BM_FrontendRow_avx512_q16.16")->ArgName("G")->Arg(15)->Arg(100);

#define KLINQ_KERNEL_BENCHES(Fixed, tag)                                      \
  BENCHMARK(BM_MacRowReference<Fixed>)->Name("BM_MacRow_int128ref_" tag)      \
      ->Arg(201);                                                             \
  BENCHMARK((BM_MacRowKernel<Fixed, kernels::scalar64::mac_row>))             \
      ->Name("BM_MacRow_scalar64_" tag)->Arg(201);                            \
  BENCHMARK((BM_MacRowKernel<Fixed, kernels::avx2::mac_row>))                 \
      ->Name("BM_MacRow_avx2_" tag)->Arg(201);                                \
  BENCHMARK((BM_MacRowKernel<Fixed, kernels::avx512::mac_row>))               \
      ->Name("BM_MacRow_avx512_" tag)->Arg(201);                              \
  BENCHMARK((BM_MacTileKernel<Fixed, kernels::scalar64::mac_tile>))           \
      ->Name("BM_MacTile_scalar64_" tag)->Args({16, 201});                    \
  BENCHMARK((BM_MacTileKernel<Fixed, kernels::avx2::mac_tile>))               \
      ->Name("BM_MacTile_avx2_" tag)->Args({16, 201});                        \
  BENCHMARK((BM_MacTileKernel<Fixed, kernels::avx512::mac_tile>))             \
      ->Name("BM_MacTile_avx512_" tag)->Args({16, 201});                      \
  BENCHMARK(BM_QuantizeBlockReference<Fixed>)                                 \
      ->Name("BM_QuantizeBlock_ref_" tag)->Arg(1000);                         \
  BENCHMARK((BM_QuantizeBlockKernel<Fixed, kernels::scalar64::quantize_block>))\
      ->Name("BM_QuantizeBlock_scalar64_" tag)->Arg(1000);                    \
  BENCHMARK((BM_QuantizeBlockKernel<Fixed, kernels::avx2::quantize_block>))   \
      ->Name("BM_QuantizeBlock_avx2_" tag)->Arg(1000);                        \
  BENCHMARK((BM_QuantizeBlockKernel<Fixed, kernels::avx512::quantize_block>)) \
      ->Name("BM_QuantizeBlock_avx512_" tag)->Arg(1000)

KLINQ_KERNEL_BENCHES(q16_16, "q16.16");
KLINQ_KERNEL_BENCHES(q8_8, "q8.8");

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  klinq::bench::add_klinq_context();
  benchmark::AddCustomContext(
      "klinq_avx2_available",
      klinq::fx::kernels::avx2_available() ? "true" : "false");
  benchmark::AddCustomContext(
      "klinq_avx512_available",
      klinq::fx::kernels::avx512_available() ? "true" : "false");
  // Wide-tier entry points must not run on hosts lacking the tier (and on
  // non-SIMD builds they alias scalar64); skip them instead of faulting or
  // reporting duplicate numbers.
  std::string filter;
  if (!klinq::fx::kernels::avx2_available()) filter += "BM_.*_avx2_.*|";
  if (!klinq::fx::kernels::avx512_available()) filter += "BM_.*_avx512_.*|";
  if (!filter.empty()) {
    filter.pop_back();  // trailing '|'
    benchmark::RunSpecifiedBenchmarks(("-" + filter).c_str());
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}
