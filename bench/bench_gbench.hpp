// Shared main() for the Google-Benchmark benches: stamps the build type,
// the resolved SIMD dispatch tiers (fixed + float, which differ under
// KLINQ_DETERMINISTIC) and the CPUs in the process's affinity mask into the
// benchmark context, so every emitted BENCH json records how it was
// produced ("klinq_*" keys — see README "Performance").
#pragma once

#include <benchmark/benchmark.h>

#include <string>

#include "bench_host.hpp"
#include "klinq/common/cpu_dispatch.hpp"

#ifndef KLINQ_BUILD_TYPE
#define KLINQ_BUILD_TYPE "unknown"
#endif

namespace klinq::bench {

inline const char* build_type() noexcept { return KLINQ_BUILD_TYPE; }

inline void add_klinq_context() {
  benchmark::AddCustomContext("klinq_build_type", build_type());
  benchmark::AddCustomContext("klinq_simd_tier",
                              simd_tier_name(active_simd_tier()));
  benchmark::AddCustomContext("klinq_float_tier",
                              simd_tier_name(active_float_simd_tier()));
  benchmark::AddCustomContext("klinq_affinity_cpus",
                              std::to_string(affinity_cpus()));
}

}  // namespace klinq::bench

/// Drop-in replacement for BENCHMARK_MAIN() that adds the klinq context.
#define KLINQ_BENCHMARK_MAIN()                                          \
  int main(int argc, char** argv) {                                     \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::klinq::bench::add_klinq_context();                                \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }
