// Runtime CPU-feature dispatch for the vectorized kernel tiers.
//
// The fixed-point MAC kernels (klinq/fixed/fixed_kernels.hpp) and the float
// plane kernels (klinq/nn/kernels.hpp) ship three implementations: a
// branchless int64 scalar path that any host runs, and AVX2 / AVX-512 paths
// compiled per-function (GCC/Clang target attributes) on x86-64. Which one
// executes is decided once per process:
//
//   * compile time — KLINQ_HAVE_X86_SIMD gates whether the AVX2/AVX-512
//     bodies exist at all (x86-64 GCC/Clang builds, unless
//     -DKLINQ_DISABLE_SIMD removes them so non-SIMD hosts exercise the
//     scalar fallback in CI),
//   * run time — cpuid (__builtin_cpu_supports) confirms the executing host
//     actually has the requested extensions; builds with -march=native that
//     already imply them (__AVX2__, __AVX512F__...) skip the cpuid,
//   * override — KLINQ_SIMD=scalar pins the scalar tier for A/B measurement;
//     KLINQ_SIMD=avx2 caps dispatch at the AVX2 tier (never upgrades to
//     AVX-512); KLINQ_SIMD=avx512|auto picks the widest tier available and
//     falls back avx512 → avx2 → scalar (requesting a tier the host lacks
//     never faults).
//
// Benches record the resolved tier in their emitted JSON so a committed
// snapshot says which datapath produced it.
#pragma once

#if !defined(KLINQ_DISABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define KLINQ_HAVE_X86_SIMD 1
#else
#define KLINQ_HAVE_X86_SIMD 0
#endif

namespace klinq {

/// Kernel implementation tiers, narrowest capability first.
enum class simd_tier {
  scalar64,  ///< branchless int64 scalar kernels (always available)
  avx2,      ///< 4-lane int64 / 8-lane float AVX2 kernels
  avx512,    ///< 8-lane int64 / 16-lane float AVX-512 (F+BW+DQ) kernels
};

/// True when the executing CPU reports AVX2 (false on non-x86 builds and
/// when KLINQ_DISABLE_SIMD compiled the SIMD paths out).
bool cpu_supports_avx2() noexcept;

/// True when the executing CPU reports the AVX-512 subsets the wide kernels
/// use (F, BW and DQ — the Skylake-SP baseline). False on non-x86 builds and
/// when KLINQ_DISABLE_SIMD compiled the SIMD paths out.
bool cpu_supports_avx512() noexcept;

/// The tier the dispatched kernels run at, resolved once per process from
/// the compile gate, cpuid and the KLINQ_SIMD override.
simd_tier active_simd_tier() noexcept;

/// Stable lowercase name ("scalar64", "avx2", "avx512") for logs and BENCH
/// json.
const char* simd_tier_name(simd_tier tier) noexcept;

/// True when KLINQ_DETERMINISTIC=1|true|on requests host-independent float
/// results. The fixed-point kernels are bit-identical across tiers, so this
/// only affects the float kernels (klinq/nn/kernels.hpp): FMA contraction
/// and 8/16-lane reassociation make the AVX2/AVX-512 float tiers differ
/// from scalar in the last ULPs, and pinning the scalar tier removes that
/// variation.
bool deterministic_float_mode() noexcept;

/// The tier the dispatched FLOAT kernels run at: active_simd_tier() unless
/// deterministic mode pins scalar64. Resolved once per process.
simd_tier active_float_simd_tier() noexcept;

}  // namespace klinq
