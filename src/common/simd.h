/**
 * @file
 * Runtime-dispatched SIMD kernels behind the packed unary engines.
 *
 * The word-packed simulation path (DESIGN.md §8) retires one scalar
 * popcount / comparison per 64-bit word; on AVX2 hosts the same work
 * runs 4-16 words per instruction. This layer exposes the handful of
 * data-parallel inner loops as a function-pointer table with two
 * implementations:
 *
 *   generic  portable C++, compiled for baseline x86-64 (or any other
 *            target) — the continuously-tested fallback
 *   avx2     Harley-Seal / vpshufb-nibble-LUT popcounts, vectorized
 *            threshold packing and GEMM rows; compiled in its own
 *            translation unit with -mavx2 so the rest of the binary
 *            stays runnable on machines without AVX2
 *   avx512   VPOPCNTDQ bulk/prefix popcounts, mask-register threshold
 *            packing, 16-lane fp32 and 8-lane widening integer GEMM
 *            rows; own translation unit with -mavx512{f,bw,vpopcntdq},
 *            runtime CPUID-gated like the AVX2 tier
 *
 * Every kernel is BIT-EXACT against its generic counterpart — integer
 * kernels trivially, the fp32 kernel because both sides perform exactly
 * one multiply and one add per element in element order (the kernel
 * translation units are built with -ffp-contract=off so no path is
 * ever contracted into an FMA). Selection happens once at startup:
 * CPUID picks the best table, overridable with USYS_SIMD=auto|avx2|
 * generic or the --simd flag (see DESIGN.md §11).
 */

#ifndef USYS_COMMON_SIMD_H
#define USYS_COMMON_SIMD_H

#include <cstddef>
#include <string>

#include "common/types.h"

namespace usys {

/**
 * Dispatch tiers, ordered worst to best.
 */
enum class SimdLevel
{
    Generic = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Human-readable tier name ("generic", "avx2", "avx512"). */
const char *simdLevelName(SimdLevel level);

/**
 * The dispatched kernel inventory. Each entry is a complete loop (tail
 * handling included), so callers never mix scalar and vector code.
 */
struct SimdKernels
{
    /** Tier this table implements (for logging / stats). */
    SimdLevel level;

    /** Total 1-bits across `n` packed stream words. */
    u64 (*popcountWords)(const u64 *words, std::size_t n);

    /**
     * Pack threshold comparisons into little-endian stream words:
     * bit k of out[] is (values[k] < threshold), unsigned. Writes
     * (n + 63) / 64 words; bits at positions >= n in the final word
     * are zero (the early-termination boundary mask falls out for
     * free).
     */
    void (*thresholdPackWords)(const u32 *values, u32 n, u32 threshold,
                               u64 *out);

    /**
     * Per-word prefix popcount table over a packed stream:
     * prefix[0] = 0, prefix[w + 1] = prefix[w] + popcount(words[w]).
     * Writes nwords + 1 entries (u32 is ample: streams are < 2^32
     * bits).
     */
    void (*prefixPopcount)(const u64 *words, u32 nwords, u32 *prefix);

    /**
     * Row-major fp32 GEMM inner loop: c[j] += a * b[j] for j in
     * [0, n), exactly one multiply and one add per element (never an
     * FMA), so results are bitwise identical across tiers.
     */
    void (*axpyF32)(float *c, const float *b, float a, int n);

    /**
     * Row-major integer GEMM inner loop with widening multiply:
     * c[j] += i64(a) * i64(b[j]) for j in [0, n). Exact for the full
     * i32 range of both operands.
     */
    void (*gemmRowI32)(i64 *c, const i32 *b, i32 a, int n);
};

/** The portable fallback table (always available). */
const SimdKernels &genericKernels();

/**
 * The AVX2 table, or nullptr when unavailable — either the build
 * lacked -mavx2 support or the running CPU lacks the feature.
 */
const SimdKernels *avx2Kernels();

/**
 * The AVX-512 table, or nullptr when unavailable — the build lacked
 * -mavx512{f,bw,vpopcntdq} support or the running CPU lacks any of
 * those features.
 */
const SimdKernels *avx512Kernels();

/** Runtime CPU feature probe (independent of build support). */
bool cpuSupportsAvx2();

/** Runtime probe for AVX-512F + AVX-512BW + VPOPCNTDQ together. */
bool cpuSupportsAvx512();

/**
 * The active kernel table. Resolved once on first use: USYS_SIMD env
 * ("auto" picks the best available tier; an unavailable or unknown
 * value warns and falls back) unless setSimdMode() overrode it.
 * Hot paths cache nothing — this is one atomic load.
 */
const SimdKernels &simdKernels();

/** Tier of the active table. */
SimdLevel simdLevel();

/**
 * Force a dispatch tier: "auto", "generic", "avx2", or "avx512".
 * Unlike the env path this is an explicit request (--simd flag,
 * tests), so an unknown mode or an unavailable tier is fatal(). Safe
 * to call at any time — every tier is bit-exact, so switching mid-run
 * cannot change results.
 */
void setSimdMode(const std::string &mode);

namespace detail {
/** Defined in simd_avx2.cc; null when built without AVX2 support. */
const SimdKernels *avx2KernelsImpl();
/** Defined in simd_avx512.cc; null when built without AVX-512. */
const SimdKernels *avx512KernelsImpl();
} // namespace detail

} // namespace usys

#endif // USYS_COMMON_SIMD_H
