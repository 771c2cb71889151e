#include "common/simd.h"

#include <atomic>
#include <bit>
#include <cstdlib>

#include "common/logging.h"

namespace usys {

namespace {

// --- Generic (portable) kernels -------------------------------------
//
// These are the reference semantics every other tier must reproduce
// bit for bit. Kept branch-light so the compiler can vectorize them
// for whatever baseline ISA the build targets.

u64
popcountWordsGeneric(const u64 *words, std::size_t n)
{
    // Four independent accumulators give the scalar path some ILP
    // without changing the (exact, order-free) integer sum.
    u64 s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += u64(std::popcount(words[i + 0]));
        s1 += u64(std::popcount(words[i + 1]));
        s2 += u64(std::popcount(words[i + 2]));
        s3 += u64(std::popcount(words[i + 3]));
    }
    for (; i < n; ++i)
        s0 += u64(std::popcount(words[i]));
    return s0 + s1 + s2 + s3;
}

void
thresholdPackWordsGeneric(const u32 *values, u32 n, u32 threshold,
                          u64 *out)
{
    const u32 nwords = (n + 63) / 64;
    for (u32 w = 0; w < nwords; ++w)
        out[w] = 0;
    for (u32 k = 0; k < n; ++k)
        out[k >> 6] |= u64(values[k] < threshold) << (k & 63);
}

void
prefixPopcountGeneric(const u64 *words, u32 nwords, u32 *prefix)
{
    // Two-pass block-offset scheme (DESIGN.md §11): pass 1 writes the
    // independent per-word counts into the prefix slots — a pure
    // store loop with no serial dependency, so the popcounts pipeline
    // (and auto-vectorize where the baseline ISA allows) — and pass 2
    // folds the running offset through the block with simple one-cycle
    // adds. Blocks keep both passes L1-resident on large streams.
    constexpr u32 kBlock = 4096;
    prefix[0] = 0;
    u32 run = 0;
    for (u32 base = 0; base < nwords; base += kBlock) {
        const u32 hi = std::min(nwords, base + kBlock);
        for (u32 w = base; w < hi; ++w)
            prefix[w + 1] = u32(std::popcount(words[w]));
        for (u32 w = base; w < hi; ++w) {
            run += prefix[w + 1];
            prefix[w + 1] = run;
        }
    }
}

void
axpyF32Generic(float *c, const float *b, float a, int n)
{
    // One multiply + one add per element, element order; this TU is
    // compiled with -ffp-contract=off so it can never become an FMA.
    for (int j = 0; j < n; ++j)
        c[j] += a * b[j];
}

void
gemmRowI32Generic(i64 *c, const i32 *b, i32 a, int n)
{
    // Unroll by 4: the widening multiplies are independent, so the
    // scalar pipeline can overlap them even when the baseline ISA has
    // no packed 32x32->64 multiply to vectorize with.
    const i64 aa = i64(a);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
        c[j + 0] += aa * i64(b[j + 0]);
        c[j + 1] += aa * i64(b[j + 1]);
        c[j + 2] += aa * i64(b[j + 2]);
        c[j + 3] += aa * i64(b[j + 3]);
    }
    for (; j < n; ++j)
        c[j] += aa * i64(b[j]);
}

const SimdKernels kGeneric = {
    SimdLevel::Generic,       popcountWordsGeneric,
    thresholdPackWordsGeneric, prefixPopcountGeneric,
    axpyF32Generic,           gemmRowI32Generic,
};

// --- Dispatch -------------------------------------------------------

/**
 * Active table pointer. Resolution is deterministic (env + CPUID), so
 * the lazy-init race is benign: every thread stores the same value.
 */
std::atomic<const SimdKernels *> g_active{nullptr};

const SimdKernels *
bestAvailable()
{
    if (const SimdKernels *avx512 = avx512Kernels())
        return avx512;
    if (const SimdKernels *avx2 = avx2Kernels())
        return avx2;
    return &kGeneric;
}

/** Resolve the startup default from USYS_SIMD (warn-and-fall-back). */
const SimdKernels *
resolveFromEnv()
{
    const char *env = std::getenv("USYS_SIMD");
    if (!env || !*env)
        return bestAvailable();
    const std::string mode(env);
    if (mode == "auto")
        return bestAvailable();
    if (mode == "generic")
        return &kGeneric;
    if (mode == "avx2") {
        if (const SimdKernels *avx2 = avx2Kernels())
            return avx2;
        warn("USYS_SIMD=avx2 but AVX2 is unavailable "
             "(cpu or build); using generic");
        return &kGeneric;
    }
    if (mode == "avx512") {
        if (const SimdKernels *avx512 = avx512Kernels())
            return avx512;
        warn("USYS_SIMD=avx512 but AVX-512 is unavailable "
             "(cpu or build); using best available");
        return bestAvailable();
    }
    warn("USYS_SIMD='" + mode + "' not recognized "
         "(auto|avx512|avx2|generic); using auto");
    return bestAvailable();
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Generic:
        return "generic";
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Avx512:
        return "avx512";
    }
    return "unknown";
}

const SimdKernels &
genericKernels()
{
    return kGeneric;
}

bool
cpuSupportsAvx2()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
cpuSupportsAvx512()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vpopcntdq");
#else
    return false;
#endif
}

const SimdKernels *
avx2Kernels()
{
    if (!cpuSupportsAvx2())
        return nullptr;
    return detail::avx2KernelsImpl();
}

const SimdKernels *
avx512Kernels()
{
    if (!cpuSupportsAvx512())
        return nullptr;
    return detail::avx512KernelsImpl();
}

const SimdKernels &
simdKernels()
{
    const SimdKernels *k = g_active.load(std::memory_order_acquire);
    if (!k) {
        k = resolveFromEnv();
        g_active.store(k, std::memory_order_release);
    }
    return *k;
}

SimdLevel
simdLevel()
{
    return simdKernels().level;
}

void
setSimdMode(const std::string &mode)
{
    const SimdKernels *k = nullptr;
    if (mode == "auto") {
        k = bestAvailable();
    } else if (mode == "generic") {
        k = &kGeneric;
    } else if (mode == "avx2") {
        k = avx2Kernels();
        fatalIf(k == nullptr,
                "--simd avx2 requested but AVX2 is unavailable "
                "(cpu or build)");
    } else if (mode == "avx512") {
        k = avx512Kernels();
        fatalIf(k == nullptr,
                "--simd avx512 requested but AVX-512 is unavailable "
                "(cpu or build)");
    } else {
        fatal("unknown SIMD mode '" + mode +
              "' (expected auto, avx512, avx2, or generic)");
    }
    g_active.store(k, std::memory_order_release);
}

} // namespace usys
