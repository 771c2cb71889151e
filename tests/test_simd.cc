/**
 * @file
 * SIMD-vs-generic parity fuzz tests (DESIGN.md §11).
 *
 * Every dispatched kernel must be bit-exact against the portable
 * fallback — including tail/EBT masked final words, zero magnitudes,
 * threshold extremes, and fault-injected streams. The suite compares
 * three ways: a naive per-bit/per-element reference, the generic
 * table, and (when the host supports it) the AVX2 table directly —
 * so the cross-implementation checks run even when the dispatched
 * level is forced to generic via USYS_SIMD. The `simd_generic_*` /
 * `simd_auto_*` ctest variants rerun the whole binary under both env
 * settings at 1 and 3 executor threads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/matrix.h"
#include "common/prng.h"
#include "common/simd.h"
#include "arch/packed_array.h"
#include "dnn/backend.h"
#include "fault/fault.h"
#include "unary/bitstream.h"
#include "unary/lfsr.h"

namespace usys {
namespace {

/**
 * Tables to cross-check: always generic, plus AVX2 / AVX-512
 * when available on the host — so every higher tier is fuzzed against
 * the reference regardless of which tier USYS_SIMD dispatched.
 */
std::vector<const SimdKernels *>
tablesUnderTest()
{
    std::vector<const SimdKernels *> tables = {&genericKernels()};
    if (const SimdKernels *avx2 = avx2Kernels())
        tables.push_back(avx2);
    if (const SimdKernels *avx512 = avx512Kernels())
        tables.push_back(avx512);
    return tables;
}

TEST(SimdDispatch, TablesConsistent)
{
    EXPECT_EQ(genericKernels().level, SimdLevel::Generic);
    if (cpuSupportsAvx2() && avx2Kernels() != nullptr) {
        EXPECT_EQ(avx2Kernels()->level, SimdLevel::Avx2);
    }
    if (cpuSupportsAvx512() && avx512Kernels() != nullptr) {
        EXPECT_EQ(avx512Kernels()->level, SimdLevel::Avx512);
    }
    // The active table is one of the known tiers, and every slot is
    // populated.
    const SimdKernels &active = simdKernels();
    EXPECT_NE(active.popcountWords, nullptr);
    EXPECT_NE(active.thresholdPackWords, nullptr);
    EXPECT_NE(active.prefixPopcount, nullptr);
    EXPECT_NE(active.axpyF32, nullptr);
    EXPECT_NE(active.gemmRowI32, nullptr);
}

TEST(SimdDispatch, SetSimdModeSwitchesAndRestores)
{
    const SimdLevel before = simdLevel();
    setSimdMode("generic");
    EXPECT_EQ(simdLevel(), SimdLevel::Generic);
    if (avx2Kernels()) {
        setSimdMode("avx2");
        EXPECT_EQ(simdLevel(), SimdLevel::Avx2);
    }
    if (avx512Kernels()) {
        setSimdMode("avx512");
        EXPECT_EQ(simdLevel(), SimdLevel::Avx512);
    }
    setSimdMode("auto");
    if (avx512Kernels())
        EXPECT_EQ(simdLevel(), SimdLevel::Avx512);
    else if (avx2Kernels())
        EXPECT_EQ(simdLevel(), SimdLevel::Avx2);
    else
        EXPECT_EQ(simdLevel(), SimdLevel::Generic);
    // Put the env-resolved level back so later tests see the mode the
    // ctest variant requested.
    setSimdMode(simdLevelName(before));
}

TEST(SimdPopcount, ParityFuzz)
{
    Prng prng(101);
    for (std::size_t n :
         {std::size_t(0), std::size_t(1), std::size_t(2), std::size_t(3),
          std::size_t(4), std::size_t(7), std::size_t(15),
          std::size_t(16), std::size_t(63), std::size_t(64),
          std::size_t(65), std::size_t(513), std::size_t(4096)}) {
        std::vector<u64> words(n);
        for (auto &w : words)
            w = prng.next();
        if (n > 2) {
            words[0] = 0;
            words[1] = ~u64(0);
        }
        u64 naive = 0;
        for (u64 w : words)
            naive += u64(std::popcount(w));
        for (const SimdKernels *k : tablesUnderTest())
            EXPECT_EQ(k->popcountWords(words.data(), n), naive)
                << simdLevelName(k->level) << " n=" << n;
    }
}

TEST(SimdThresholdPack, ParityFuzzWithTails)
{
    Prng prng(202);
    for (int bits : {1, 5, 8, 12, 30}) {
        const u32 range = u32(1) << bits;
        for (u32 n : {1u, 37u, 63u, 64u, 65u, 128u, 130u, 1001u}) {
            std::vector<u32> values(n);
            for (auto &v : values)
                v = u32(prng.below(range));
            // Threshold extremes 0 and 2^bits alongside interior ones.
            for (u32 thr : {u32(0), u32(1), range / 2, range}) {
                const u32 nwords = (n + 63) / 64;
                std::vector<u64> naive(nwords, 0);
                for (u32 j = 0; j < n; ++j)
                    naive[j >> 6] |= u64(values[j] < thr) << (j & 63);
                for (const SimdKernels *k : tablesUnderTest()) {
                    // Poison the output so stale tail bits would show.
                    std::vector<u64> got(nwords, ~u64(0));
                    k->thresholdPackWords(values.data(), n, thr,
                                          got.data());
                    EXPECT_EQ(got, naive)
                        << simdLevelName(k->level) << " bits=" << bits
                        << " n=" << n << " thr=" << thr;
                }
            }
        }
    }
}

TEST(SimdPrefixPopcount, Parity)
{
    // Sizes straddle the vector-group widths (8 AVX2 / 16 AVX-512
    // words per store in the two-pass scheme) and the 4096-word block
    // boundary where the running offset hands over between blocks.
    Prng prng(303);
    for (u32 nwords : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u,
                       17u, 33u, 257u, 4095u, 4096u, 4097u, 8200u}) {
        std::vector<u64> words(nwords);
        for (auto &w : words)
            w = prng.next();
        std::vector<u32> naive(nwords + 1, 0);
        for (u32 w = 0; w < nwords; ++w)
            naive[w + 1] = naive[w] + u32(std::popcount(words[w]));
        for (const SimdKernels *k : tablesUnderTest()) {
            std::vector<u32> got(nwords + 1, 0xdeadbeefu);
            k->prefixPopcount(words.data(), nwords, got.data());
            EXPECT_EQ(got, naive)
                << simdLevelName(k->level) << " nwords=" << nwords;
        }
    }
}

TEST(SimdAxpyF32, BitExactParity)
{
    Prng prng(404);
    for (int n : {0, 1, 7, 8, 9, 16, 31, 100, 1023}) {
        std::vector<float> b(n), c0(n);
        for (int j = 0; j < n; ++j) {
            b[j] = float(prng.uniform(-4.0, 4.0));
            c0[j] = float(prng.uniform(-4.0, 4.0));
        }
        for (float a : {0.0f, 1.0f, -2.5f, 0.3333333f}) {
            std::vector<float> naive = c0;
            for (int j = 0; j < n; ++j)
                naive[j] += a * b[j];
            for (const SimdKernels *k : tablesUnderTest()) {
                std::vector<float> got = c0;
                k->axpyF32(got.data(), b.data(), a, n);
                // Bitwise, not approximate: the contract is one
                // multiply + one add per element on every tier.
                ASSERT_EQ(std::memcmp(got.data(), naive.data(),
                                      std::size_t(n) * sizeof(float)),
                          0)
                    << simdLevelName(k->level) << " n=" << n
                    << " a=" << a;
            }
        }
    }
}

TEST(SimdGemmRowI32, ParityIncludingExtremes)
{
    Prng prng(505);
    for (int n : {0, 1, 3, 4, 5, 8, 100, 255}) {
        std::vector<i32> b(n);
        std::vector<i64> c0(n);
        for (int j = 0; j < n; ++j) {
            b[j] = i32(prng.next());
            c0[j] = i64(prng.next() >> 8);
        }
        if (n >= 4) {
            b[0] = i32(0x80000000);        // INT32_MIN
            b[1] = 0x7fffffff;             // INT32_MAX
            b[2] = 0;
            b[3] = -1;
        }
        for (i32 a : {i32(0x80000000), i32(-1), i32(0), i32(1),
                      i32(0x7fffffff), i32(-12345)}) {
            std::vector<i64> naive = c0;
            for (int j = 0; j < n; ++j)
                naive[j] += i64(a) * i64(b[j]);
            for (const SimdKernels *k : tablesUnderTest()) {
                std::vector<i64> got = c0;
                k->gemmRowI32(got.data(), b.data(), a, n);
                EXPECT_EQ(got, naive)
                    << simdLevelName(k->level) << " n=" << n
                    << " a=" << a;
            }
        }
    }
}

/** Scalar reference: count via nextBit(), corrupting covered bits. */
u64
onesByBitLoop(BitstreamGen &gen, u32 window, const Fault *fault)
{
    u64 ones = 0;
    for (u32 t = 0; t < window; ++t) {
        bool bit = gen.nextBit();
        if (fault && fault->covers(t))
            bit = fault->corruptBit(bit, t);
        ones += u64(bit);
    }
    return ones;
}

TEST(SimdOnesInWindow, MatchesBitLoopUnderMasksAndFaults)
{
    const int bits = 7; // 128-cycle full window
    const u32 full = u32(1) << bits;
    const Fault faults[] = {
        {FaultKind::BitFlip, 0, 1},
        {FaultKind::BitFlip, 63, 1},
        {FaultKind::StuckAt1, 64, 1},
        {FaultKind::StuckAt0, 17, 1},
        {FaultKind::Burst, 60, 9}, // straddles a word boundary
    };
    // Windows: full period, EBT truncations, sub-word, non-multiples
    // of 64 (masked final word), and 0.
    for (u32 window : {full, full / 2, u32(96), u32(64), u32(63),
                       u32(17), u32(1), u32(0)}) {
        // Zero magnitude, small, half, and max magnitudes.
        for (u32 mag : {u32(0), u32(1), full / 2, full}) {
            for (const Fault *f :
                 {static_cast<const Fault *>(nullptr), &faults[0],
                  &faults[1], &faults[2], &faults[3], &faults[4]}) {
                {
                    RateBsg a(mag, 1, bits);
                    RateBsg b(mag, 1, bits);
                    EXPECT_EQ(onesInWindow(a, window, f),
                              onesByBitLoop(b, window, f))
                        << "rate mag=" << mag << " win=" << window;
                }
                {
                    TemporalBsg a(mag, bits);
                    TemporalBsg b(mag, bits);
                    EXPECT_EQ(onesInWindow(a, window, f),
                              onesByBitLoop(b, window, f))
                        << "temporal mag=" << mag << " win=" << window;
                }
            }
        }
        for (i32 v : {-(i32(full) / 2), -3, 0, 5, i32(full) / 2 - 1}) {
            BipolarRateBsg a(v, 2, bits + 1);
            BipolarRateBsg b(v, 2, bits + 1);
            EXPECT_EQ(onesInWindow(a, window, &faults[4]),
                      onesByBitLoop(b, window, &faults[4]))
                << "bipolar v=" << v << " win=" << window;
        }
    }
}

TEST(SimdSobol, NextWordsMatchesScalarSteppingAndWraps)
{
    // bits=5 has a 32-value period: every word wraps twice, exercising
    // the batched path's period handling.
    for (int bits : {5, 8, 11}) {
        for (u32 thr : {u32(0), u32(7), u32(1) << (bits - 1),
                        u32(1) << bits}) {
            SobolSequence batched(3, bits);
            SobolSequence scalar(3, bits);
            u64 words[5];
            batched.nextWords(thr, words, 5);
            for (int w = 0; w < 5; ++w)
                EXPECT_EQ(words[w], scalar.nextWord(thr))
                    << "bits=" << bits << " thr=" << thr << " w=" << w;
            // State-identical afterwards: scalar stepping continues in
            // lockstep.
            for (int k = 0; k < 70; ++k)
                EXPECT_EQ(batched.next(), scalar.next());
            // And mixed word/batch stepping keeps agreeing.
            batched.nextWords(thr, words, 2);
            EXPECT_EQ(words[0], scalar.nextWord(thr));
            EXPECT_EQ(words[1], scalar.nextWord(thr));
        }
    }
}

TEST(SimdLfsr, NextWordsMatchesScalarStepping)
{
    for (int bits : {3, 8, 12}) {
        for (u32 thr : {u32(0), u32(5), u32(1) << (bits - 1),
                        u32(1) << bits}) {
            Lfsr batched(bits, 0xACEu);
            Lfsr scalar(bits, 0xACEu);
            u64 words[4];
            batched.nextWords(thr, words, 4);
            for (int w = 0; w < 4; ++w)
                EXPECT_EQ(words[w], scalar.nextWord(thr))
                    << "bits=" << bits << " thr=" << thr << " w=" << w;
            for (int k = 0; k < 10; ++k)
                EXPECT_EQ(batched.next(), scalar.next());
        }
    }
}

Matrix<i32>
randomCodes(int rows, int cols, Prng &prng)
{
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(255)) - 127;
    return m;
}

TEST(SimdGemm, ReferenceGemmMatchesNaive)
{
    Prng prng(606);
    const auto a = randomCodes(9, 33, prng);
    const auto b = randomCodes(33, 21, prng);
    const auto got = referenceGemm(a, b);
    for (int m = 0; m < a.rows(); ++m)
        for (int n = 0; n < b.cols(); ++n) {
            i64 acc = 0;
            for (int k = 0; k < a.cols(); ++k)
                acc += i64(a(m, k)) * i64(b(k, n));
            ASSERT_EQ(got(m, n), acc) << m << "," << n;
        }
}

TEST(SimdGemm, GemmFp32MatchesNaiveBitwise)
{
    Prng prng(707);
    MatF a(7, 19), b(19, 13);
    for (int r = 0; r < a.rows(); ++r)
        for (int c = 0; c < a.cols(); ++c)
            a(r, c) = float(prng.uniform(-1.0, 1.0));
    for (int r = 0; r < b.rows(); ++r)
        for (int c = 0; c < b.cols(); ++c)
            b(r, c) = float(prng.uniform(-1.0, 1.0));
    a(0, 0) = 0.0f; // exercise the zero-skip path
    const MatF got = gemmFp32(a, b);
    // Naive loop in the same k-then-n order with one multiply + one
    // add per element — the bit-exactness contract.
    MatF naive(a.rows(), b.cols(), 0.0f);
    for (int m = 0; m < a.rows(); ++m)
        for (int k = 0; k < a.cols(); ++k) {
            const float av = a(m, k);
            if (av == 0.0f)
                continue;
            for (int n = 0; n < b.cols(); ++n)
                naive(m, n) += av * b(k, n);
        }
    for (int m = 0; m < a.rows(); ++m)
        for (int n = 0; n < b.cols(); ++n)
            ASSERT_EQ(got(m, n), naive(m, n)) << m << "," << n;
}

TEST(SimdPackedArray, FoldIdenticalAcrossTiers)
{
    // The packed engine's outputs must not depend on the dispatched
    // tier — run the same fold under generic and auto and compare.
    const SimdLevel before = simdLevel();
    Prng prng(808);
    ArrayConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    const auto input = randomCodes(8, 8, prng);
    const auto weights = randomCodes(8, 8, prng);
    for (Scheme scheme :
         {Scheme::USystolicRate, Scheme::USystolicTemporal,
          Scheme::UgemmHybrid}) {
        cfg.kernel = {scheme, 8, scheme == Scheme::USystolicRate ? 6 : 0};
        const PackedArray array(cfg);
        setSimdMode("generic");
        const auto ref = array.runFold(input, weights);
        setSimdMode("auto");
        const auto got = array.runFold(input, weights);
        EXPECT_TRUE(ref.output == got.output) << cfg.kernel.name();
        EXPECT_EQ(ref.cycles, got.cycles) << cfg.kernel.name();
    }
    setSimdMode(simdLevelName(before));
}

} // namespace
} // namespace usys
