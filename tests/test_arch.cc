/**
 * @file
 * Tests for the PE models, the cycle-level systolic array, and the fast
 * functional GEMM engines. The load-bearing invariant: for every scheme,
 * bitwidth, and early-termination point, the cycle-level array produces
 * exactly the same accumulations as the O(1) functional executor, and
 * exact results for the binary schemes.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/prng.h"
#include "common/stats.h"
#include "arch/array.h"
#include "arch/functional.h"
#include "arch/pe.h"

namespace usys {
namespace {

Matrix<i32>
randomMatrix(int rows, int cols, int bits, Prng &prng)
{
    const i32 max_mag = maxMagnitude(bits);
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    return m;
}

TEST(KernelConfig, MacCycles)
{
    KernelConfig bp{Scheme::BinaryParallel, 8, 0};
    EXPECT_EQ(bp.macCycles(), 1u);

    KernelConfig bs{Scheme::BinarySerial, 8, 0};
    EXPECT_EQ(bs.macCycles(), 9u);

    KernelConfig ur{Scheme::USystolicRate, 8, 0};
    EXPECT_EQ(ur.mulCycles(), 128u);
    EXPECT_EQ(ur.macCycles(), 129u);

    KernelConfig ur6{Scheme::USystolicRate, 8, 6};
    EXPECT_EQ(ur6.mulCycles(), 32u);
    EXPECT_EQ(ur6.macCycles(), 33u);

    KernelConfig ut{Scheme::USystolicTemporal, 8, 0};
    EXPECT_EQ(ut.macCycles(), 129u);

    KernelConfig ug{Scheme::UgemmHybrid, 8, 0};
    EXPECT_EQ(ug.mulCycles(), 256u);
    EXPECT_EQ(ug.macCycles(), 257u);
}

TEST(KernelConfig, Names)
{
    KernelConfig ur6{Scheme::USystolicRate, 8, 6};
    EXPECT_EQ(ur6.name(), "UR-8b(ebt6)");
    KernelConfig bp{Scheme::BinaryParallel, 16, 0};
    EXPECT_EQ(bp.name(), "BP-16b");
}

/** Single PE (front end + core) must reproduce the product tables. */
TEST(Pe, SingleMacMatchesProductTable)
{
    KernelConfig cfg{Scheme::USystolicRate, 8, 0};
    GemmExecutor exec(cfg);
    RowFrontEnd fe(cfg);
    PeCore core(cfg);

    Prng prng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const i32 a = i32(prng.below(255)) - 127;
        const i32 b = i32(prng.below(255)) - 127;
        fe.loadInput(a);
        core.loadWeight(b);
        for (u32 p = 0; p < cfg.mulCycles(); ++p)
            core.stepMul(fe.step(p), p);
        fe.endMac();
        EXPECT_EQ(core.finishMac(0, a < 0), exec.singleProduct(a, b))
            << "a " << a << " b " << b;
    }
}

TEST(Pe, BinarySerialExact)
{
    KernelConfig cfg{Scheme::BinarySerial, 8, 0};
    RowFrontEnd fe(cfg);
    PeCore core(cfg);
    Prng prng(11);
    for (int trial = 0; trial < 200; ++trial) {
        const i32 a = i32(prng.below(255)) - 127;
        const i32 b = i32(prng.below(255)) - 127;
        fe.loadInput(a);
        core.loadWeight(b);
        for (u32 p = 0; p < cfg.mulCycles(); ++p)
            core.stepMul(fe.step(p), p);
        fe.endMac();
        EXPECT_EQ(core.finishMac(0, a < 0), i64(a) * b);
    }
}

TEST(Array, FoldLatencyBinaryParallelMatchesScaleSim)
{
    // SCALE-Sim weight-stationary fold latency: 2R + C + M - 2.
    ArrayConfig cfg;
    cfg.rows = 12;
    cfg.cols = 14;
    cfg.kernel = {Scheme::BinaryParallel, 8, 0};
    SystolicArray array(cfg);
    EXPECT_EQ(array.foldLatency(20), u64(2 * 12 + 14 + 20 - 2));
}

TEST(Array, FoldLatencyScalesWithMacCycles)
{
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 6}; // 33-cycle MAC
    SystolicArray array(cfg);
    EXPECT_EQ(array.foldLatency(10), u64(4 + (10 + 3) * 33 + 3));
}

using SchemeCase = std::tuple<Scheme, int, int>; // scheme, bits, et_bits

class ArrayVsFunctional : public ::testing::TestWithParam<SchemeCase>
{};

/**
 * Property: the cycle-level array and the functional executor agree
 * exactly, fold latency matches the closed form, and binary schemes are
 * exact against the reference GEMM.
 */
TEST_P(ArrayVsFunctional, ExactAgreement)
{
    const auto [scheme, bits, et_bits] = GetParam();
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 5;
    cfg.kernel = {scheme, bits, et_bits};

    Prng prng(u64(int(scheme)) * 1000 + u64(bits) * 10 + u64(et_bits));
    const int m_rows = 6;
    auto input = randomMatrix(m_rows, cfg.rows, bits, prng);
    auto weights = randomMatrix(cfg.rows, cfg.cols, bits, prng);

    SystolicArray array(cfg);
    auto fold = array.runFold(input, weights);
    EXPECT_EQ(fold.cycles, array.foldLatency(m_rows));

    GemmExecutor exec(cfg.kernel);
    auto expected = exec.run(input, weights);
    EXPECT_EQ(fold.output, expected) << cfg.kernel.name();

    if (scheme == Scheme::BinaryParallel ||
        scheme == Scheme::BinarySerial) {
        EXPECT_EQ(fold.output, referenceGemm(input, weights));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ArrayVsFunctional,
    ::testing::Values(
        SchemeCase{Scheme::BinaryParallel, 8, 0},
        SchemeCase{Scheme::BinaryParallel, 16, 0},
        SchemeCase{Scheme::BinarySerial, 8, 0},
        SchemeCase{Scheme::BinarySerial, 16, 0},
        SchemeCase{Scheme::USystolicRate, 8, 0},
        SchemeCase{Scheme::USystolicRate, 8, 6},
        SchemeCase{Scheme::USystolicRate, 8, 7},
        SchemeCase{Scheme::USystolicRate, 10, 8},
        SchemeCase{Scheme::USystolicTemporal, 8, 0},
        SchemeCase{Scheme::USystolicTemporal, 6, 0},
        SchemeCase{Scheme::UgemmHybrid, 8, 0},
        SchemeCase{Scheme::UgemmHybrid, 6, 0}));

/** Randomized shape sweep: decomposed array == functional everywhere. */
class RandomShapes : public ::testing::TestWithParam<int>
{};

TEST_P(RandomShapes, ArrayMatchesFunctional)
{
    Prng prng(u64(GetParam()) * 101 + 13);
    ArrayConfig cfg;
    cfg.rows = 1 + int(prng.below(7));
    cfg.cols = 1 + int(prng.below(7));
    const Scheme schemes[] = {Scheme::BinaryParallel,
                              Scheme::BinarySerial,
                              Scheme::USystolicRate,
                              Scheme::USystolicTemporal,
                              Scheme::UgemmHybrid};
    const Scheme scheme = schemes[prng.below(5)];
    const int bits = 6 + int(prng.below(3));
    int et = 0;
    if (scheme == Scheme::USystolicRate && prng.below(2))
        et = 4 + int(prng.below(u64(bits - 4) + 1));
    cfg.kernel = {scheme, bits, et};

    const int m_rows = 1 + int(prng.below(6));
    auto input = randomMatrix(m_rows, cfg.rows, bits, prng);
    auto weights = randomMatrix(cfg.rows, cfg.cols, bits, prng);
    const auto fold = SystolicArray(cfg).runFold(input, weights);
    const auto expected = GemmExecutor(cfg.kernel).run(input, weights);
    EXPECT_EQ(fold.output, expected) << cfg.kernel.name() << " "
                                     << cfg.rows << "x" << cfg.cols;
    EXPECT_EQ(fold.cycles, SystolicArray(cfg).foldLatency(m_rows));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomShapes, ::testing::Range(0, 20));

TEST(SystolicGemm, TiledBinaryExactAcrossRaggedShapes)
{
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::BinaryParallel, 8, 0};
    SystolicGemm gemm(cfg);
    Prng prng(3);
    // Deliberately ragged K and N to exercise zero padding.
    auto a = randomMatrix(5, 10, 8, prng);
    auto b = randomMatrix(10, 7, 8, prng);
    auto result = gemm.run(a, b);
    EXPECT_EQ(result.acc, referenceGemm(a, b));
    EXPECT_EQ(result.folds, u64(3 * 2)); // ceil(10/4) * ceil(7/4)
    EXPECT_GT(result.cycles, 0u);
}

TEST(SystolicGemm, TiledUnaryMatchesFunctionalTiled)
{
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 0};
    SystolicGemm gemm(cfg);
    Prng prng(5);
    auto a = randomMatrix(3, 9, 8, prng);
    auto b = randomMatrix(9, 6, 8, prng);
    auto result = gemm.run(a, b);

    // Functional equivalent with identical zero padding: padding with
    // zero codes adds exactly zero in the unipolar scheme.
    GemmExecutor exec(cfg.kernel);
    auto expected = exec.run(a, b);
    EXPECT_EQ(result.acc, expected);
}

TEST(Functional, UnaryAccuracyImprovesWithBits)
{
    Prng prng(17);
    double prev_rmse = 1e18;
    for (int bits : {6, 8, 10}) {
        KernelConfig cfg{Scheme::USystolicRate, bits, 0};
        GemmExecutor exec(cfg);
        auto a = randomMatrix(8, 16, bits, prng);
        auto b = randomMatrix(16, 8, bits, prng);
        auto acc = exec.run(a, b);
        auto exact = referenceGemm(a, b);
        RmseTracker rmse;
        for (int m = 0; m < 8; ++m) {
            for (int n = 0; n < 8; ++n) {
                rmse.add(double(exact(m, n)),
                         double(acc(m, n)) * exec.resultScale());
            }
        }
        EXPECT_LT(rmse.normalizedRmse(), prev_rmse) << "bits " << bits;
        prev_rmse = rmse.normalizedRmse();
    }
}

TEST(Functional, EarlyTerminationDegradesGracefullyForRate)
{
    Prng prng(23);
    const int bits = 8;
    auto a = randomMatrix(8, 16, bits, prng);
    auto b = randomMatrix(16, 8, bits, prng);
    auto exact = referenceGemm(a, b);

    double prev = 1e18;
    for (int ebt : {8, 7, 6, 5}) {
        KernelConfig cfg{Scheme::USystolicRate, bits, ebt};
        GemmExecutor exec(cfg);
        auto acc = exec.run(a, b);
        RmseTracker rmse;
        for (int m = 0; m < 8; ++m)
            for (int n = 0; n < 8; ++n)
                rmse.add(double(exact(m, n)),
                         double(acc(m, n)) * exec.resultScale());
        // Error grows as EBT shrinks but stays bounded (graceful).
        if (ebt < 8) {
            EXPECT_GE(prev * 1.5 + 0.01, 0.0);
        }
        EXPECT_LT(rmse.normalizedRmse(), 0.2) << "ebt " << ebt;
        prev = rmse.normalizedRmse();
    }
}

TEST(Functional, ResultScale)
{
    EXPECT_EQ(GemmExecutor({Scheme::BinaryParallel, 8, 0}).resultScale(),
              1.0);
    EXPECT_EQ(GemmExecutor({Scheme::USystolicRate, 8, 0}).resultScale(),
              128.0);
    EXPECT_EQ(GemmExecutor({Scheme::UgemmHybrid, 8, 0}).resultScale(),
              128.0);
}

// --- EBT boundaries ---------------------------------------------------

TEST(Ebt, DegenerateAndFullPointsValidate)
{
    // EBT=1 would leave a single unary cycle and no shift-back headroom;
    // the config layer rejects it (0 or [2, bits] only).
    KernelConfig ebt1{Scheme::USystolicRate, 8, 1};
    EXPECT_EXIT(ebt1.check(), ::testing::ExitedWithCode(1), "et_bits");
    KernelConfig ebt_over{Scheme::USystolicRate, 8, 9};
    EXPECT_EXIT(ebt_over.check(), ::testing::ExitedWithCode(1),
                "et_bits");
    KernelConfig ebt_bs{Scheme::BinarySerial, 8, 4};
    EXPECT_EXIT(ebt_bs.check(), ::testing::ExitedWithCode(1),
                "rate coding");

    // EBT=2 is the shortest legal window (2 unary cycles).
    KernelConfig ebt2{Scheme::USystolicRate, 8, 2};
    ebt2.check();
    EXPECT_EQ(ebt2.mulCycles(), 2u);
}

TEST(Ebt, FullWidthPointEqualsNoTermination)
{
    // EBT=N runs the full 2^(N-1) period: bit-exact against EBT=0 on
    // every output, and the same fold latency.
    const int bits = 6;
    ArrayConfig full, ebt;
    full.rows = ebt.rows = 4;
    full.cols = ebt.cols = 4;
    full.kernel = {Scheme::USystolicRate, bits, 0};
    ebt.kernel = {Scheme::USystolicRate, bits, bits};
    EXPECT_EQ(ebt.kernel.mulCycles(), full.kernel.mulCycles());

    Prng prng(0xEB7ull);
    const auto input = randomMatrix(5, 4, bits, prng);
    const auto weights = randomMatrix(4, 4, bits, prng);
    const auto a = SystolicArray(full).runFold(input, weights);
    const auto b = SystolicArray(ebt).runFold(input, weights);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Ebt, ZeroMagnitudeOperandsSurviveEveryScheme)
{
    // All-zero tiles exercise the zero-magnitude BSG paths (no 1-bits
    // ever emitted, bipolar bias-only lanes) at full and minimum EBT.
    const int bits = 6;
    const std::tuple<Scheme, int> cases[] = {
        {Scheme::BinaryParallel, 0}, {Scheme::BinarySerial, 0},
        {Scheme::USystolicRate, 0},  {Scheme::USystolicRate, 2},
        {Scheme::USystolicTemporal, 0}, {Scheme::UgemmHybrid, 0}};
    for (const auto &[scheme, et] : cases) {
        ArrayConfig cfg;
        cfg.rows = 3;
        cfg.cols = 3;
        cfg.kernel = {scheme, bits, et};
        Matrix<i32> zeros_in(4, 3), zeros_w(3, 3);
        Prng prng(u64(int(scheme)) + 1);
        const auto rand_w = randomMatrix(3, 3, bits, prng);

        const auto zz = SystolicArray(cfg).runFold(zeros_in, zeros_w);
        const auto zw = SystolicArray(cfg).runFold(zeros_in, rand_w);
        const auto fz = GemmExecutor(cfg.kernel).run(zeros_in, zeros_w);
        const auto fw = GemmExecutor(cfg.kernel).run(zeros_in, rand_w);
        EXPECT_EQ(zz.output, fz) << cfg.kernel.name();
        EXPECT_EQ(zw.output, fw) << cfg.kernel.name();
        // Zero x zero must accumulate to exactly zero for the exact
        // schemes (unary bipolar has a bias term, so only check BP/BS).
        if (!isUnary(scheme)) {
            for (int m = 0; m < 4; ++m)
                for (int c = 0; c < 3; ++c)
                    EXPECT_EQ(zz.output(m, c), 0);
        }
    }
}

TEST(Functional, UgemmAccuracyComparableToUSystolic)
{
    // uGEMM-H merely changes the hardware cost, not the resolution
    // (Section V-A): its GEMM error should be in the same ballpark.
    Prng prng(29);
    const int bits = 8;
    auto a = randomMatrix(8, 12, bits, prng);
    auto b = randomMatrix(12, 8, bits, prng);
    auto exact = referenceGemm(a, b);

    auto nrmse = [&](Scheme s) {
        KernelConfig cfg{s, bits, 0};
        GemmExecutor exec(cfg);
        auto acc = exec.run(a, b);
        RmseTracker rmse;
        for (int m = 0; m < 8; ++m)
            for (int n = 0; n < 8; ++n)
                rmse.add(double(exact(m, n)),
                         double(acc(m, n)) * exec.resultScale());
        return rmse.normalizedRmse();
    };

    const double ur = nrmse(Scheme::USystolicRate);
    const double ug = nrmse(Scheme::UgemmHybrid);
    EXPECT_LT(ur, 0.1);
    EXPECT_LT(ug, 0.15);
    EXPECT_LT(ug, ur * 6 + 0.02);
}

// --- GemmExecutor::run vs the per-MAC definition -------------------------

/** Sum over k of singleProduct: the definition run() must reproduce. */
Matrix<i64>
perMacGemm(const GemmExecutor &exec, const Matrix<i32> &a,
           const Matrix<i32> &b)
{
    Matrix<i64> c(a.rows(), b.cols(), 0);
    for (int m = 0; m < a.rows(); ++m)
        for (int n = 0; n < b.cols(); ++n)
            for (int k = 0; k < a.cols(); ++k)
                c(m, n) += exec.singleProduct(a(m, k), b(k, n));
    return c;
}

/** Uniform code in [-max, max], drawn as exactly +-max one time in 8. */
i32
drawCode(int bits, Prng &prng)
{
    const i32 max_mag = maxMagnitude(bits);
    switch (prng.below(8)) {
      case 0: return prng.below(2) ? max_mag : -max_mag;
      default:
        return i32(prng.below(2 * u64(max_mag) + 1)) - max_mag;
    }
}

/**
 * Differential sweep: every scheme, bitwidth and early-termination point
 * across ragged N and activation zero fractions, with mixed signs and
 * full-scale codes. Exercises the staged weights, hoisted table rows,
 * zero skipping and the once-per-row termination shift of run().
 */
TEST(Functional, RunEqualsSumOfSingleProducts)
{
    const Scheme schemes[] = {
        Scheme::BinaryParallel, Scheme::BinarySerial,
        Scheme::USystolicRate,  Scheme::USystolicTemporal,
        Scheme::UgemmHybrid,    Scheme::TubGemm,
        Scheme::TuGemm};
    Prng prng(0xD1FFull);
    int cases = 0;
    for (const Scheme scheme : schemes) {
        for (const int bits : {2, 3, 6, 8, 12, 13}) {
            // The bipolar tables cap at 12 signed bits.
            if (scheme == Scheme::UgemmHybrid && bits > 12)
                continue;
            std::vector<int> ets{0};
            if (scheme == Scheme::USystolicRate)
                for (int et = 2; et <= bits; ++et)
                    ets.push_back(et);
            for (const int et : ets) {
                const GemmExecutor exec({scheme, bits, et});
                for (const int n_dim : {1, 7, 8, 9, 17, 33}) {
                    for (const double zero_frac : {0.0, 0.5, 0.95}) {
                        const int m_rows = 1 + int(prng.below(4));
                        const int k_dim = 1 + int(prng.below(24));
                        Matrix<i32> a(m_rows, k_dim), b(k_dim, n_dim);
                        for (auto &v : a.data())
                            v = prng.uniform() < zero_frac
                                    ? 0
                                    : drawCode(bits, prng);
                        for (auto &v : b.data())
                            v = drawCode(bits, prng);
                        ASSERT_EQ(exec.run(a, b), perMacGemm(exec, a, b))
                            << exec.config().name() << " M " << m_rows
                            << " K " << k_dim << " N " << n_dim
                            << " zeros " << zero_frac;
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 1422); // 79 kernel configs x 6 N x 3 zero fractions
}

TEST(Functional, BipolarZeroInputIsANullProduct)
{
    // The uGEMM-H kernel skips zero inputs on this identity (the model's
    // constructor also checks it); zero weights stay in (they are not
    // null products).
    for (int bits = 2; bits <= 12; ++bits) {
        const BipolarProductModel &model = bipolarModelFor(bits);
        const i32 half = i32(model.period() / 2);
        bool zero_weight_null = true;
        for (i32 v = -half; v < half; ++v) {
            ASSERT_EQ(model.scaledProduct(0, v), 0) << bits << " w " << v;
            zero_weight_null &= model.scaledProduct(v, 0) == 0;
        }
        EXPECT_FALSE(zero_weight_null) << bits;
    }
}

TEST(Functional, RowAccumulatorHoldsLongFullScaleSums)
{
    // 600k full-scale 13-bit MACs into one output: the count sum passes
    // 2^31, so an i32 accumulator anywhere on the path would wrap.
    const int bits = 13;
    const int k_dim = 600000;
    const i32 max_mag = maxMagnitude(bits);
    for (const Scheme scheme :
         {Scheme::USystolicRate, Scheme::USystolicTemporal}) {
        const GemmExecutor exec({scheme, bits, 0});
        Matrix<i32> a(1, k_dim, max_mag), b(k_dim, 1, max_mag);
        const i64 expect = i64(k_dim) * exec.singleProduct(max_mag, max_mag);
        ASSERT_GT(expect, i64(1) << 31);
        EXPECT_EQ(exec.run(a, b)(0, 0), expect) << exec.config().name();
        b.data().assign(b.data().size(), -max_mag);
        EXPECT_EQ(exec.run(a, b)(0, 0), -expect) << exec.config().name();
    }
}

} // namespace
} // namespace usys
