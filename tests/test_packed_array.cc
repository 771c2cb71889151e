/**
 * @file
 * Packed-engine cross-validation: the word-packed PackedArray must
 * reproduce SystolicArray and RtlArray bit-for-bit and cycle-for-cycle
 * on every scheme, bitwidth, early-termination point, and array shape —
 * including the masked-final-word boundary (UR EBT windows shorter than
 * one 64-bit word) — and commit byte-identical stats-registry deltas,
 * so flipping the engine (or running tiles in parallel) can never
 * change a result or a dump.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "common/stats_registry.h"
#include "arch/packed_array.h"
#include "arch/rtl_array.h"

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

using PackedCase = std::tuple<Scheme, int, int, int, int>;
// scheme, bits, et_bits, rows, cols

class PackedVsScalar : public ::testing::TestWithParam<PackedCase>
{};

TEST_P(PackedVsScalar, BitCycleAndStatsExactAgreement)
{
    const auto [scheme, bits, et_bits, rows, cols] = GetParam();
    ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.kernel = {scheme, bits, et_bits};

    // Several random tiles per configuration, including one all-zeros
    // and one full-scale tile via the magnitude extremes of the PRNG.
    for (u64 trial = 0; trial < 4; ++trial) {
        Prng prng(u64(int(scheme)) * 7919 + u64(bits) * 131 +
                  u64(et_bits) * 13 + u64(rows) * 17 + u64(cols) +
                  trial * 104729);
        const int m_rows = 5;
        auto input = randomMatrix(m_rows, rows, bits, prng);
        auto weights = randomMatrix(rows, cols, bits, prng);
        if (trial == 1) {
            // Magnitude extremes: zeros and +/- full scale.
            const i32 mm = maxMagnitude(bits);
            input(0, 0) = 0;
            weights(0, 0) = 0;
            input(m_rows - 1, rows - 1) = mm;
            weights(rows - 1, cols - 1) = -mm;
        }

        statsRegistry().reset();
        const auto scalar = SystolicArray(cfg).runFold(input, weights);
        const std::string scalar_dump = statsRegistry().dumpText();

        statsRegistry().reset();
        const auto packed = PackedArray(cfg).runFold(input, weights);
        const std::string packed_dump = statsRegistry().dumpText();

        EXPECT_EQ(packed.output, scalar.output)
            << cfg.kernel.name() << " trial " << trial;
        EXPECT_EQ(packed.cycles, scalar.cycles) << cfg.kernel.name();
        EXPECT_EQ(packed_dump, scalar_dump) << cfg.kernel.name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndEbt, PackedVsScalar,
    ::testing::Values(
        PackedCase{Scheme::BinaryParallel, 8, 0, 4, 4},
        PackedCase{Scheme::BinaryParallel, 16, 0, 3, 6},
        PackedCase{Scheme::BinarySerial, 8, 0, 4, 4},
        PackedCase{Scheme::BinarySerial, 12, 0, 5, 3},
        PackedCase{Scheme::USystolicRate, 8, 0, 4, 4},
        // EBT 6: a 32-cycle window — the masked-final-word boundary.
        PackedCase{Scheme::USystolicRate, 8, 6, 4, 5},
        PackedCase{Scheme::USystolicRate, 8, 7, 2, 7},
        PackedCase{Scheme::USystolicRate, 8, 8, 3, 3},
        PackedCase{Scheme::USystolicRate, 10, 6, 3, 3},
        PackedCase{Scheme::USystolicRate, 10, 8, 3, 3},
        // 4-bit: the whole 8-cycle period fits in a fraction of a word.
        PackedCase{Scheme::USystolicRate, 4, 0, 4, 4},
        PackedCase{Scheme::USystolicTemporal, 8, 0, 4, 4},
        PackedCase{Scheme::USystolicTemporal, 7, 0, 6, 2},
        PackedCase{Scheme::USystolicTemporal, 4, 0, 3, 5},
        PackedCase{Scheme::UgemmHybrid, 7, 0, 4, 4},
        PackedCase{Scheme::UgemmHybrid, 8, 0, 2, 3},
        PackedCase{Scheme::UgemmHybrid, 4, 0, 4, 4},
        PackedCase{Scheme::TubGemm, 8, 0, 4, 4},
        PackedCase{Scheme::TubGemm, 4, 0, 3, 5},
        // tuGEMM at small bits: the scalar referee walks the full
        // 2^(2(N-1))-cycle square period per MAC.
        PackedCase{Scheme::TuGemm, 4, 0, 4, 4},
        PackedCase{Scheme::TuGemm, 5, 0, 3, 3},
        // Beyond the product tables (unipolar > 13 bits, bipolar > 12):
        // the per-MAC packed-stream path is the only packed path.
        PackedCase{Scheme::USystolicRate, 14, 0, 3, 3},
        PackedCase{Scheme::UgemmHybrid, 13, 0, 3, 3}));

TEST(PackedArray, MatchesRtlRefereeAcrossEbt)
{
    // Direct referee check against the two-phase clocked RtlArray for
    // every unary scheme and EBT point the paper evaluates.
    const PackedCase cases[] = {
        {Scheme::USystolicRate, 8, 6, 4, 4},
        {Scheme::USystolicRate, 8, 7, 4, 4},
        {Scheme::USystolicRate, 8, 8, 4, 4},
        {Scheme::USystolicTemporal, 8, 0, 4, 4},
        {Scheme::UgemmHybrid, 8, 0, 4, 4},
        {Scheme::BinarySerial, 8, 0, 4, 4},
        {Scheme::BinaryParallel, 8, 0, 4, 4},
        {Scheme::TubGemm, 8, 0, 4, 4},
        {Scheme::TuGemm, 4, 0, 4, 4},
    };
    for (const auto &[scheme, bits, et_bits, rows, cols] : cases) {
        ArrayConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.kernel = {scheme, bits, et_bits};
        Prng prng(u64(int(scheme)) * 31 + u64(et_bits));
        const auto input = randomMatrix(6, rows, bits, prng);
        const auto weights = randomMatrix(rows, cols, bits, prng);
        const auto rtl = RtlArray(cfg).runFold(input, weights);
        const auto packed = PackedArray(cfg).runFold(input, weights);
        EXPECT_EQ(packed.output, rtl.output) << cfg.kernel.name();
        EXPECT_EQ(packed.cycles, rtl.cycles) << cfg.kernel.name();
    }
}

TEST(PackedArray, DegenerateShapes)
{
    for (auto [rows, cols] : {std::pair{1, 5}, std::pair{5, 1},
                              std::pair{1, 1}}) {
        ArrayConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.kernel = {Scheme::USystolicRate, 8, 6};
        Prng prng(u64(rows) * 100 + u64(cols));
        const auto input = randomMatrix(4, rows, 8, prng);
        const auto weights = randomMatrix(rows, cols, 8, prng);
        const auto ref = SystolicArray(cfg).runFold(input, weights);
        const auto packed = PackedArray(cfg).runFold(input, weights);
        EXPECT_EQ(packed.output, ref.output) << rows << "x" << cols;
        EXPECT_EQ(packed.cycles, ref.cycles) << rows << "x" << cols;
    }
}

TEST(PackedArray, FoldStatsDeltaFlushEqualsInlineCommit)
{
    ArrayConfig cfg;
    cfg.rows = 3;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 6};
    Prng prng(42);
    const auto input = randomMatrix(5, cfg.rows, 8, prng);
    const auto weights = randomMatrix(cfg.rows, cfg.cols, 8, prng);

    statsRegistry().reset();
    PackedArray(cfg).runFold(input, weights);
    PackedArray(cfg).runFold(input, weights);
    const std::string inline_dump = statsRegistry().dumpText();

    statsRegistry().reset();
    FoldStatsDelta delta;
    PackedArray(cfg).runFold(input, weights, &delta);
    PackedArray(cfg).runFold(input, weights, &delta);
    delta.flush(cfg.kernel);
    const std::string deferred_dump = statsRegistry().dumpText();

    EXPECT_EQ(deferred_dump, inline_dump);
}

class PackedFlagGuard
{
  public:
    PackedFlagGuard() : saved_(packedEngineEnabled()) {}
    ~PackedFlagGuard() { setPackedEngineEnabled(saved_); }

  private:
    bool saved_;
};

TEST(SystolicGemm, PackedAndScalarEnginesAgreeIncludingStats)
{
    PackedFlagGuard guard;
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    // Ragged shapes: K and N not multiples of the array dims, so padded
    // edge tiles are exercised in both engines.
    for (const KernelConfig kern :
         {KernelConfig{Scheme::USystolicRate, 8, 6},
          KernelConfig{Scheme::USystolicTemporal, 8, 0},
          KernelConfig{Scheme::UgemmHybrid, 7, 0},
          KernelConfig{Scheme::BinarySerial, 8, 0}}) {
        cfg.kernel = kern;
        Prng prng(u64(int(kern.scheme)) + 1000);
        const auto a = randomMatrix(6, 10, kern.bits, prng);
        const auto b = randomMatrix(10, 9, kern.bits, prng);

        setPackedEngineEnabled(false);
        statsRegistry().reset();
        const auto scalar = SystolicGemm(cfg).run(a, b);
        const std::string scalar_dump = statsRegistry().dumpText();

        setPackedEngineEnabled(true);
        statsRegistry().reset();
        const auto packed = SystolicGemm(cfg).run(a, b);
        const std::string packed_dump = statsRegistry().dumpText();

        EXPECT_EQ(packed.acc, scalar.acc) << kern.name();
        EXPECT_EQ(packed.cycles, scalar.cycles) << kern.name();
        EXPECT_EQ(packed.folds, scalar.folds) << kern.name();
        EXPECT_EQ(packed_dump, scalar_dump) << kern.name();
    }
}

/** Restores the executor's thread count on scope exit. */
class ThreadsGuard
{
  public:
    ThreadsGuard() : saved_(Executor::global().threads()) {}
    ~ThreadsGuard() { Executor::global().setThreads(saved_); }

  private:
    unsigned saved_;
};

class PackedGemmVsScalar : public ::testing::TestWithParam<KernelConfig>
{};

TEST_P(PackedGemmVsScalar, ZeroHeavyOperandsAcrossThreads)
{
    // Zero skipping is exact: with ~60% zero activations plus a column
    // of zero weights, the packed GEMM (the fold-free table row-kernel
    // pass) must match the --no-packed scalar referee in outputs,
    // cycles, folds and the whole stats dump — sparsity census
    // included — at 1 and 3 executor threads.
    const KernelConfig kern = GetParam();
    PackedFlagGuard guard;
    ThreadsGuard threads;
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = kern;
    Prng prng(u64(int(kern.scheme)) * 11 + u64(kern.et_bits) + 5000);
    auto a = randomMatrix(6, 10, kern.bits, prng);
    auto b = randomMatrix(10, 9, kern.bits, prng);
    for (int r = 0; r < a.rows(); ++r)
        for (int c = 0; c < a.cols(); ++c)
            if (prng.below(100) < 60)
                a(r, c) = 0;
    for (int c = 0; c < b.cols(); c += 3)
        b(1, c) = 0;

    setPackedEngineEnabled(false);
    statsRegistry().reset();
    const auto scalar = SystolicGemm(cfg).run(a, b);
    const std::string scalar_dump = statsRegistry().dumpText();
    ASSERT_NE(scalar_dump.find("sparsity_zero_acts"), std::string::npos);

    setPackedEngineEnabled(true);
    for (unsigned nthreads : {1u, 3u}) {
        Executor::global().setThreads(nthreads);
        statsRegistry().reset();
        const auto packed = SystolicGemm(cfg).run(a, b);
        const std::string packed_dump = statsRegistry().dumpText();
        EXPECT_EQ(packed.acc, scalar.acc) << kern.name() << " t" << nthreads;
        EXPECT_EQ(packed.cycles, scalar.cycles)
            << kern.name() << " t" << nthreads;
        EXPECT_EQ(packed.folds, scalar.folds)
            << kern.name() << " t" << nthreads;
        EXPECT_EQ(packed_dump, scalar_dump)
            << kern.name() << " t" << nthreads;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PackedGemmVsScalar,
    ::testing::Values(KernelConfig{Scheme::BinaryParallel, 8, 0},
                      KernelConfig{Scheme::BinarySerial, 8, 0},
                      KernelConfig{Scheme::USystolicRate, 8, 0},
                      KernelConfig{Scheme::USystolicRate, 8, 6},
                      KernelConfig{Scheme::USystolicTemporal, 8, 0},
                      KernelConfig{Scheme::UgemmHybrid, 7, 0},
                      KernelConfig{Scheme::TubGemm, 8, 0},
                      KernelConfig{Scheme::TuGemm, 4, 0}));

/** Random codes with roughly `zero_frac` of the entries forced to 0. */
Matrix<i32>
sparseMatrix(int rows, int cols, int bits, double zero_frac, Prng &prng)
{
    Matrix<i32> m = randomMatrix(rows, cols, bits, prng);
    for (i32 &v : m.data())
        if (prng.uniform() < zero_frac)
            v = 0;
    return m;
}

TEST(SystolicGemm, FoldFreePassMatchesScalarFoldLoopRandomized)
{
    // Seeded differential sweep of the packed GEMM (the fold-free
    // row-kernel pass whenever no per-MAC fault site is active, DRAM
    // and weight-register faults included; the fold loop under
    // accumulator faults) against the --no-packed scalar fold loop on
    // the 12 x 14 edge array: outputs, cycles, folds and the whole
    // stats dump, fault and sparsity census and the arch.fold_m_rows
    // histogram included, at 1 and 3 threads and through both the
    // flush and the deferred-delta form.
    PackedFlagGuard guard;
    ThreadsGuard threads;
    // Every scheme, UR also early-terminated (tuGEMM at 4 bits: the
    // scalar referee walks its whole square period per MAC).
    const KernelConfig kerns[] = {
        {Scheme::BinaryParallel, 8, 0}, {Scheme::BinarySerial, 8, 0},
        {Scheme::USystolicRate, 8, 0},  {Scheme::USystolicRate, 8, 6},
        {Scheme::USystolicTemporal, 8, 0}, {Scheme::UgemmHybrid, 7, 0},
        {Scheme::TubGemm, 8, 0},        {Scheme::TuGemm, 4, 0}};
    const double zero_fracs[] = {0.0, 0.6, 1.0};
    Prng prng(0xF01DF4EEull);
    for (int trial = 0; trial < 200; ++trial) {
        ArrayConfig cfg;
        cfg.rows = 12;
        cfg.cols = 14;
        cfg.kernel = kerns[trial % 8];
        const int bits = cfg.kernel.bits;
        int m = 1, k = 1, n = 1;
        switch (prng.below(4)) {
          case 0: // one partial tile: K < 12, N < 14
            k = 1 + int(prng.below(11));
            n = 1 + int(prng.below(13));
            break;
          case 1: // N wider than one 256-column block; K up to past
                  // the 128 B rows a full block censuses per chunk
            k = 1 + int(prng.below(200));
            n = 257 + int(prng.below(60));
            break;
          case 2: // tall M
            m = 16 + int(prng.below(24));
            k = 1 + int(prng.below(26));
            n = 1 + int(prng.below(30));
            break;
          default: // ragged K and N over several tiles
            m = 1 + int(prng.below(5));
            k = 1 + int(prng.below(60));
            n = 1 + int(prng.below(50));
            break;
        }
        const Matrix<i32> a =
            sparseMatrix(m, k, bits, zero_fracs[prng.below(3)], prng);
        const Matrix<i32> b =
            sparseMatrix(k, n, bits, zero_fracs[prng.below(3)], prng);
        // 0-1 none, 2 DRAM, 3 weight reg, 4 weight reg + DRAM,
        // 5 weight reg + accumulator (the fold loop)
        const u64 plan = prng.below(6);
        cfg.faults.seed = 0xD1FFull + u64(trial);
        if (plan >= 3)
            cfg.faults.rates.weight_reg = 0.2;
        if (plan == 2 || plan == 4)
            cfg.faults.rates.dram_word = 0.2;
        else if (plan == 5)
            cfg.faults.rates.accumulator = 0.05;
        const std::string what = cfg.kernel.name() + " trial " +
                                 std::to_string(trial) + " " +
                                 std::to_string(m) + "x" +
                                 std::to_string(k) + "x" +
                                 std::to_string(n) + " plan " +
                                 std::to_string(plan);

        setPackedEngineEnabled(false);
        statsRegistry().reset();
        const auto scalar = SystolicGemm(cfg).run(a, b);
        const std::string scalar_dump = statsRegistry().dumpText();

        setPackedEngineEnabled(true);
        for (unsigned nthreads : {1u, 3u}) {
            Executor::global().setThreads(nthreads);
            statsRegistry().reset();
            const auto packed = SystolicGemm(cfg).run(a, b);
            const std::string packed_dump = statsRegistry().dumpText();
            statsRegistry().reset();
            FoldStatsDelta delta;
            SystolicGemm(cfg).run(a, b, &delta);
            delta.flush(cfg.kernel);
            const std::string deferred_dump = statsRegistry().dumpText();
            const std::string at = what + " t" + std::to_string(nthreads);
            ASSERT_EQ(packed.acc, scalar.acc) << at;
            ASSERT_EQ(packed.cycles, scalar.cycles) << at;
            ASSERT_EQ(packed.folds, scalar.folds) << at;
            ASSERT_EQ(packed_dump, scalar_dump) << at;
            ASSERT_EQ(deferred_dump, scalar_dump) << at;
        }
    }
}

TEST(SystolicGemm, EmptyOperandsMatchScalar)
{
    // M, K or N of zero takes the fold loop; under a DRAM plan the
    // packed and scalar engines must still agree, and N = 0 (no column
    // tile to book the DRAM events on) must not index past the shards.
    PackedFlagGuard guard;
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 0};
    cfg.faults.seed = 9;
    cfg.faults.rates.dram_word = 0.5;
    for (const auto &[m, k, n] : {std::tuple{0, 5, 7}, std::tuple{3, 0, 7},
                                 std::tuple{3, 5, 0}}) {
        Prng prng(u64(m * 100 + k * 10 + n));
        const auto a = randomMatrix(m, k, 8, prng);
        const auto b = randomMatrix(k, n, 8, prng);
        std::string dumps[2];
        SystolicGemm::RunResult runs[2];
        for (const bool packed : {false, true}) {
            setPackedEngineEnabled(packed);
            statsRegistry().reset();
            runs[packed] = SystolicGemm(cfg).run(a, b);
            dumps[packed] = statsRegistry().dumpText();
        }
        const std::string at = std::to_string(m) + "x" + std::to_string(k) +
                               "x" + std::to_string(n);
        EXPECT_EQ(runs[1].acc, runs[0].acc) << at;
        EXPECT_EQ(runs[1].acc.rows(), m) << at;
        EXPECT_EQ(runs[1].acc.cols(), n) << at;
        EXPECT_EQ(runs[1].cycles, runs[0].cycles) << at;
        EXPECT_EQ(dumps[1], dumps[0]) << at;
    }
}

/** Packed and scalar runFold on one tile: outputs, cycles, census. */
void
expectFoldMatchesScalar(const ArrayConfig &cfg, const Matrix<i32> &input,
                        const Matrix<i32> &weights)
{
    FoldStatsDelta sd, pd;
    const auto scalar = SystolicArray(cfg).runFold(input, weights, &sd);
    const auto packed = PackedArray(cfg).runFold(input, weights, &pd);
    const std::string name = cfg.kernel.name();
    EXPECT_EQ(packed.output, scalar.output) << name;
    EXPECT_EQ(packed.cycles, scalar.cycles) << name;
    EXPECT_EQ(pd.faults_weight_reg, sd.faults_weight_reg) << name;
    EXPECT_EQ(pd.faults_activation, sd.faults_activation) << name;
    EXPECT_EQ(pd.faults_weight_stream, sd.faults_weight_stream) << name;
    EXPECT_EQ(pd.faults_accumulator, sd.faults_accumulator) << name;
    EXPECT_EQ(pd.sparsity_zero_acts, sd.sparsity_zero_acts) << name;
    EXPECT_EQ(pd.sparsity_skippable_macs, sd.sparsity_skippable_macs)
        << name;
    EXPECT_GT(sd.faultTotal(), 0u) << name << ": plan injected nothing";
}

TEST(PackedArray, WeightRegFaultsMatchScalarFold)
{
    // Weight-register faults corrupt the latched codes through the same
    // latchWeights() in both engines; the packed fold must match the
    // scalar referee, census included, on zero-heavy tiles.
    for (const KernelConfig kern :
         {KernelConfig{Scheme::USystolicRate, 8, 6},
          KernelConfig{Scheme::UgemmHybrid, 7, 0},
          KernelConfig{Scheme::TubGemm, 8, 0},
          KernelConfig{Scheme::BinaryParallel, 8, 0}}) {
        ArrayConfig cfg;
        cfg.rows = 4;
        cfg.cols = 4;
        cfg.kernel = kern;
        cfg.faults.seed = 77;
        cfg.faults.rates.weight_reg = 0.3;
        Prng prng(u64(int(kern.scheme)) + 7000);
        auto input = randomMatrix(6, cfg.rows, kern.bits, prng);
        auto weights = randomMatrix(cfg.rows, cfg.cols, kern.bits, prng);
        for (int r = 0; r < input.rows(); ++r)
            input(r, r % cfg.rows) = 0;
        weights(1, 2) = 0;
        expectFoldMatchesScalar(cfg, input, weights);
    }
}

TEST(PackedArray, StagedSchemesMatchScalarUnderActivationFaults)
{
    // Activation-stream faults land on the staged values of the exact
    // schemes (corrupted codes for BP/BS, corrupted ones-counts for
    // tubGEMM/tuGEMM), which then run the integer-product loop; the
    // scalar referee must still agree.
    for (const FaultKind kind : {FaultKind::BitFlip, FaultKind::StuckAt1,
                                 FaultKind::Burst}) {
        for (const KernelConfig kern :
             {KernelConfig{Scheme::TubGemm, 6, 0},
              KernelConfig{Scheme::TuGemm, 4, 0},
              KernelConfig{Scheme::BinaryParallel, 8, 0},
              KernelConfig{Scheme::BinarySerial, 8, 0}}) {
            ArrayConfig cfg;
            cfg.rows = 4;
            cfg.cols = 5;
            cfg.kernel = kern;
            cfg.faults.seed = 0x5EEDull + u64(int(kind));
            cfg.faults.kind = kind;
            cfg.faults.rates.activation_stream = 0.4;
            Prng prng(u64(int(kern.scheme)) * 3 + u64(int(kind)) + 9000);
            auto input = randomMatrix(6, cfg.rows, kern.bits, prng);
            const auto weights =
                randomMatrix(cfg.rows, cfg.cols, kern.bits, prng);
            input(0, 0) = 0; // a zero stream a fault can turn nonzero
            expectFoldMatchesScalar(cfg, input, weights);
        }
    }
}

TEST(SystolicGemm, ParallelRunsAreDeterministic)
{
    PackedFlagGuard guard;
    setPackedEngineEnabled(true);
    ArrayConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.kernel = {Scheme::USystolicRate, 8, 7};
    Prng prng(7);
    const auto a = randomMatrix(5, 12, 8, prng);
    const auto b = randomMatrix(12, 20, 8, prng); // 5 column tiles

    statsRegistry().reset();
    const auto first = SystolicGemm(cfg).run(a, b);
    const std::string first_dump = statsRegistry().dumpText();

    statsRegistry().reset();
    const auto second = SystolicGemm(cfg).run(a, b);
    const std::string second_dump = statsRegistry().dumpText();

    EXPECT_EQ(first.acc, second.acc);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first_dump, second_dump);
}

} // namespace
} // namespace usys
