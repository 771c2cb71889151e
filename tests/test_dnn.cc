/**
 * @file
 * Tests for the DNN substrate: layer forward correctness against naive
 * references, numerical gradient checks for every trainable layer,
 * backend quantization behavior, dataset determinism, training
 * convergence, weight (de)serialization, quantize() rounding, and
 * thread-count invariance of the quantized inference path.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "common/profiler.h"
#include "dnn/backend.h"
#include "dnn/data.h"
#include "dnn/models.h"
#include "dnn/train.h"

namespace usys {
namespace {

const NumericConfig kFp32{NumericMode::Fp32, 8};

Tensor
randomTensor(int n, int c, int h, int w, Prng &prng)
{
    Tensor t(n, c, h, w);
    for (auto &v : t.raw())
        v = float(prng.gaussian());
    return t;
}

TEST(Backend, Fp32GemmMatchesNaive)
{
    Prng prng(5);
    MatF a(4, 6), b(6, 3);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const auto c = gemmFp32(a, b);
    for (int m = 0; m < 4; ++m)
        for (int n = 0; n < 3; ++n) {
            float expect = 0;
            for (int k = 0; k < 6; ++k)
                expect += a(m, k) * b(k, n);
            EXPECT_NEAR(c(m, n), expect, 1e-4);
        }
}

TEST(Backend, QuantizedModesApproachFp32WithBits)
{
    Prng prng(6);
    MatF a(8, 32), b(32, 8);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const auto ref = gemmFp32(a, b);

    for (NumericMode mode : {NumericMode::FxpIres, NumericMode::FxpOres,
                             NumericMode::UnaryRate,
                             NumericMode::UnaryTemporal,
                             NumericMode::UgemmH}) {
        double prev = 1e18;
        for (int ebt : {4, 8, 12}) {
            const auto out = gemmWithMode(a, b, {mode, ebt});
            double err = 0, norm = 0;
            for (int m = 0; m < 8; ++m)
                for (int n = 0; n < 8; ++n) {
                    err += std::pow(out(m, n) - ref(m, n), 2);
                    norm += std::pow(ref(m, n), 2);
                }
            const double nrmse = std::sqrt(err / norm);
            EXPECT_LT(nrmse, prev * 1.05) << int(mode) << " ebt " << ebt;
            prev = nrmse;
        }
        EXPECT_LT(prev, 0.05) << int(mode);
    }
}

TEST(Backend, UnaryBetweenOresAndIres)
{
    // The paper's central accuracy ordering at matched EBT.
    Prng prng(7);
    MatF a(8, 64), b(64, 8);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const auto ref = gemmFp32(a, b);
    auto nrmse = [&](NumericMode mode, int ebt) {
        const auto out = gemmWithMode(a, b, {mode, ebt});
        double err = 0, norm = 0;
        for (int m = 0; m < 8; ++m)
            for (int n = 0; n < 8; ++n) {
                err += std::pow(out(m, n) - ref(m, n), 2);
                norm += std::pow(ref(m, n), 2);
            }
        return std::sqrt(err / norm);
    };
    for (int ebt : {6, 8}) {
        const double o_res = nrmse(NumericMode::FxpOres, ebt);
        const double unary = nrmse(NumericMode::UnaryRate, ebt);
        const double i_res = nrmse(NumericMode::FxpIres, ebt);
        EXPECT_LT(i_res, unary) << ebt;
        EXPECT_LT(unary, o_res) << ebt;
    }
}

TEST(Layers, ConvForwardMatchesNaive)
{
    Prng prng(8);
    Conv2d conv(2, 3, 3, 1, 1, prng);
    Tensor x = randomTensor(2, 2, 5, 5, prng);
    const Tensor y = conv.forward(x, kFp32);
    ASSERT_EQ(y.c(), 3);
    ASSERT_EQ(y.h(), 5);
    ASSERT_EQ(y.w(), 5);

    // Naive direct convolution for one output position.
    auto blobs = conv.paramBlobs();
    const auto &w = *blobs[0];
    const auto &bias = *blobs[1];
    for (int oc = 0; oc < 3; ++oc) {
        float expect = bias[oc];
        const int oh = 2, ow = 3, ni = 1;
        int col = 0;
        for (int ci = 0; ci < 2; ++ci)
            for (int kh = 0; kh < 3; ++kh)
                for (int kw = 0; kw < 3; ++kw, ++col) {
                    const int ih = oh + kh - 1, iw = ow + kw - 1;
                    if (ih >= 0 && ih < 5 && iw >= 0 && iw < 5)
                        expect += x.at(ni, ci, ih, iw) *
                                  w[std::size_t(col) * 3 + oc];
                }
        EXPECT_NEAR(y.at(1, oc, 2, 3), expect, 1e-4) << oc;
    }
}

/** Central-difference gradient check through a small network. */
TEST(Layers, NumericalGradientCheck)
{
    Prng prng(9);
    Sequential net;
    net.add(std::make_unique<Conv2d>(1, 2, 3, 1, 1, prng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2d>());
    net.add(std::make_unique<Linear>(2 * 3 * 3, 4, prng));

    Tensor x = randomTensor(2, 1, 6, 6, prng);
    const std::vector<int> labels{1, 3};

    auto loss_at = [&]() {
        Tensor logits = net.forward(x, kFp32);
        return softmaxCrossEntropy(logits, labels);
    };

    // Analytic gradients.
    Tensor logits = net.forward(x, kFp32);
    Tensor grad;
    softmaxCrossEntropy(logits, labels, &grad);
    Tensor grad_x = net.backward(grad);

    // Check input gradient entries by central differences.
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.raw().size(); i += 7) {
        const float orig = x.raw()[i];
        x.raw()[i] = orig + eps;
        const double up = loss_at();
        x.raw()[i] = orig - eps;
        const double down = loss_at();
        x.raw()[i] = orig;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(grad_x.raw()[i], numeric,
                    5e-3 * std::max(1.0, std::abs(numeric)))
            << "index " << i;
    }
}

TEST(Layers, ResidualBlockGradientCheck)
{
    Prng prng(10);
    ResidualBlock block(2, 4, 2, prng); // projection path exercised
    Tensor x = randomTensor(1, 2, 6, 6, prng);

    auto loss_at = [&]() {
        Tensor y = block.forward(x, kFp32);
        double s = 0;
        for (float v : y.raw())
            s += v * v;
        return 0.5 * s;
    };

    Tensor y = block.forward(x, kFp32);
    Tensor grad = y; // dLoss/dy = y
    Tensor grad_x = block.backward(grad);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.raw().size(); i += 11) {
        const float orig = x.raw()[i];
        x.raw()[i] = orig + eps;
        const double up = loss_at();
        x.raw()[i] = orig - eps;
        const double down = loss_at();
        x.raw()[i] = orig;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(grad_x.raw()[i], numeric,
                    5e-3 * std::max(1.0, std::abs(numeric)));
    }
}

TEST(Layers, MaxPoolRoutesGradientToArgmax)
{
    Prng prng(11);
    MaxPool2d pool;
    Tensor x(1, 1, 4, 4);
    for (std::size_t i = 0; i < x.raw().size(); ++i)
        x.raw()[i] = float(i);
    const Tensor y = pool.forward(x, kFp32);
    EXPECT_EQ(y.at(0, 0, 0, 0), 5.0f); // max of {0,1,4,5}
    Tensor g(1, 1, 2, 2);
    g.raw().assign(4, 1.0f);
    const Tensor gx = pool.backward(g);
    EXPECT_EQ(gx.at(0, 0, 1, 1), 1.0f);
    EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);
}

TEST(Loss, SoftmaxCrossEntropyGradientSumsToZero)
{
    Prng prng(12);
    Tensor logits = randomTensor(3, 5, 1, 1, prng);
    Tensor grad;
    const double loss = softmaxCrossEntropy(logits, {0, 2, 4}, &grad);
    EXPECT_GT(loss, 0.0);
    for (int ni = 0; ni < 3; ++ni) {
        double sum = 0;
        for (int c = 0; c < 5; ++c)
            sum += grad.at(ni, c, 0, 0);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

TEST(Data, DeterministicInSeed)
{
    const auto a = makeDigits(20, 99);
    const auto b = makeDigits(20, 99);
    const auto c = makeDigits(20, 100);
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_NE(a.images, c.images);
    EXPECT_EQ(a.classes, 10);
    EXPECT_EQ(a.size, 16);
}

TEST(Data, AllTiersCoverAllClasses)
{
    for (const auto &ds :
         {makeDigits(400, 1), makeGratings(400, 1),
          makeHardGlyphs(400, 1)}) {
        std::vector<int> seen(ds.classes, 0);
        for (int l : ds.labels) {
            ASSERT_GE(l, 0);
            ASSERT_LT(l, ds.classes);
            seen[l] = 1;
        }
        for (int s : seen)
            EXPECT_EQ(s, 1);
    }
}

TEST(Train, ConvergesOnEasyDigits)
{
    const auto train = makeDigits(600, 21, 0.15f);
    const auto test = makeDigits(150, 22, 0.15f);
    auto model = buildCnn4(train.classes, 3);
    TrainOpts opts;
    opts.epochs = 4;
    trainClassifier(*model, train, opts);
    const double acc = evaluateAccuracy(*model, test, kFp32);
    EXPECT_GT(acc, 0.85);
}

TEST(Train, SaveLoadRoundtrip)
{
    const auto test = makeDigits(50, 23);
    auto model = buildCnn4(10, 3);
    const auto train = makeDigits(300, 24);
    TrainOpts opts;
    opts.epochs = 2;
    trainClassifier(*model, train, opts);
    const double acc = evaluateAccuracy(*model, test, kFp32);

    const std::string path = "/tmp/usys_test_weights.bin";
    ASSERT_TRUE(saveWeights(*model, path));
    auto fresh = buildCnn4(10, 99); // different init
    ASSERT_TRUE(loadWeights(*fresh, path));
    EXPECT_DOUBLE_EQ(evaluateAccuracy(*fresh, test, kFp32), acc);

    auto wrong = buildResLite(10, 3); // mismatched blob sizes
    EXPECT_FALSE(loadWeights(*wrong, path));
}

TEST(Layers, ForwardMixedMatchesUniformWhenConfigsEqual)
{
    Prng prng(31);
    auto model = buildCnn4(10, 3);
    Tensor x = randomTensor(2, 1, 16, 16, prng);
    const NumericConfig cfg{NumericMode::UnaryRate, 7};
    const Tensor uniform = model->forward(x, cfg);
    const std::vector<NumericConfig> per_layer(model->layerCount(), cfg);
    const Tensor mixed = model->forwardMixed(x, per_layer);
    ASSERT_EQ(uniform.size(), mixed.size());
    for (std::size_t i = 0; i < uniform.size(); ++i)
        EXPECT_FLOAT_EQ(uniform.raw()[i], mixed.raw()[i]);
}

TEST(Layers, ForwardMixedRejectsWrongArity)
{
    Prng prng(33);
    auto model = buildCnn4(10, 3);
    Tensor x = randomTensor(1, 1, 16, 16, prng);
    const std::vector<NumericConfig> too_few(2);
    EXPECT_EXIT(model->forwardMixed(x, too_few),
                ::testing::ExitedWithCode(1), "one config per sublayer");
}

TEST(Models, ParameterCountsOrdered)
{
    auto count = [](Sequential &m) {
        std::size_t total = 0;
        for (auto *blob : m.paramBlobs())
            total += blob->size();
        return total;
    };
    auto cnn4 = buildCnn4(10, 1);
    auto res = buildResLite(10, 1);
    auto alex = buildAlexLite(10, 1);
    // Mirrors the paper's small < medium < large parameter ordering.
    EXPECT_LT(count(*cnn4), count(*res));
    EXPECT_GT(count(*alex), 10000u);
}

// --- quantize() rounding -----------------------------------------------

/** The definition quantize() must match: clamp(lround(x)) computed at
 *  full width. lround itself is unspecified past the long range, where
 *  the clamped result is the signed bound. */
i32
lroundClamped(double x, int bits)
{
    const long max_mag = maxMagnitude(bits);
    if (std::fabs(x) >= 0x1p62)
        return i32(x > 0 ? max_mag : -max_mag);
    return i32(std::clamp(std::lround(x), -max_mag, max_mag));
}

TEST(Quantize, MatchesClampedLroundAtTiesAndEdges)
{
    const double below_half = 0.49999999999999994; // nextafter(0.5, 0)
    const double dmin = std::numeric_limits<double>::min();
    const double sub = std::numeric_limits<double>::denorm_min();
    const double points[] = {
        0.0, 0.5, 1.5, 2.5, 126.5, below_half, 1.0 - below_half,
        std::nextafter(1.5, 0.0), std::nextafter(1.5, 2.0),
        // Clamp edges for 8 bits (max 127).
        126.49999999999999, 127.0, 127.49999999999999, 127.5, 128.0,
        std::nextafter(127.5, 0.0), std::nextafter(127.5, 200.0),
        // Huge: past i32 (where a narrowing cast would wrap), past long.
        1e9, 3e9, 0x1p31, 1e18, 1e300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        // Subnormal and tiny.
        sub, dmin / 2, dmin, 1e-300};
    for (const int bits : {2, 8, 12, 16}) {
        for (const double p : points) {
            for (const double x : {p, -p}) {
                EXPECT_EQ(quantize(x, 1.0, bits), lroundClamped(x, bits))
                    << "x " << x << " bits " << bits;
            }
        }
    }
    EXPECT_EQ(quantize(0.5, 1.0, 8), 1);
    EXPECT_EQ(quantize(-0.5, 1.0, 8), -1);
    EXPECT_EQ(quantize(below_half, 1.0, 8), 0);
    EXPECT_EQ(quantize(-126.5, 1.0, 8), -127);
    EXPECT_EQ(quantize(3e9, 1.0, 8), 127);
    // The quotient, not the inputs, is what gets rounded.
    EXPECT_EQ(quantize(1.25, 0.5, 8), 3);
    EXPECT_EQ(quantize(1e-300, 1e10, 8), 0);
    EXPECT_EQ(quantize(1.0, sub, 8), 127);
}

TEST(Quantize, MatchesClampedLroundOnRandomDoubles)
{
    Prng prng(0x9A27ull);
    for (int i = 0; i < 1000000; ++i) {
        const int bits = 2 + int(prng.below(15));
        const double lim = maxMagnitude(bits) + 2.0;
        double x = 0.0;
        switch (prng.below(4)) {
          case 0: // uniform over and just past the code range
            x = prng.uniform(-lim, lim);
            break;
          case 1: // exact ties
            x = double(i64(prng.below(u64(2 * lim))) - i64(lim)) + 0.5;
            break;
          case 2: // one ulp either side of a tie
            x = double(i64(prng.below(u64(2 * lim))) - i64(lim)) + 0.5;
            x = std::nextafter(x, prng.below(2) ? 1e9 : -1e9);
            break;
          default: { // any finite bit pattern
            u64 raw = prng.next();
            std::memcpy(&x, &raw, sizeof(x));
            if (!std::isfinite(x))
                x = 0.0;
            break;
          }
        }
        ASSERT_EQ(quantize(x, 1.0, bits), lroundClamped(x, bits))
            << "x " << x << " bits " << bits;
    }
}

// --- thread-count invariance ----------------------------------------------

/** Pins the executor's thread count for one scope. */
struct ThreadGuard
{
    explicit ThreadGuard(unsigned n) { Executor::global().setThreads(n); }
    ~ThreadGuard() { Executor::global().setThreads(0); }
};

const NumericConfig kAllModes[] = {
    {NumericMode::Fp32, 8},          {NumericMode::FxpIres, 8},
    {NumericMode::FxpOres, 8},       {NumericMode::UnaryRate, 8},
    {NumericMode::UnaryTemporal, 8}, {NumericMode::UgemmH, 8},
    {NumericMode::TubGemm, 8},       {NumericMode::TuGemm, 6}};

bool
bitwiseEqual(const std::vector<float> &x, const std::vector<float> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(Backend, GemmWithModeBitwiseIdenticalAcrossThreadCounts)
{
    // Large enough that maxAbs, quantize, the GEMM rows and dequantize
    // all split into several chunks; half-zero activations like ReLU.
    Prng prng(41);
    MatF a(256, 96), b(96, 24);
    for (auto &v : a.data())
        v = std::max(0.0f, float(prng.gaussian()));
    for (auto &v : b.data())
        v = float(prng.gaussian());
    for (const auto &cfg : kAllModes) {
        MatF serial, pooled;
        {
            ThreadGuard one(1);
            serial = gemmWithMode(a, b, cfg);
        }
        {
            ThreadGuard three(3);
            pooled = gemmWithMode(a, b, cfg);
        }
        EXPECT_TRUE(bitwiseEqual(serial.data(), pooled.data()))
            << cfg.name();
    }
}

TEST(Backend, FxpMatchesSerialQuantizeGemmDequantize)
{
    // The parallel stages against their serial definition: per-tensor
    // max |v| (here the last element of A, in the last maxAbs chunk),
    // quantize, exact integer GEMM, dequantize.
    Prng prng(45);
    MatF a(300, 80), b(80, 12);
    for (auto &v : a.data())
        v = std::max(0.0f, float(prng.gaussian()));
    for (auto &v : b.data())
        v = float(prng.gaussian());
    a(299, 79) = -9.0f;
    auto scaleOf = [](const MatF &m) {
        float mx = 0.0f;
        for (float v : m.data())
            mx = std::max(mx, std::fabs(v));
        return symmetricScale(mx, 8);
    };
    const double sa = scaleOf(a), sb = scaleOf(b);
    MatF expect(300, 12);
    for (int m = 0; m < 300; ++m)
        for (int n = 0; n < 12; ++n) {
            i64 acc = 0;
            for (int k = 0; k < 80; ++k)
                acc += i64(quantize(a(m, k), sa, 8)) *
                       quantize(b(k, n), sb, 8);
            expect(m, n) = float(double(acc) * (sa * sb));
        }
    const MatF got = gemmWithMode(a, b, {NumericMode::FxpIres, 8});
    EXPECT_TRUE(bitwiseEqual(got.data(), expect.data()));
}

TEST(Models, LogitsBitwiseIdenticalAcrossThreadCounts)
{
    Prng prng(43);
    const Tensor x = randomTensor(8, 1, 16, 16, prng);
    auto alex = buildAlexLite(10, 5);
    auto res = buildResLite(10, 6);
    for (Sequential *model : {alex.get(), res.get()}) {
        for (const auto &cfg : kAllModes) {
            Tensor serial, pooled;
            {
                ThreadGuard one(1);
                serial = model->forward(x, cfg);
            }
            {
                ThreadGuard three(3);
                pooled = model->forward(x, cfg);
            }
            EXPECT_TRUE(bitwiseEqual(serial.raw(), pooled.raw()))
                << cfg.name();
        }
    }
}

TEST(Models, StageScopesAreThreadCountInvariant)
{
    // Every GEMM sublayer books its stages under the same names and
    // call counts at any thread count (worker frames are re-rooted).
    Prng prng(47);
    const Tensor x = randomTensor(4, 1, 16, 16, prng);
    auto alex = buildAlexLite(10, 5);
    const NumericConfig ur8{NumericMode::UnaryRate, 8};
    Profiler &prof = Profiler::global();
    auto signatureAt = [&](unsigned threads) {
        ThreadGuard guard(threads);
        prof.reset();
        prof.setEnabled(true);
        alex->forward(x, ur8);
        prof.setEnabled(false);
        const std::string sig = prof.signature();
        prof.reset();
        return sig;
    };
    const std::string serial = signatureAt(1);
    EXPECT_EQ(serial, signatureAt(3));
    // 5 convolutions lower through im2col; all 8 GEMMs quantize, run
    // and dequantize.
    for (const char *line : {"dnn.im2col 5", "dnn.quantize 8", "dnn.gemm 8",
                             "dnn.dequant 8"})
        EXPECT_NE(serial.find(line), std::string::npos) << line;
}

} // namespace
} // namespace usys
