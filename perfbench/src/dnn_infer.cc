/**
 * @file
 * dnn_infer: warm unary-datapath DNN inference (the Figure 9 path).
 *
 * Set-up trains AlexLite on hard glyphs and ResLite on gratings on a
 * short fixed schedule and fixed training sets (no on-disk weight
 * cache). The measured loop classifies a fixed seed-drawn image set in
 * 64-image batches, every batch under FP32, FXP-i-res 8, UR EBT 6,
 * UR EBT 8, UT 8, UG 8 and TUB 8. This runs GemmExecutor and the
 * product tables through Sequential::forward; it never touches
 * SystolicGemm or serve.
 *
 * Checks: every repeat of a (model, mode, batch) reproduces its logits
 * bit for bit; DNN-shaped GEMMs agree between GemmExecutor and
 * SystolicGemm for each unary scheme; a mirrored AlexLite, built from
 * the public layer classes with the same parameter blobs, gives
 * bit-identical logits under every mode, and each of its GEMM
 * sublayers' outputs is re-derived from the sublayer's actual operands
 * without gemmWithMode. The traced run times the mirror sublayer by
 * sublayer.
 */

#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>

#include "arch/array.h"
#include "arch/functional.h"
#include "common.h"
#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "dnn/data.h"
#include "dnn/models.h"
#include "dnn/train.h"

namespace perfbench {

using namespace usys;

namespace {

constexpr int kBatch = 64;
constexpr int kBatches = 4;    // fixed image set: 256 images per model
constexpr int kTrainImages = 512;
constexpr int kTrainEpochs = 2;
constexpr int kCheckRows = 64; // rows sampled per cross-checked GEMM

const std::vector<NumericConfig> &
modeConfigs()
{
    // Same order as kDnnModes.
    static const std::vector<NumericConfig> m = {
        {NumericMode::Fp32, 8},          {NumericMode::FxpIres, 8},
        {NumericMode::UnaryRate, 6},     {NumericMode::UnaryRate, 8},
        {NumericMode::UnaryTemporal, 8}, {NumericMode::UgemmH, 8},
        {NumericMode::TubGemm, 8},
    };
    return m;
}

/** The array kernel gemmWithMode() runs a unary mode on. */
Scheme
schemeOf(NumericMode m)
{
    switch (m) {
      case NumericMode::UnaryTemporal: return Scheme::USystolicTemporal;
      case NumericMode::UgemmH: return Scheme::UgemmHybrid;
      case NumericMode::TubGemm: return Scheme::TubGemm;
      default: return Scheme::USystolicRate;
    }
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.raw().size() == b.raw().size() &&
           std::memcmp(a.raw().data(), b.raw().data(),
                       a.raw().size() * sizeof(float)) == 0;
}

double
zeroFrac(const Tensor &x)
{
    std::size_t z = 0;
    for (float v : x.raw())
        z += v == 0.0f;
    return x.raw().empty() ? 0.0 : double(z) / double(x.raw().size());
}

/**
 * AlexLite rebuilt from the public layer classes (same topology as
 * buildAlexLite) so each sublayer can be timed on its own.
 */
struct MirrorAlexLite
{
    std::vector<std::unique_ptr<Layer>> layers;
    std::vector<int> gemm_at; // indices of conv/linear sublayers
    // Per conv/linear sublayer: kernel, stride, pad (kernel 0: linear).
    std::vector<std::array<int, 3>> geo;

    explicit MirrorAlexLite(int classes)
    {
        Prng init(0);
        auto conv = [&](int i, int o, int k, int s, int p) {
            gemm_at.push_back(int(layers.size()));
            geo.push_back({k, s, p});
            layers.push_back(std::make_unique<Conv2d>(i, o, k, s, p, init));
        };
        auto fc = [&](int i, int o) {
            gemm_at.push_back(int(layers.size()));
            geo.push_back({0, 1, 0});
            layers.push_back(std::make_unique<Linear>(i, o, init));
        };
        auto relu = [&] { layers.push_back(std::make_unique<ReLU>()); };
        auto pool = [&] { layers.push_back(std::make_unique<MaxPool2d>()); };
        conv(1, 8, 5, 1, 2), relu(), pool();
        conv(8, 16, 3, 1, 1), relu(), pool();
        conv(16, 24, 3, 1, 1), relu();
        conv(24, 24, 3, 1, 1), relu();
        conv(24, 16, 3, 1, 1), relu(), pool();
        fc(16 * 2 * 2, 64), relu();
        fc(64, 48), relu();
        fc(48, classes);
    }

    /** Copy the trained parameters; false on a blob-shape mismatch. */
    bool
    load(Layer &trained)
    {
        std::vector<std::vector<float> *> dst;
        for (auto &l : layers)
            for (auto *p : l->paramBlobs())
                dst.push_back(p);
        const auto src = trained.paramBlobs();
        if (src.size() != dst.size())
            return false;
        for (std::size_t i = 0; i < src.size(); ++i) {
            if (src[i]->size() != dst[i]->size())
                return false;
            *dst[i] = *src[i];
        }
        return true;
    }

    /**
     * Forward sublayer by sublayer. Per GEMM sublayer: its time and its
     * input zero fraction; `other` gets the batch time the GEMM
     * sublayers do not cover (the batch span's self time).
     */
    Tensor
    forward(const Tensor &x, const NumericConfig &cfg, Tracer &tracer,
            u32 parent, std::vector<double> &gemm_s,
            std::vector<double> &zero_in, double &other_s)
    {
        gemm_s.assign(gemm_at.size(), 0.0);
        zero_in.assign(gemm_at.size(), 0.0);
        const double start = nowS();
        double covered = 0.0;
        Tensor cur = x;
        std::size_t g = 0;
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const bool is_gemm =
                g < gemm_at.size() && gemm_at[g] == int(i);
            if (!is_gemm) {
                cur = layers[i]->forward(cur, cfg);
                continue;
            }
            const double tz = nowS();
            zero_in[g] = zeroFrac(cur);
            const double t0 = nowS();
            covered += t0 - tz; // instrumentation, not ReLU/pool work
            cur = layers[i]->forward(cur, cfg);
            const double t1 = nowS();
            tracer.add(kLiteGemms[g], parent, t0, t1);
            gemm_s[g] = t1 - t0;
            covered += t1 - t0;
            ++g;
        }
        other_s = (nowS() - start) - covered;
        return cur;
    }
};

/** im2col in Conv2d's row and column order, written out here. */
MatF
lowerConv(const Tensor &x, int k, int stride, int pad, int oh, int ow)
{
    MatF cols(x.n() * oh * ow, x.c() * k * k, 0.0f);
    for (int n = 0; n < x.n(); ++n)
        for (int y = 0; y < oh; ++y)
            for (int xo = 0; xo < ow; ++xo) {
                const int row = (n * oh + y) * ow + xo;
                int col = 0;
                for (int c = 0; c < x.c(); ++c)
                    for (int ky = 0; ky < k; ++ky)
                        for (int kx = 0; kx < k; ++kx, ++col) {
                            const int iy = y * stride + ky - pad;
                            const int ix = xo * stride + kx - pad;
                            if (iy >= 0 && iy < x.h() && ix >= 0 &&
                                ix < x.w())
                                cols(row, col) = x.at(n, c, iy, ix);
                        }
            }
    return cols;
}

/**
 * A x W under `cfg`, recomputed without gemmWithMode: gemmFp32 for
 * FP32; otherwise per-tensor symmetric quantization, an integer GEMM (a
 * plain loop for FXP, SystolicGemm for the unary schemes) and
 * dequantization.
 */
MatF
recomputeGemm(const MatF &a, const MatF &w, const NumericConfig &cfg)
{
    if (cfg.mode == NumericMode::Fp32)
        return gemmFp32(a, w);
    auto quant = [&](const MatF &m, double &scale) {
        float mx = 0.0f;
        for (float v : m.data())
            mx = std::max(mx, std::fabs(v));
        scale = symmetricScale(mx, cfg.ebt);
        Matrix<i32> q(m.rows(), m.cols());
        for (std::size_t i = 0; i < m.data().size(); ++i)
            q.data()[i] = quantize(m.data()[i], scale, cfg.ebt);
        return q;
    };
    double sa = 0.0, sw = 0.0;
    const Matrix<i32> qa = quant(a, sa), qw = quant(w, sw);
    Matrix<i64> acc(a.rows(), w.cols(), 0);
    double factor = sa * sw;
    if (cfg.mode == NumericMode::FxpIres) {
        for (int r = 0; r < a.rows(); ++r)
            for (int k = 0; k < a.cols(); ++k)
                for (int c = 0; c < w.cols(); ++c)
                    acc(r, c) += i64(qa(r, k)) * qw(k, c);
    } else {
        const KernelConfig kern{schemeOf(cfg.mode), cfg.ebt, 0};
        acc = SystolicGemm(ArrayConfig{12, 14, kern, {}}).run(qa, qw).acc;
        factor *= GemmExecutor(kern).resultScale();
    }
    MatF out(a.rows(), w.cols());
    for (std::size_t i = 0; i < acc.data().size(); ++i)
        out.data()[i] = float(double(acc.data()[i]) * factor);
    return out;
}

/**
 * Forward the mirror under `cfg`. Each GEMM sublayer's output is
 * re-derived from its actual input and parameters (recomputeGemm, bias,
 * NCHW layout) and must be bit-identical. Returns the logits.
 */
Tensor
checkSublayers(Run &run, MirrorAlexLite &mirror, const Tensor &x,
               const NumericConfig &cfg, const std::string &mode)
{
    Tensor cur = x;
    std::size_t g = 0;
    for (std::size_t i = 0; i < mirror.layers.size(); ++i) {
        Tensor y = mirror.layers[i]->forward(cur, cfg);
        if (g < mirror.gemm_at.size() && mirror.gemm_at[g] == int(i)) {
            const auto blobs = mirror.layers[i]->paramBlobs();
            const std::vector<float> &bias = *blobs[1];
            const int n_out = int(bias.size());
            MatF w(int(blobs[0]->size()) / n_out, n_out);
            std::copy(blobs[0]->begin(), blobs[0]->end(), w.data().begin());
            const auto [k, stride, pad] = mirror.geo[g];
            int oh = 1, ow = 1;
            MatF a;
            if (k > 0) {
                oh = (cur.h() + 2 * pad - k) / stride + 1;
                ow = (cur.w() + 2 * pad - k) / stride + 1;
                a = lowerConv(cur, k, stride, pad, oh, ow);
            } else {
                a = MatF(cur.n(), w.rows());
                std::copy(cur.raw().begin(), cur.raw().end(),
                          a.data().begin());
            }
            const MatF out = recomputeGemm(a, w, cfg);
            Tensor ref(cur.n(), n_out, oh, ow);
            for (int n = 0; n < cur.n(); ++n)
                for (int yy = 0; yy < oh; ++yy)
                    for (int xx = 0; xx < ow; ++xx)
                        for (int c = 0; c < n_out; ++c)
                            ref.at(n, c, yy, xx) =
                                out((n * oh + yy) * ow + xx, c) + bias[c];
            if (run.corruptNow("sublayer"))
                ref.raw()[0] += 1.0f;
            run.check(sameBits(y, ref),
                      "mirrored AlexLite " + mode + " " + kLiteGemms[g] +
                          ": output differs from the recomputed GEMM");
            ++g;
        }
        cur = std::move(y);
    }
    return cur;
}

Matrix<i32>
randomCodes(int rows, int cols, int bits, Prng &prng)
{
    const i32 mx = (i32(1) << (bits - 1)) - 1;
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = prng.uniform() < 0.3
                          ? 0
                          : i32(prng.below(u64(2 * mx + 1))) - mx;
    return m;
}

struct Model
{
    std::unique_ptr<Sequential> net;
    std::vector<Tensor> batches;
};

struct Window
{
    // [model][mode] batch times (s)
    std::vector<std::vector<std::vector<double>>> t;
    // Traced half only: AlexLite per-GEMM times, zero fractions, other.
    std::map<std::string, std::vector<std::vector<double>>> sub_s;
    std::vector<std::vector<double>> zero_in;
    std::vector<double> other_ur8_s;
    ExecSnapshot e0, e1;
};

using RefKey = std::tuple<std::size_t, std::size_t, int>;

Window
measure(Run &run, std::vector<Model> &models, MirrorAlexLite &mirror,
        std::map<RefKey, Tensor> &refs, double seconds, bool traced)
{
    const auto &modes = modeConfigs();
    Window w;
    w.t.assign(models.size(),
               std::vector<std::vector<double>>(modes.size()));
    run.tracer.enable(traced);
    w.e0 = execSnapshot();
    const double start = nowS();
    ScopedSpan root(run.tracer, run.opts.workload, 0);
    for (int round = 0; round == 0 || nowS() - start < seconds; ++round) {
        const int b = round % kBatches;
        for (std::size_t mi = 0; mi < modes.size(); ++mi) {
            ScopedSpan phase(run.tracer, kDnnModes[mi], root.id());
            for (std::size_t m = 0; m < models.size(); ++m) {
                const Tensor &x = models[m].batches[b];
                const bool use_mirror =
                    traced && m == 0 &&
                    (kDnnModes[mi] == "fp32" || kDnnModes[mi] == "ur8");
                const u32 call = run.tracer.begin(
                    kDnnModels[m] + " batch " + std::to_string(b),
                    phase.id());
                const double t0 = nowS();
                Tensor logits;
                if (use_mirror) {
                    std::vector<double> gs, zi;
                    double other = 0.0;
                    logits = mirror.forward(x, modes[mi], run.tracer, call,
                                            gs, zi, other);
                    w.sub_s[kDnnModes[mi]].push_back(gs);
                    if (kDnnModes[mi] == "ur8") {
                        w.zero_in.push_back(zi);
                        w.other_ur8_s.push_back(other);
                    }
                } else {
                    logits = models[m].net->forward(x, modes[mi]);
                }
                const double t1 = nowS();
                run.tracer.end(call);
                w.t[m][mi].push_back(t1 - t0);

                const RefKey key{m, mi, b};
                const auto it = refs.find(key);
                if (it == refs.end()) {
                    refs.emplace(key, std::move(logits));
                    continue;
                }
                if (run.corruptNow("repeat"))
                    logits.raw()[0] += 1.0f;
                run.check(sameBits(logits, it->second),
                          kDnnModels[m] + " " + kDnnModes[mi] + " batch " +
                              std::to_string(b) +
                              ": logits differ from the first run" +
                              (use_mirror ? " (mirrored model)" : ""));
            }
        }
    }
    w.e1 = execSnapshot();
    run.tracer.enable(false);
    return w;
}

double
workPerS(const Window &w)
{
    double secs = 0.0, images = 0.0;
    for (const auto &per_mode : w.t)
        for (const auto &samples : per_mode) {
            secs += callTime(samples);
            images += kBatch;
        }
    return images / secs;
}

} // namespace

void
runDnnInfer(Run &run)
{
    const auto &modes = modeConfigs();
    const u64 seed = run.opts.seed;

    // --- Set-up: tables, training, executor and first-call warm-up --
    const double setup0 = nowS();
    buildProductTables(run);
    std::vector<Model> models(2);
    int alex_classes = 0;
    {
        const double t = nowS();
        const TrainOpts sched_alex{kTrainEpochs, 32, 0.02f, 0.9f, 1, false};
        const TrainOpts sched_res{kTrainEpochs, 32, 0.03f, 0.9f, 1, false};
        // The training sets are fixed, so every seed classifies with the
        // same two models: how sparse their activations are, and so how
        // much work a batch is, does not change with the seed. The seed
        // draws the image set.
        const Dataset glyphs = makeHardGlyphs(kTrainImages, 1);
        const Dataset gratings = makeGratings(kTrainImages, 2);
        alex_classes = glyphs.classes;
        models[0].net = buildAlexLite(glyphs.classes, 1);
        models[1].net = buildResLite(gratings.classes, 1);
        trainClassifier(*models[0].net, glyphs, sched_alex);
        trainClassifier(*models[1].net, gratings, sched_res);
        run.metric("dnn.train_s", nowS() - t, "s");

        const Dataset test_glyphs =
            makeHardGlyphs(kBatch * kBatches, seed * 4 + 3);
        const Dataset test_gratings =
            makeGratings(kBatch * kBatches, seed * 4 + 4);
        for (int b = 0; b < kBatches; ++b) {
            models[0].batches.push_back(
                test_glyphs.batch(std::size_t(b) * kBatch, kBatch));
            models[1].batches.push_back(
                test_gratings.batch(std::size_t(b) * kBatch, kBatch));
        }
    }
    // First forward of every (model, mode): product tables, executor
    // pool, per-thread scratch. Its logits are the batch-0 references.
    std::map<RefKey, Tensor> refs;
    for (std::size_t m = 0; m < models.size(); ++m)
        for (std::size_t mi = 0; mi < modes.size(); ++mi)
            refs.emplace(RefKey{m, mi, 0},
                         models[m].net->forward(models[m].batches[0],
                                                modes[mi]));
    run.setup_s = nowS() - setup0;
    if (run.opts.setup_only)
        return;

    // --- Independent cross-checks (untimed) -------------------------
    {
        // DNN-shaped GEMMs (AlexLite's K x N per GEMM sublayer, rows
        // sampled from a 64-image batch) on GemmExecutor vs SystolicGemm.
        const int shapes[8][2] = {{25, 8},   {72, 16},  {144, 24},
                                  {216, 24}, {216, 16}, {64, 64},
                                  {64, 48},  {48, 20}};
        Prng prng(seed * 0x2545f4914f6cdd1dull + 7);
        for (const auto &mode : modes) {
            if (mode.mode == NumericMode::Fp32 ||
                mode.mode == NumericMode::FxpIres)
                continue;
            const KernelConfig kern{schemeOf(mode.mode), mode.ebt, 0};
            for (const auto &s : shapes) {
                const auto a = randomCodes(kCheckRows, s[0], mode.ebt, prng);
                const auto b = randomCodes(s[0], s[1], mode.ebt, prng);
                const auto ref = GemmExecutor(kern).run(a, b);
                auto got = SystolicGemm(ArrayConfig{12, 14, kern, {}})
                               .run(a, b)
                               .acc;
                if (run.corruptNow("dnn_gemm"))
                    got(0, 0) += 1;
                run.check(got == ref, mode.name() + " " +
                                          std::to_string(s[0]) + "x" +
                                          std::to_string(s[1]) +
                                          ": SystolicGemm differs from "
                                          "GemmExecutor");
            }
        }
    }
    MirrorAlexLite mirror(alex_classes);
    run.check(mirror.load(*models[0].net),
              "mirrored AlexLite: parameter blobs do not match");
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
        Tensor logits = checkSublayers(run, mirror, models[0].batches[0],
                                       modes[mi], kDnnModes[mi]);
        if (run.corruptNow("logits"))
            logits.raw()[0] += 1.0f;
        run.check(sameBits(logits, refs.at(RefKey{0, mi, 0})),
                  "mirrored AlexLite " + kDnnModes[mi] +
                      ": logits differ from buildAlexLite");
    }

    if (!run.opts.trace) {
        const Window w =
            measure(run, models, mirror, refs, run.opts.seconds, false);
        double pass_ms = 0.0;
        for (const auto &per_mode : w.t)
            for (const auto &samples : per_mode)
                pass_ms += callTime(samples) * 1e3;
        endToEnd(run, workPerS(w),
                 pass_ms / double(models.size() * modes.size()));
        return;
    }

    const Window plain =
        measure(run, models, mirror, refs, run.opts.seconds / 2, false);
    const Window w =
        measure(run, models, mirror, refs, run.opts.seconds / 2, true);
    run.metric("trace.overhead_frac", workPerS(plain) / workPerS(w) - 1.0,
               "frac");
    run.execMetrics(w.e0, w.e1);
    for (std::size_t m = 0; m < models.size(); ++m)
        for (std::size_t mi = 0; mi < modes.size(); ++mi)
            run.metric("dnn." + kDnnModels[m] + "." + kDnnModes[mi] +
                           ".batch_ms",
                       callTime(w.t[m][mi]) * 1e3, "ms");
    for (const auto &[mode, per_batch] : w.sub_s) {
        for (std::size_t g = 0; g < kLiteGemms.size(); ++g) {
            std::vector<double> v;
            for (const auto &b : per_batch)
                v.push_back(b[g] * 1e3);
            run.metric("dnn.alexlite." + kLiteGemms[g] + "." + mode + "_ms",
                       callTime(v), "ms");
        }
    }
    for (std::size_t g = 0; g < kLiteGemms.size(); ++g) {
        std::vector<double> v;
        for (const auto &b : w.zero_in)
            v.push_back(b[g]);
        run.metric("dnn.alexlite." + kLiteGemms[g] + ".zero_in_frac",
                   median(v), "frac");
    }
    std::vector<double> other_ms;
    for (double s : w.other_ur8_s)
        other_ms.push_back(s * 1e3);
    run.metric("dnn.alexlite.other.ur8_ms", callTime(other_ms), "ms");
}

} // namespace perfbench
