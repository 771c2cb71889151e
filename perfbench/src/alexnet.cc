/**
 * @file
 * alexnet_conv / alexnet_fc: full-size AlexNet GEMM layers on the
 * Eyeriss-shaped edge array (12 x 14) through SystolicGemm::run.
 *
 * Conv1-Conv5 (batch 1, M up to 3025: tall folds, per-MAC work) or
 * FC6-FC8 (batch 1, M = 1: ~350k one-row folds, per-fold overhead),
 * each under BP, UR EBT 6, UR EBT 8, UG and TUB at 8 bits. Activation
 * codes are drawn from the seed at each layer's measured AlexNet zero
 * fraction; weights are dense random codes.
 *
 * Every call is checked against GemmExecutor::run on the same operands
 * (an independent O(1)-per-MAC engine) and against the closed-form
 * fold count and foldLatency() cycle sum.
 */

#include <algorithm>
#include <cstdio>

#include "arch/array.h"
#include "arch/functional.h"
#include "common.h"
#include "common/prng.h"
#include "eval/experiments.h"
#include "workloads/alexnet.h"

namespace perfbench {

using namespace usys;

namespace {

constexpr int kRows = 12, kCols = 14; // edgeSystem() array shape

struct ArrayScheme
{
    std::string name; // one of kSchemes
    KernelConfig kern;
};

/**
 * BP, UR EBT 6, UR EBT 8, UG and TUB at 8 bits. alexnet_fc leaves UG
 * out: its FC6-FC8 calls alone take ~8 s on a 4-core host, which would
 * leave one sample per call in the measured window.
 */
std::vector<ArrayScheme>
schemesFor(bool fc)
{
    std::vector<ArrayScheme> all = {
        {"bp", {Scheme::BinaryParallel, 8, 0}},
        {"ur6", {Scheme::USystolicRate, 8, 6}},
        {"ur8", {Scheme::USystolicRate, 8, 0}},
        {"ug", {Scheme::UgemmHybrid, 8, 0}},
        {"tub", {Scheme::TubGemm, 8, 0}},
    };
    if (fc)
        all.erase(all.begin() + 3);
    return all;
}

ArrayConfig
arrayFor(const KernelConfig &kern)
{
    return ArrayConfig{kRows, kCols, kern, {}};
}

Matrix<i32>
drawActivations(int m, int k, double zero_frac, Prng &prng)
{
    Matrix<i32> a(m, k);
    for (int r = 0; r < m; ++r)
        for (int c = 0; c < k; ++c) {
            if (prng.uniform() < zero_frac) {
                a(r, c) = 0;
            } else {
                const i32 mag = 1 + i32(prng.below(127));
                a(r, c) = prng.below(2) ? mag : -mag;
            }
        }
    return a;
}

Matrix<i32>
drawWeights(int k, int n, Prng &prng)
{
    Matrix<i32> b(k, n);
    for (int r = 0; r < k; ++r)
        for (int c = 0; c < n; ++c)
            b(r, c) = i32(prng.below(255)) - 127;
    return b;
}

struct LayerData
{
    std::string name; // conv1 .. fc8
    int m = 0;        // GEMM rows
    Matrix<i32> a, b;
    u64 macs = 0;
    u64 folds = 0;            // closed form: ceil(K/R) * ceil(N/C)
    std::vector<Matrix<i64>> ref; // GemmExecutor result per scheme
    std::vector<u64> cycles;  // closed-form cycle sum per scheme
};

/** One measured window: per (layer, scheme) call times + exact stats. */
struct Window
{
    std::vector<std::vector<std::vector<double>>> t; // [layer][scheme]
    std::vector<std::vector<FoldStatsDelta>> stats;  // first call
    std::vector<std::vector<u64>> cycles;
    ExecSnapshot e0, e1;

    double
    time(std::size_t l, std::size_t s) const
    {
        return callTime(t[l][s]);
    }
};

Window
measure(Run &run, const std::vector<ArrayScheme> &schemes,
        std::vector<LayerData> &layers, double seconds, bool traced)
{
    Window w;
    w.t.assign(layers.size(),
               std::vector<std::vector<double>>(schemes.size()));
    w.stats.assign(layers.size(),
                   std::vector<FoldStatsDelta>(schemes.size()));
    w.cycles.assign(layers.size(), std::vector<u64>(schemes.size(), 0));

    run.tracer.enable(traced);
    w.e0 = execSnapshot();
    const double start = nowS();
    ScopedSpan root(run.tracer, run.opts.workload, 0);
    // Stop at a call boundary once the window is spent, but only after
    // every (layer, scheme) call ran at least once.
    bool done = false;
    for (u64 pass = 0; !done; ++pass) {
        for (std::size_t s = 0; s < schemes.size() && !done; ++s) {
            ScopedSpan phase(run.tracer, schemes[s].name, root.id());
            const SystolicGemm gemm(arrayFor(schemes[s].kern));
            for (std::size_t l = 0; l < layers.size() && !done; ++l) {
                LayerData &L = layers[l];
                FoldStatsDelta delta;
                const double t0 = nowS();
                auto r = gemm.run(L.a, L.b, &delta);
                const double t1 = nowS();
                run.tracer.add("SystolicGemm::run " + L.name, phase.id(),
                               t0, t1);
                w.t[l][s].push_back(t1 - t0);
                if (pass == 0) {
                    w.stats[l][s] = delta;
                    w.cycles[l][s] = r.cycles;
                }

                if (run.corruptNow("gemm"))
                    r.acc(0, 0) += 1;
                if (run.corruptNow("cycles"))
                    r.cycles += 1;
                const bool acc_ok = r.acc == L.ref[s];
                const bool cyc_ok = r.cycles == L.cycles[s] &&
                                    r.folds == L.folds;
                run.check(acc_ok && cyc_ok,
                          L.name + " " + schemes[s].name +
                              (acc_ok ? ": cycles/folds differ from the "
                                        "closed form"
                                      : ": result differs from "
                                        "GemmExecutor"));
                done = pass > 0 && nowS() - start >= seconds;
            }
        }
        if (nowS() - start >= seconds)
            done = true;
    }
    w.e1 = execSnapshot();
    run.tracer.enable(false);
    return w;
}

/** MACs per host second of one pass built from per-call times. */
double
workPerS(const std::vector<LayerData> &layers, const Window &w)
{
    double macs = 0.0, secs = 0.0;
    for (std::size_t l = 0; l < layers.size(); ++l)
        for (std::size_t s = 0; s < w.t[l].size(); ++s) {
            macs += double(layers[l].macs);
            secs += w.time(l, s);
        }
    return macs / secs;
}

} // namespace

void
runAlexnet(Run &run, bool fc)
{
    const std::vector<ArrayScheme> schemes = schemesFor(fc);

    // --- Set-up: every lazy first-call cost lands here --------------
    const double setup0 = nowS();
    buildProductTables(run);
    const std::vector<double> sparsity = measuredAlexnetSparsity();
    {
        // Executor pool start, per-worker count-table arenas and Sobol
        // prefixes: a small GEMM per scheme, tall and one-row, covers
        // every array row and every weight code.
        Prng warm(0x3a11);
        const auto a_tall = drawActivations(32, 120, 0.3, warm);
        const auto a_row = drawActivations(1, 120, 0.3, warm);
        const auto b = drawWeights(120, 3 * kCols, warm);
        for (const auto &[name, k] : schemes) {
            FoldStatsDelta d;
            SystolicGemm(arrayFor(k)).run(a_tall, b, &d);
            SystolicGemm(arrayFor(k)).run(a_row, b, &d);
            GemmExecutor(k).run(a_tall, b);
        }
    }
    // The seeded operands are part of set-up: the benchmark builds
    // them once per process, like the tables and arenas above.
    const auto all = alexnetLayers();
    Prng prng(run.opts.seed * 0x9e3779b97f4a7c15ull + (fc ? 2 : 1));
    std::vector<LayerData> layers;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const bool is_fc = all[i].type == GemmType::MatMul;
        if (is_fc != fc)
            continue;
        const GemmLayer &g = all[i];
        LayerData L;
        L.name = kArrayLayers[i];
        L.m = int(g.m());
        L.a = drawActivations(int(g.m()), int(g.k()), sparsity[i], prng);
        L.b = drawWeights(int(g.k()), int(g.n()), prng);
        L.macs = u64(g.macs());
        L.folds = u64((g.k() + kRows - 1) / kRows) *
                  u64((g.n() + kCols - 1) / kCols);
        layers.push_back(std::move(L));
    }
    run.setup_s = nowS() - setup0;
    if (run.opts.setup_only)
        return;

    // --- Reference results (untimed) --------------------------------
    for (LayerData &L : layers) {
        for (const auto &[name, k] : schemes) {
            L.ref.push_back(GemmExecutor(k).run(L.a, L.b));
            L.cycles.push_back(
                L.folds * SystolicArray(arrayFor(k)).foldLatency(L.m));
        }
    }

    if (!run.opts.trace) {
        const Window w =
            measure(run, schemes, layers, run.opts.seconds, false);
        double pass_ms = 0.0;
        for (std::size_t l = 0; l < layers.size(); ++l)
            for (std::size_t s = 0; s < schemes.size(); ++s)
                pass_ms += w.time(l, s) * 1e3;
        endToEnd(run, workPerS(layers, w),
                 pass_ms / double(layers.size() * schemes.size()));
        return;
    }

    // Traced run: an untraced half, then a traced half; the gap in
    // work per second is the tracing overhead.
    const double half = run.opts.seconds / 2;
    const Window plain = measure(run, schemes, layers, half, false);
    const Window w = measure(run, schemes, layers, half, true);
    run.metric("trace.overhead_frac",
               workPerS(layers, plain) / workPerS(layers, w) - 1.0, "frac");
    run.execMetrics(w.e0, w.e1);
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const std::string p = "arch." + layers[l].name;
        double ms = 0.0;
        u64 skippable = 0, slots = 0;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            ms += w.time(l, s) * 1e3;
            skippable += w.stats[l][s].sparsity_skippable_macs;
            slots += w.stats[l][s].mac_slots;
        }
        run.metric(p + ".gemm_ms", ms, "ms");
        run.metric(p + ".us_per_fold",
                   ms * 1e3 / double(layers[l].folds * schemes.size()), "us");
        run.metric(p + ".folds", double(layers[l].folds), "count");
        run.metric(p + ".skip_frac",
                   slots ? double(skippable) / double(slots) : 0.0, "frac");
    }
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        double ms = 0.0;
        u64 cycles = 0;
        for (std::size_t l = 0; l < layers.size(); ++l) {
            ms += w.time(l, s) * 1e3;
            cycles += w.cycles[l][s];
        }
        run.metric("arch." + schemes[s].name + ".gemm_ms", ms, "ms");
        run.metric("arch." + schemes[s].name + ".sim_cycles",
                   double(cycles), "cycles");
    }
}

} // namespace perfbench
