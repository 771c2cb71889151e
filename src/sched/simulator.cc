#include "sched/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/event_trace.h"
#include "common/executor.h"
#include "common/profiler.h"
#include "common/stats_registry.h"

namespace usys {

LayerStats
computeLayerStats(const SystemConfig &sys, const GemmLayer &layer)
{
    layer.check();
    LayerStats s;
    s.tiling = tileLayer(sys.array, layer);
    s.compute_cycles = s.tiling.compute_cycles;

    const u64 in_b = u64(sys.elemBytes());
    const u64 out_b = u64(sys.outBytes());
    const i64 rows = sys.array.rows;
    const i64 cols = sys.array.cols;

    // ReLU-induced activation sparsity: the zero-stream-skipping
    // schemes neither energize MAC slots for zero activations nor
    // re-stream their bytes (zero-run compression on the im2col
    // stream). uGEMM-H is carved out — its bipolar bias makes zero
    // operands cost full streams. 0 leaves every number unchanged.
    const Scheme sch = sys.array.kernel.scheme;
    const double zskip_frac =
        (isUnary(sch) && sch != Scheme::UgemmHybrid) ? layer.act_sparsity
                                                     : 0.0;
    s.sparsity_frac = zskip_frac;
    const auto derate = [&](u64 bytes) {
        return u64(std::llround(double(bytes) * (1.0 - zskip_frac)));
    };

    // --- Array-interface traffic -------------------------------------
    // Weights: one padded R x C tile per fold, streamed exactly once
    // (weight stationary).
    s.array_bytes[VarWeight] =
        u64(s.tiling.folds) * rows * cols * in_b;
    // IFM: every fold streams M rows of R elements from the left edge
    // (the im2col expansion; the same input element re-enters once per
    // N-fold and once per window position).
    s.array_bytes[VarIfm] =
        derate(u64(s.tiling.folds) * u64(s.tiling.m) * rows * in_b);
    // OFM: partial sums across K folds stay in the (unevaluated) edge
    // accumulators (Section IV); final outputs leave once.
    s.array_bytes[VarOfm] =
        u64(layer.ofmElems()) * out_b;

    // --- DRAM traffic -------------------------------------------------
    const u64 unique_w = u64(layer.weightElems()) * in_b;
    const u64 unique_i = u64(layer.ifmElems()) * in_b;
    const u64 unique_o = u64(layer.ofmElems()) * out_b;
    if (sys.sram.present) {
        // Weight stationarity reads every weight exactly once from DRAM.
        s.dram_bytes[VarWeight] = unique_w;
        // IFM: one cold pass if it fits the buffer, otherwise each
        // N-fold group re-streams it.
        s.dram_bytes[VarIfm] =
            derate(unique_i <= sys.sram.bytes
                       ? unique_i
                       : unique_i * u64(s.tiling.folds_n));
        s.dram_bytes[VarOfm] = unique_o;
    } else {
        // Crawling bytes: the array interfaces feed straight from DRAM.
        s.dram_bytes[VarWeight] = s.array_bytes[VarWeight];
        s.dram_bytes[VarIfm] = s.array_bytes[VarIfm];
        s.dram_bytes[VarOfm] = s.array_bytes[VarOfm];
    }

    for (int v = 0; v < NumVars; ++v)
        s.dram_total_bytes += s.dram_bytes[v];
    if (sys.sram.present) {
        // SRAM sees the array-side traffic plus the DRAM fill traffic.
        for (int v = 0; v < NumVars; ++v)
            s.sram_total_bytes += s.array_bytes[v] + s.dram_bytes[v];
    }

    // --- Contention (per-fold phase granularity) -----------------------
    // Each fold has a weight-preload phase and a streaming phase; the
    // array-side memory (SRAM if present, DRAM otherwise) must sustain
    // each phase's demand, and with SRAM present the DRAM must deliver
    // the fold's share of off-chip traffic within the fold (double
    // buffering overlaps the prefetch with compute).
    const double dram_bpc = sys.dram.bytesPerCycle(sys.freq_ghz);
    const double array_bpc =
        sys.sram.present ? sys.sram.bytesPerCycle() : dram_bpc;

    const double folds = double(s.tiling.folds);
    const double w_tile_bytes = double(rows) * cols * in_b;
    const double i_fold_bytes =
        double(s.tiling.m) * rows * in_b * (1.0 - zskip_frac);
    const double o_fold_bytes = double(s.array_bytes[VarOfm]) / folds;

    const double preload_ideal = double(rows);
    const double stream_ideal =
        double(s.tiling.fold_cycles) - preload_ideal;

    double preload = std::max(preload_ideal, w_tile_bytes / array_bpc);
    double stream = std::max(stream_ideal,
                             (i_fold_bytes + o_fold_bytes) / array_bpc);
    double fold_cycles = preload + stream;
    if (sys.sram.present) {
        // DRAM fill traffic for one fold must fit within the fold.
        const double dram_fold_bytes =
            double(s.dram_total_bytes) / folds;
        fold_cycles =
            std::max(fold_cycles, dram_fold_bytes / dram_bpc);
    }

    s.total_cycles = Cycles(std::llround(fold_cycles * folds));
    s.overhead_pct =
        100.0 * (double(s.total_cycles) / double(s.compute_cycles) - 1.0);
    s.runtime_s = double(s.total_cycles) / (sys.freq_ghz * 1e9);

    s.sram_bw_gbps = double(s.sram_total_bytes) / s.runtime_s * 1e-9;
    s.dram_bw_gbps = double(s.dram_total_bytes) / s.runtime_s * 1e-9;

    // A zero activation's whole stream window is gated: no BSG words,
    // no comparator toggles, no OREG increments in any column it feeds.
    s.active_mac_slots = derate(u64(s.tiling.folds) * rows * cols *
                                u64(s.tiling.m));
    s.throughput_gmacs = double(layer.macs()) / s.runtime_s * 1e-9;
    s.gemm_per_s = 1.0 / s.runtime_s;

    return s;
}

namespace {

/** The registry/trace side effects of one simulateLayer() call. */
void
recordLayerObservability(const SystemConfig &sys, const GemmLayer &layer,
                         const LayerStats &s)
{
    StatsRegistry &reg = statsRegistry();
    ++reg.counter("sim.roofline.layers",
                  "layer simulations (analytic roofline)");
    reg.counter("sim.roofline.compute_cycles",
                "contention-free cycles, summed") += s.compute_cycles;
    reg.counter("sim.roofline.stall_cycles",
                "memory stall cycles, summed") +=
        s.total_cycles - s.compute_cycles;
    reg.counter("sim.roofline.dram_bytes", "DRAM traffic, summed") +=
        s.dram_total_bytes;
    reg.counter("sim.roofline.sram_bytes", "SRAM traffic, summed") +=
        s.sram_total_bytes;

    EventTrace &trace = EventTrace::global();
    if (trace.enabled()) {
        // One event per layer on the candidate's own track; the track
        // cursor strings successive layers into a device timeline.
        const int tid =
            trace.track("sim " + sys.array.kernel.name() +
                        (sys.sram.present ? "+sram" : ""));
        const double dur_us = s.runtime_s * 1e6;
        const double start_us = trace.advance(tid, dur_us);
        trace.complete(tid, layer.name, "layer", start_us, dur_us,
                       {{"compute_cycles", double(s.compute_cycles)},
                        {"total_cycles", double(s.total_cycles)},
                        {"dram_bytes", double(s.dram_total_bytes)},
                        {"overhead_pct", s.overhead_pct}});
    }
}

} // namespace

LayerStats
simulateLayer(const SystemConfig &sys, const GemmLayer &layer)
{
    USYS_PROF_SCOPE("sim.layer");
    LayerStats s = computeLayerStats(sys, layer);
    recordLayerObservability(sys, layer, s);
    return s;
}

std::vector<LayerStats>
simulateLayerBatch(const std::vector<LayerJob> &jobs)
{
    USYS_PROF_SCOPE("sim.layer_batch");
    std::vector<LayerStats> out(jobs.size());
    // Pure math in parallel; observability committed serially in job
    // order so stats/trace dumps match the serial loop byte for byte.
    parallelFor(0, jobs.size(), [&](u64 i) {
        USYS_PROF_SCOPE("sim.layer");
        out[i] = computeLayerStats(jobs[i].sys, jobs[i].layer);
    });
    for (std::size_t i = 0; i < jobs.size(); ++i)
        recordLayerObservability(jobs[i].sys, jobs[i].layer, out[i]);
    return out;
}

void
recordLayerStats(StatsRegistry &reg, const std::string &prefix,
                 const SystemConfig &sys, const LayerStats &s)
{
    reg.counter(prefix + ".compute_cycles", "contention-free cycles")
        .set(s.compute_cycles);
    reg.counter(prefix + ".total_cycles", "cycles incl. memory stalls")
        .set(s.total_cycles);
    reg.counter(prefix + ".stall_cycles", "memory stall cycles")
        .set(s.total_cycles - s.compute_cycles);
    reg.counter(prefix + ".dram_bytes", "DRAM traffic").
        set(s.dram_total_bytes);
    reg.counter(prefix + ".sram_bytes", "SRAM traffic")
        .set(s.sram_total_bytes);
    reg.scalar(prefix + ".dram_energy_pj",
               "DRAM dynamic access energy")
        .set(double(s.dram_total_bytes) * sys.dram.pj_per_byte);
    reg.scalar(prefix + ".runtime_s", "layer runtime").set(s.runtime_s);
    reg.scalar(prefix + ".overhead_pct", "memory-contention overhead")
        .set(s.overhead_pct);
    reg.scalar(prefix + ".utilization", "MAC-slot utilization")
        .set(s.tiling.utilization);
    reg.scalar(prefix + ".throughput_gmacs", "real MACs per second, G")
        .set(s.throughput_gmacs);
    // Only on sparsity-modeled runs, so dense dumps stay unchanged.
    if (s.sparsity_frac > 0.0)
        reg.scalar(prefix + ".sparsity_frac",
                   "activation fraction gated off by zero skipping")
            .set(s.sparsity_frac);
}

} // namespace usys
