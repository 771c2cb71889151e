/**
 * @file
 * uSystolic-Sim: layer-level performance simulator (Figure 8 widget).
 *
 * Adapted from the SCALE-Sim methodology: weight-stationary tiling
 * produces exact contention-free cycle counts (validated against the
 * bit-level array simulator), per-interface traffic is derived from the
 * fold schedule, and memory contention is applied as a roofline over the
 * SRAM and DRAM sustained bandwidths — the analytic equivalent of
 * SCALE-Sim's trace-based stall accounting. Supports all five computing
 * schemes, both bitwidths, and SRAM-present/absent memory hierarchies.
 */

#ifndef USYS_SCHED_SIMULATOR_H
#define USYS_SCHED_SIMULATOR_H

#include <array>
#include <vector>

#include "common/types.h"
#include "arch/array.h"
#include "mem/dram.h"
#include "mem/sram.h"
#include "sched/layer.h"
#include "sched/tiling.h"

namespace usys {

/** The three GEMM variables (Table II). */
enum GemmVar
{
    VarWeight = 0,
    VarIfm = 1,
    VarOfm = 2,
    NumVars = 3,
};

/** Full system configuration: array + clock + memory hierarchy. */
struct SystemConfig
{
    ArrayConfig array;
    double freq_ghz = 0.4; // 400 MHz synthesis target
    SramConfig sram;       // per-variable buffer (3 instances)
    DramConfig dram = ddr3Chip();

    /** Bytes of one input/weight element. */
    int elemBytes() const { return (array.kernel.bits + 7) / 8; }

    /**
     * Bytes of one output element: binary schemes produce 2N-bit
     * outputs; uSystolic's reduced-resolution accumulation keeps N bits
     * (Section III-A).
     */
    int
    outBytes() const
    {
        // The rate-counting weight-BSG schemes use uSystolic's reduced
        // N-bit accumulation; the exact schemes (binary, tubGEMM,
        // tuGEMM) write full 2N-bit products.
        return hasWeightBsg(array.kernel.scheme) ? elemBytes()
                                                 : 2 * elemBytes();
    }
};

/** Per-layer simulation results. */
struct LayerStats
{
    Tiling tiling;
    Cycles compute_cycles = 0; // contention-free
    Cycles total_cycles = 0;   // with memory stalls
    double runtime_s = 0.0;
    double overhead_pct = 0.0; // memory-contention runtime overhead

    // Array-interface traffic per variable (bytes). Equals SRAM traffic
    // when SRAM is present; goes straight to DRAM otherwise.
    std::array<u64, NumVars> array_bytes{};
    // DRAM traffic per variable (bytes).
    std::array<u64, NumVars> dram_bytes{};

    u64 sram_total_bytes = 0;
    u64 dram_total_bytes = 0;
    double sram_bw_gbps = 0.0; // achieved, averaged over runtime
    double dram_bw_gbps = 0.0;

    u64 active_mac_slots = 0;  // energized MAC slots (sparsity-gated)
    double sparsity_frac = 0.0;    // activation fraction gated off
    double throughput_gmacs = 0.0; // real MACs / runtime
    double gemm_per_s = 0.0;       // layer executions per second
};

/**
 * Pure roofline computation behind simulateLayer(): no stats-registry or
 * event-trace side effects, so it is safe to call from worker threads.
 */
LayerStats computeLayerStats(const SystemConfig &sys,
                             const GemmLayer &layer);

/** Simulate one GEMM layer on the configured system (and record it). */
LayerStats simulateLayer(const SystemConfig &sys, const GemmLayer &layer);

/** One (system, layer) point of a batched sweep. */
struct LayerJob
{
    SystemConfig sys;
    GemmLayer layer;
};

/**
 * Simulate a batch of independent layer jobs — equivalent to calling
 * simulateLayer() in a loop over `jobs`, including the order of every
 * stats-registry update and trace event.
 *
 * The pure roofline math fans out over parallelFor; observability is
 * then committed serially in job order, so dumps stay byte-identical
 * to the serial loop at any thread count.
 */
std::vector<LayerStats> simulateLayerBatch(const std::vector<LayerJob> &jobs);

class StatsRegistry;

/**
 * Register one layer's roofline results as named stats under `prefix`
 * (e.g. "sim.ur.layer3"): compute/stall/total cycles, per-interface
 * traffic, DRAM energy, runtime, utilization.
 */
void recordLayerStats(StatsRegistry &reg, const std::string &prefix,
                      const SystemConfig &sys, const LayerStats &stats);

} // namespace usys

#endif // USYS_SCHED_SIMULATOR_H
