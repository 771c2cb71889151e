#include "arch/rtl_array.h"

#include <vector>

#include "common/stats_registry.h"
#include "arch/pe.h"

namespace usys {

namespace {

/** Registered lane wires between horizontally adjacent PEs. */
struct LaneWire
{
    bool ivalid = false; // multiplication cycle in flight
    bool mend = false;   // M-end pulse (accumulate/merge cycle)
    u32 phase = 0;       // multiplication phase (bit-serial weighting)
    LaneSignals sig;
};

} // namespace

RtlArray::RtlArray(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

SystolicArray::FoldResult
RtlArray::runFold(const Matrix<i32> &input,
                  const Matrix<i32> &weights) const
{
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    fatalIf(input.cols() != rows, "RtlArray: input width != rows");
    fatalIf(weights.rows() != rows || weights.cols() != cols,
            "RtlArray: weight tile shape mismatch");

    const int m_rows = input.rows();
    const KernelConfig &kern = cfg_.kernel;
    const u32 mul =
        kern.scheme == Scheme::BinaryParallel ? 1 : kern.mulCycles();
    const u32 mac = kern.macCycles();
    const int shift =
        (kern.scheme == Scheme::USystolicRate && kern.et_bits > 0)
            ? kern.bits - kern.et_bits
            : 0;

    // Fault plan, tile 0 (RtlArray folds are standalone; the referee is
    // compared against SystolicArray::runFold at the same tile id).
    // Fault *effects* are identical to the other engines; the referee
    // keeps its direct registry stats and books no fault counters.
    const FaultPlan *plan = cfg_.faults.enabled() ? &cfg_.faults : nullptr;
    const bool unary = isUnary(kern.scheme);

    // --- PE and wire state ----------------------------------------------
    std::vector<std::vector<PeCore>> cores(
        rows, std::vector<PeCore>(cols, PeCore(kern)));
    std::vector<RowFrontEnd> fes(rows, RowFrontEnd(kern));
    // Per-row ActivationStream event for the row's current MAC interval
    // (stable addresses: RowFrontEnd holds a pointer for the interval).
    std::vector<std::optional<Fault>> row_fault(rows);
    // Registered lane outputs of each PE (consumed by column c+1).
    std::vector<std::vector<LaneWire>> lane_q(
        rows, std::vector<LaneWire>(cols));
    // Registered upward partial sums (consumed by row r-1).
    std::vector<std::vector<i64>> psum_q(rows,
                                         std::vector<i64>(cols, 0));

    // --- Weight preload: shift one row per cycle down the columns. ------
    // Feeding rows bottom-up means after `rows` shifts PE row r holds
    // weight row r.
    // WeightReg faults corrupt the codes entering the preload pipe, so
    // the corrupted value is what shifts down and latches.
    Matrix<i32> latched;
    const Matrix<i32> &wsrc =
        latchWeights(plan, kern.bits, weights, latched, rows, cols);

    std::vector<std::vector<i32>> wpipe(rows, std::vector<i32>(cols, 0));
    Cycles cycle = 0;
    for (int beat = 0; beat < rows; ++beat, ++cycle) {
        for (int r = rows - 1; r > 0; --r)
            wpipe[r] = wpipe[r - 1];
        for (int c = 0; c < cols; ++c)
            wpipe[0][c] = wsrc(rows - 1 - beat, c);
    }
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            cores[r][c].loadWeight(wpipe[r][c]);
            if (plan)
                cores[r][c].attachFaults(plan, 0, r, c);
        }

    // --- Streaming -------------------------------------------------------
    // Row r starts its first MAC interval (rows-1-r) intervals after the
    // bottom row so partial sums climbing one row per interval stay
    // aligned. The rightmost column lags cols-1 additional cycles.
    const Cycles stream_base = cycle;
    auto row_start = [&](int r) {
        return stream_base + Cycles(rows - 1 - r) * mac;
    };
    const Cycles last_cycle =
        stream_base + (Cycles(m_rows) + rows - 1) * mac +
        Cycles(cols - 1);

    Matrix<i64> out(m_rows, cols, 0);
    std::vector<int> emitted(cols, 0); // outputs drained per column

    for (; cycle < last_cycle; ++cycle) {
        // Phase A: every PE computes its next state from the *current*
        // registered outputs of its neighbors.
        std::vector<std::vector<LaneWire>> lane_d = lane_q;
        std::vector<std::vector<i64>> psum_d = psum_q;

        // Front-end wires for the leftmost column, this cycle.
        std::vector<LaneWire> fe_wire(rows);
        for (int r = 0; r < rows; ++r) {
            const Cycles start = row_start(r);
            if (cycle < start)
                continue;
            const u64 local = cycle - start;
            const u64 interval = local / mac;
            const u32 phase = u32(local % mac);
            if (interval >= u64(m_rows))
                continue;
            if (phase == 0) {
                i32 value = input(int(interval), r);
                row_fault[r].reset();
                if (plan && plan->rates.activation_stream > 0.0)
                    row_fault[r] = plan->activationStream(
                        0, int(interval), r, activationWindow(kern));
                if (row_fault[r] && !unary)
                    value =
                        corruptActivationCode(*row_fault[r], value, kern);
                fes[r].loadInput(value);
                fes[r].setStreamFault(
                    unary && row_fault[r] ? &*row_fault[r] : nullptr);
            }
            if (phase < mul) {
                fe_wire[r].ivalid = true;
                fe_wire[r].phase = phase;
                fe_wire[r].sig = fes[r].step(phase);
            } else if (phase == mul) {
                fe_wire[r].mend = true;
                fe_wire[r].sig.isign = input(int(interval), r) < 0;
                fes[r].endMac();
            }
            // Binary parallel has no separate accumulate cycle: the
            // single valid cycle doubles as M-end.
            if (kern.scheme == Scheme::BinaryParallel && phase == 0)
                fe_wire[r].mend = true;
        }

        for (int c = 0; c < cols; ++c) {
            for (int r = 0; r < rows; ++r) {
                const LaneWire &in =
                    (c == 0) ? fe_wire[r] : lane_q[r][c - 1];
                PeCore &core = cores[r][c];
                if (in.ivalid)
                    core.stepMul(in.sig, in.phase);
                if (in.mend) {
                    const i64 below =
                        (r + 1 < rows) ? psum_q[r + 1][c] : 0;
                    const i64 up = core.finishMac(below, in.sig.isign);
                    psum_d[r][c] = up;
                    if (r == 0) {
                        // Top-row shifter + output drain.
                        out(emitted[c], c) = up * (i64(1) << shift);
                        ++emitted[c];
                    }
                }
                // Register the lane for the next column.
                lane_d[r][c] = in;
            }
        }

        // Phase B: commit.
        lane_q.swap(lane_d);
        psum_q.swap(psum_d);
    }

    for (int c = 0; c < cols; ++c)
        panicIf(emitted[c] != m_rows, "RtlArray: missing outputs");

    StatsRegistry &reg = statsRegistry();
    const std::string slug =
        "arch.rtl_" + sanitizeStatName(kern.name());
    ++reg.counter(slug + ".folds", "RTL-mode folds executed");
    reg.counter(slug + ".cycles", "RTL cycles simulated") += cycle;
    reg.counter(slug + ".mac_slots",
                "PE MAC slots evaluated (incl. padding)") +=
        u64(m_rows) * rows * cols;

    return SystolicArray::FoldResult{std::move(out), cycle};
}

} // namespace usys
