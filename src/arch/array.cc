#include "arch/array.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/cli.h"
#include "common/executor.h"
#include "common/profiler.h"
#include "common/stats_registry.h"
#include "arch/functional.h"
#include "arch/packed_array.h"
#include "arch/pe.h"
#include "mem/dram_faults.h"

namespace usys {

namespace {

/** Append a run to `runs`, extending the last one when M matches. */
void
appendRun(std::vector<FoldStatsDelta::RowsRun> &runs,
          const FoldStatsDelta::RowsRun &run)
{
    if (!runs.empty() && runs.back().m_rows == run.m_rows)
        runs.back().count += run.count;
    else
        runs.push_back(run);
}

} // namespace

const Matrix<i32> &
latchWeights(const FaultPlan *plan, int bits, const Matrix<i32> &w,
             Matrix<i32> &latched, int rows, int cols, u64 k_tiles,
             u64 tile0)
{
    if (!plan || plan->rates.weight_reg <= 0.0)
        return w;
    latched = w;
    for (int k = 0; k < w.rows(); ++k)
        for (int n = 0; n < w.cols(); ++n) {
            const u64 tile = tile0 + u64(n / cols) * k_tiles + u64(k / rows);
            if (const auto f =
                    plan->weightReg(tile, k % rows, n % cols, u32(bits)))
                latched(k, n) = corruptCode(*f, latched(k, n), bits);
        }
    return latched;
}

void
FoldStatsDelta::add(int m_rows, int rows, int cols, Cycles cycles,
                    u32 trace_len, u64 count)
{
    folds += count;
    mac_slots += count * u64(m_rows) * rows * cols;
    fold_cycles += count * cycles;
    bitstream_cycles += count * u64(trace_len) * u64(m_rows) * rows;
    appendRun(m_rows_runs, RowsRun{m_rows, count});
}

void
FoldStatsDelta::addFaults(const FoldFaultCounts &counts)
{
    faults_weight_reg += counts.weight_reg;
    faults_activation += counts.activation;
    faults_weight_stream += counts.weight_stream;
    faults_accumulator += counts.accumulator;
}

void
FoldStatsDelta::addSparsity(const SparsityCensus &census)
{
    sparsity_zero_acts += census.zero_acts;
    sparsity_zero_weights += census.zero_weights;
    sparsity_skippable_macs += census.skippable_macs;
}

void
FoldStatsDelta::merge(const FoldStatsDelta &other)
{
    folds += other.folds;
    mac_slots += other.mac_slots;
    fold_cycles += other.fold_cycles;
    bitstream_cycles += other.bitstream_cycles;
    for (const RowsRun &run : other.m_rows_runs)
        appendRun(m_rows_runs, run);
    faults_weight_reg += other.faults_weight_reg;
    faults_activation += other.faults_activation;
    faults_weight_stream += other.faults_weight_stream;
    faults_accumulator += other.faults_accumulator;
    faults_dram += other.faults_dram;
    sparsity_zero_acts += other.sparsity_zero_acts;
    sparsity_zero_weights += other.sparsity_zero_weights;
    sparsity_skippable_macs += other.sparsity_skippable_macs;
}

void
FoldStatsDelta::flush(const KernelConfig &kern) const
{
    StatsRegistry &reg = statsRegistry();
    const std::string slug = "arch." + sanitizeStatName(kern.name());
    reg.counter(slug + ".folds", "bit-level array folds executed") +=
        folds;
    reg.counter(slug + ".mac_slots",
                "PE MAC slots evaluated (incl. padding)") += mac_slots;
    reg.counter(slug + ".fold_cycles", "fold latencies, summed") +=
        fold_cycles;
    reg.counter(slug + ".bitstream_cycles",
                "lane bitstream cycles generated") += bitstream_cycles;
    auto &hist = reg.histogram("arch.fold_m_rows", 0.0, 4096.0, 16,
                               "input rows streamed per fold");
    // add(x, count) steps the moments once per fold, so a run commits
    // exactly what as many single adds would.
    for (const RowsRun &run : m_rows_runs)
        hist.add(double(run.m_rows), run.count);
    if (faultTotal()) {
        reg.counter(slug + ".faults_injected",
                    "fault events injected (all sites)") += faultTotal();
        reg.counter(slug + ".faults_weight_reg",
                    "weight-register fault events") += faults_weight_reg;
        reg.counter(slug + ".faults_activation",
                    "activation-stream fault events") += faults_activation;
        reg.counter(slug + ".faults_weight_stream",
                    "weight-stream (C-BSG) fault events") +=
            faults_weight_stream;
        reg.counter(slug + ".faults_accumulator",
                    "accumulator fault events") += faults_accumulator;
        reg.counter(slug + ".faults_dram",
                    "DRAM read-word fault events") += faults_dram;
    }
    // Pure data properties of the operand tiles: identical whether the
    // sparse paths executed or not, and omitted entirely on fully-dense
    // runs so pre-existing dumps are unchanged.
    if (sparsity_zero_acts || sparsity_zero_weights) {
        reg.counter(slug + ".sparsity_zero_acts",
                    "zero-valued activation elements streamed") +=
            sparsity_zero_acts;
        reg.counter(slug + ".sparsity_zero_weights",
                    "zero-valued stationary weight elements") +=
            sparsity_zero_weights;
        reg.counter(slug + ".sparsity_skippable_macs",
                    "MAC slots elidable by zero-stream skipping") +=
            sparsity_skippable_macs;
    }
}

SystolicArray::SystolicArray(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

SystolicArray::FoldResult
SystolicArray::runFold(const Matrix<i32> &input,
                       const Matrix<i32> &weights,
                       FoldStatsDelta *stats, u64 tile) const
{
    USYS_PROF_SCOPE("fold.scalar");
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    fatalIf(input.cols() != rows, "runFold: input width != array rows");
    fatalIf(weights.rows() != rows || weights.cols() != cols,
            "runFold: weight tile does not match array shape");

    const int m_rows = input.rows();
    const KernelConfig &kern = cfg_.kernel;
    const u32 mac = kern.macCycles();

    // --- Cycle accounting -------------------------------------------------
    // Weight preload pipelines one array row per cycle from the top.
    Cycles cycles = Cycles(rows);
    // Streaming: rows are skewed by one MAC interval each (bottom row
    // first); the final top-row M-end lands at the end of interval
    // (m_rows + rows - 2). The rightmost column lags cols-1 cycles.
    const u64 intervals = u64(m_rows) + rows - 1;
    cycles += intervals * mac + u64(cols - 1);
    panicIf(cycles != foldLatency(m_rows),
            "runFold: schedule disagrees with closed form");

    // --- Lane traces ------------------------------------------------------
    // Each row's front end emits identical lane signals to every column
    // (columns only add delay), so generate the per-(row, input-row)
    // multiplication-cycle traces once.
    const u32 trace_len = laneTraceLength(kern);

    // Per-scheme bit-level work counters (one delta per fold, not per
    // MAC, so the accounting stays off the inner loops). Parallel
    // callers pass their shard's delta; the serial path commits now.
    FoldStatsDelta local;
    FoldStatsDelta &delta = stats ? *stats : local;
    delta.add(m_rows, rows, cols, cycles, trace_len);
    delta.addSparsity(foldSparsityCensus(kern, input, weights));

    const FaultPlan *plan = cfg_.faults.enabled() ? &cfg_.faults : nullptr;
    if (plan)
        delta.addFaults(
            countFoldFaults(*plan, kern, tile, m_rows, rows, cols));

    // WeightReg site: the preload latches the corrupted codes.
    Matrix<i32> latched;
    const Matrix<i32> &w = latchWeights(plan, kern.bits, weights, latched,
                                        rows, cols, 1, tile);

    const bool unary = isUnary(kern.scheme);
    std::vector<std::vector<std::vector<LaneSignals>>> traces(rows);
    for (int r = 0; r < rows; ++r) {
        RowFrontEnd fe(kern);
        traces[r].resize(m_rows);
        for (int m = 0; m < m_rows; ++m) {
            i32 value = input(m, r);
            std::optional<Fault> af;
            if (plan)
                af = plan->activationStream(tile, m, r,
                                            activationWindow(kern));
            // BP/BS activation faults corrupt the latched code; the
            // unary schemes corrupt the BSG output stream bit-by-bit.
            if (af && !unary)
                value = corruptActivationCode(*af, value, kern);
            fe.loadInput(value);
            fe.setStreamFault(unary && af ? &*af : nullptr);
            auto &t = traces[r][m];
            t.resize(trace_len);
            for (u32 p = 0; p < trace_len; ++p)
                t[p] = fe.step(p);
            fe.endMac();
        }
    }

    // --- Numerics ---------------------------------------------------------
    // Evaluate PE cores in schedule order: for each output row m, the
    // partial sum climbs from the bottom row to the top, each level one
    // MAC interval later than the level below (exactly the skewed
    // hardware schedule).
    std::vector<std::vector<PeCore>> cores(
        rows, std::vector<PeCore>(cols, PeCore(kern)));
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            cores[r][c].loadWeight(w(r, c));
            if (plan)
                cores[r][c].attachFaults(plan, tile, r, c);
        }
    }

    const int shift =
        (kern.scheme == Scheme::USystolicRate && kern.et_bits > 0)
            ? kern.bits - kern.et_bits
            : 0;

    Matrix<i64> out(m_rows, cols, 0);
    for (int c = 0; c < cols; ++c) {
        for (int m = 0; m < m_rows; ++m) {
            i64 psum = 0;
            for (int r = rows - 1; r >= 0; --r) {
                PeCore &core = cores[r][c];
                const auto &t = traces[r][m];
                for (u32 p = 0; p < trace_len; ++p)
                    core.stepMul(t[p], p);
                psum = core.finishMac(psum, t.empty() ? false
                                                      : t[0].isign);
            }
            // Top-row shifter restores early-terminated magnitude.
            out(m, c) = psum * (i64(1) << shift);
        }
    }

    if (!stats)
        local.flush(kern);
    return FoldResult{std::move(out), cycles};
}

SystolicGemm::SystolicGemm(const ArrayConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
}

namespace {

// Output columns one fold-free task owns: a few hundred, so a batch-1
// FC layer still splits into a task per core while every k-step reads
// a contiguous 1 KB slice of a B row.
constexpr int kBlockCols = 256;
// B elements a row-0 task censuses per step, just before the row
// kernel reads them: small enough to stay in L2, large enough that a
// gemm.census scope brackets well over 10 us (DESIGN.md §12).
constexpr int kCensusElems = 32768;

u64
countZeros(const i32 *p, int n)
{
    u64 zeros = 0;
    for (int i = 0; i < n; ++i)
        zeros += (p[i] == 0);
    return zeros;
}

/** Zero elements of the unpadded operands of a fold-free GEMM. */
struct OperandZeros
{
    u64 a = 0;
    u64 b = 0;
};

/**
 * acc (zeroed, M x N) = a x b in one pass of the row kernel, as tasks
 * of (row m, column block j), counting the operands' zeros on the way:
 * each row of A in its block-0 task (a k_dim scan beside the task's
 * k_dim x 256 MACs, so it stays inside gemm.rows), each column block
 * of `census_b` (b before weight-register faults, same shape) in its
 * row-0 task, interleaved with the kernel a chunk of rows at a time.
 * Chunked partial rows sum exactly: integer adds reassociate, and the
 * early-termination shift distributes over the row sum.
 */
OperandZeros
foldFreeGemm(const GemmExecutor &kernel, const Matrix<i32> &a,
             const Matrix<i32> &b, const Matrix<i32> &census_b,
             Matrix<i64> &acc)
{
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    const u64 n_blocks = u64((n_dim + kBlockCols - 1) / kBlockCols);
    const std::size_t ldb = std::size_t(n_dim);
    // One slot per writer task, reduced after the join.
    std::vector<u64> row_zeros(std::size_t(a.rows()), 0);
    std::vector<u64> block_zeros(n_blocks, 0);
    auto task = [&](u64 t) {
        USYS_PROF_SCOPE("gemm.rows");
        const int m = int(t / n_blocks);
        const u64 j = t % n_blocks;
        const int n0 = int(j) * kBlockCols;
        const int nb = std::min(kBlockCols, n_dim - n0);
        const i32 *a_row = &a(m, 0);
        const i32 *b_block = b.data().data() + n0;
        i64 *out = &acc(m, n0);
        if (j == 0)
            row_zeros[std::size_t(m)] = countZeros(a_row, k_dim);
        if (m != 0) {
            kernel.runRow(a_row, b_block, ldb, k_dim, nb, out);
            return;
        }
        const int chunk_rows = std::max(1, kCensusElems / nb);
        i64 part[kBlockCols];
        u64 zeros = 0;
        for (int k0 = 0; k0 < k_dim; k0 += chunk_rows) {
            const int kc = std::min(chunk_rows, k_dim - k0);
            const std::size_t off = std::size_t(k0) * ldb;
            const i32 *chunk = b_block + off;
            {
                USYS_PROF_SCOPE("gemm.census");
                const i32 *census = census_b.data().data() + n0 + off;
                for (int k = 0; k < kc; ++k)
                    zeros += countZeros(census + std::size_t(k) * ldb, nb);
            }
            std::fill(part, part + nb, 0);
            kernel.runRow(a_row + k0, chunk, ldb, kc, nb, part);
            for (int n = 0; n < nb; ++n)
                out[n] += part[n];
        }
        block_zeros[j] = zeros;
    };
    parallelFor(0, u64(a.rows()) * n_blocks, task,
                rowGrain(u64(k_dim) * u64(std::min(n_dim, kBlockCols))));

    OperandZeros zeros;
    for (const u64 z : row_zeros)
        zeros.a += z;
    for (const u64 z : block_zeros)
        zeros.b += z;
    return zeros;
}

} // namespace

SystolicGemm::RunResult
SystolicGemm::run(const Matrix<i32> &a, const Matrix<i32> &b,
                  FoldStatsDelta *stats) const
{
    USYS_PROF_SCOPE("gemm.run");
    fatalIf(a.cols() != b.rows(), "SystolicGemm: shape mismatch");
    const int m_rows = a.rows();
    const int k_dim = a.cols();
    const int n_dim = b.cols();
    const int rows = cfg_.rows;
    const int cols = cfg_.cols;
    const KernelConfig &kern = cfg_.kernel;

    const bool packed = packedEngineEnabled();
    const SystolicArray scalar_array(cfg_);

    const u64 n_tiles = u64((n_dim + cols - 1) / cols);
    const u64 k_tiles = u64((k_dim + rows - 1) / rows);

    RunResult result;
    result.acc = Matrix<i64>(m_rows, n_dim, 0);
    result.folds = n_tiles * k_tiles;

    // DramWord site: operand codes corrupt once per GEMM, as they leave
    // memory — before tiling, so every fold (and either engine)
    // consumes identical corrupted reads.
    const FaultPlan &fp = cfg_.faults;
    const Matrix<i32> *pa = &a, *pb = &b;
    Matrix<i32> a_faulted, b_faulted;
    u64 dram_events = 0;
    if (fp.enabled() && fp.rates.dram_word > 0.0) {
        USYS_PROF_SCOPE("gemm.dram_faults");
        a_faulted = a;
        b_faulted = b;
        dram_events += applyDramFaults(fp, a_faulted, kDramOperandA,
                                       kern.bits);
        dram_events += applyDramFaults(fp, b_faulted, kDramOperandB,
                                       kern.bits);
        pa = &a_faulted;
        pb = &b_faulted;
    }

    // Fold-free pass: with no per-MAC fault site in the plan, the whole
    // GEMM is one blocked pass of the table row kernel over the untiled
    // operands, and the folds' stats follow in closed form (DESIGN.md
    // §13). DRAM faults are applied above; each weight-register fault
    // corrupts the one B element its fold latches, so a latched copy of
    // B stands in for the folds (padded slots meet A's zero padding or
    // a discarded column). Per-MAC sites and table-less widths stay on
    // the fold loop below, as do empty operands (B's census rides on
    // the tasks of row 0).
    const FaultRates &fr = fp.rates;
    const bool per_mac_faults = fr.activation_stream > 0.0 ||
                                fr.weight_stream > 0.0 ||
                                fr.accumulator > 0.0;
    if (packed && GemmExecutor::hasTables(kern) && !per_mac_faults &&
        m_rows > 0 && k_dim > 0 && n_dim > 0) {
        Matrix<i32> b_latched;
        const Matrix<i32> &bl = latchWeights(&fp, kern.bits, *pb, b_latched,
                                             rows, cols, k_tiles);
        const OperandZeros zeros =
            foldFreeGemm(GemmExecutor(kern), *pa, bl, *pb, result.acc);
        const Cycles latency = scalar_array.foldLatency(m_rows);
        result.cycles = result.folds * latency;

        FoldStatsDelta delta;
        delta.add(m_rows, rows, cols, latency, laneTraceLength(kern),
                  result.folds);
        delta.faults_dram = dram_events;
        if (fr.weight_reg > 0.0)
            for (u64 t = 0; t < result.folds; ++t)
                delta.addFaults(
                    countFoldFaults(fp, kern, t, m_rows, rows, cols));
        // Every fold stages one zero-padded K-tile of A and one
        // zero-padded weight tile: A's tiles are each streamed once per
        // column tile, the weight tiles partition the padded B.
        const u64 k_pad = k_tiles * u64(rows);
        delta.sparsity_zero_acts =
            n_tiles * (zeros.a + u64(m_rows) * (k_pad - u64(k_dim)));
        delta.sparsity_zero_weights =
            zeros.b + k_pad * n_tiles * u64(cols) - u64(k_dim) * u64(n_dim);
        if (kern.scheme != Scheme::UgemmHybrid)
            delta.sparsity_skippable_macs =
                delta.sparsity_zero_acts * u64(cols);
        if (stats)
            stats->merge(delta);
        else
            delta.flush(kern);
        return result;
    }

    const PackedArray packed_array(cfg_);

    // Stage every K-tile of A once, up front, shared read-only across
    // the column-tile shards — instead of every shard re-staging the
    // same input slice per fold. Zero padding models idle PEs on
    // ragged edges.
    std::vector<Matrix<i32>> a_tiles;
    {
        USYS_PROF_SCOPE("gemm.stage_a");
        a_tiles.reserve(k_tiles);
        for (u64 kt = 0; kt < k_tiles; ++kt) {
            const int k0 = int(kt) * rows;
            Matrix<i32> t(m_rows, rows, 0);
            for (int m = 0; m < m_rows; ++m)
                for (int r = 0; r < rows && k0 + r < k_dim; ++r)
                    t(m, r) = (*pa)(m, k0 + r);
            a_tiles.push_back(std::move(t));
        }
    }

    // Each column-tile shard owns a disjoint slice of the output matrix,
    // so the shards can run concurrently; per-shard cycle counts and
    // stats deltas are reduced serially in tile order below, keeping
    // totals and dumps identical to the serial loop.
    // One delta even when N = 0: it still books A's DRAM events.
    std::vector<FoldStatsDelta> deltas(std::max<u64>(n_tiles, 1));
    deltas[0].faults_dram = dram_events;
    std::vector<Cycles> tile_cycles(n_tiles, 0);
    auto run_tile = [&](u64 ti) {
        USYS_PROF_SCOPE("gemm.tile");
        const int n0 = int(ti) * cols;
        // The weight staging tile is hoisted out of the K loop and
        // re-zeroed in place, so a shard allocates once per GEMM.
        Matrix<i32> w_tile(rows, cols, 0);
        for (u64 kt = 0; kt < k_tiles; ++kt) {
            const int k0 = int(kt) * rows;
            const Matrix<i32> &in = a_tiles[kt];
            std::fill(w_tile.data().begin(), w_tile.data().end(), 0);
            for (int r = 0; r < rows && k0 + r < k_dim; ++r)
                for (int c = 0; c < cols && n0 + c < n_dim; ++c)
                    w_tile(r, c) = (*pb)(k0 + r, n0 + c);

            // Global fold index: the coordinate every per-fold fault
            // site hashes, identical under any tile schedule.
            const u64 tile = ti * k_tiles + kt;
            const auto fold =
                packed ? packed_array.runFold(in, w_tile, &deltas[ti], tile)
                       : scalar_array.runFold(in, w_tile, &deltas[ti], tile);
            tile_cycles[ti] += fold.cycles;
            for (int m = 0; m < m_rows; ++m)
                for (int c = 0; c < cols && n0 + c < n_dim; ++c)
                    result.acc(m, n0 + c) += fold.output(m, c);
        }
    };
    parallelFor(0, n_tiles, run_tile);

    for (const Cycles c : tile_cycles)
        result.cycles += c;
    for (const FoldStatsDelta &delta : deltas) {
        if (stats)
            stats->merge(delta);
        else
            delta.flush(kern);
    }
    return result;
}

} // namespace usys
