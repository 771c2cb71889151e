/**
 * @file
 * Word-packed (64-lane SWAR) weight-stationary array simulator.
 *
 * PackedArray computes exactly the same FoldResult as SystolicArray /
 * RtlArray — same outputs, same cycle counts, same stats-registry
 * deltas under the same stat names — without stepping a single
 * simulated cycle.
 *
 * The key identity: the C-BSG weight RNG advances only on input
 * 1-bits, so the k-th random number a PE compares against WABS is
 * wrng.at(k) regardless of *where* the input 1-bits fall in the MAC
 * interval. A rate/temporal MAC therefore reduces to
 *
 *     count = #{ j < ones : wrng.at(j) < |w| }
 *
 * with `ones` the input 1-bits delivered in the (possibly early-
 * terminated) window and the sign handled in sign-magnitude exactly as
 * in PeCore; uGEMM-H splits the count across its two polarity lanes,
 * and the binary and temporal-unary (tubGEMM/tuGEMM) schemes are exact
 * integer products once the activation's code or ones-count is staged.
 * See DESIGN.md §8 for the full derivation.
 *
 * PackedArray is the fold engine for what the fold-free pass of
 * SystolicGemm::run (GemmExecutor's product-table row kernel, DESIGN.md
 * §13/§17) cannot express: folds under activation-stream, weight-stream
 * or accumulator faults, and unary widths beyond the tables. The
 * staged-value schemes run an integer-product loop with their
 * activation faults pre-applied to the staged values; the
 * comparator-BSG schemes run the per-MAC packed-stream path, which
 * materializes the weight-comparison streams as packed words and
 * answers each count with one masked popcount (DESIGN.md §13).
 */

#ifndef USYS_ARCH_PACKED_ARRAY_H
#define USYS_ARCH_PACKED_ARRAY_H

#include "common/matrix.h"
#include "common/types.h"
#include "arch/array.h"

namespace usys {

/** Word-packed drop-in for SystolicArray::runFold, for the folds the
 *  fold-free pass cannot run (per-MAC fault sites, table-less widths). */
class PackedArray
{
  public:
    explicit PackedArray(const ArrayConfig &cfg);

    /**
     * Run one fold: output (M x C) = input (M x R) x weights (R x C),
     * bit-exact with SystolicArray::runFold (outputs, cycles, stats) —
     * including under an enabled fault plan, where both engines resolve
     * identical fault events per (tile, m, r, c) coordinate.
     *
     * @param stats same contract as SystolicArray::runFold — non-null
     *        accumulates the registry delta for a later ordered flush()
     * @param tile fold index for fault-site resolution (SystolicGemm
     *        numbers folds ti * k_tiles + kt; standalone folds use 0)
     */
    SystolicArray::FoldResult runFold(const Matrix<i32> &input,
                                      const Matrix<i32> &weights,
                                      FoldStatsDelta *stats = nullptr,
                                      u64 tile = 0) const;

    const ArrayConfig &config() const { return cfg_; }

  private:
    ArrayConfig cfg_;
};

} // namespace usys

#endif // USYS_ARCH_PACKED_ARRAY_H
