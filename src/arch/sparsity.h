/**
 * @file
 * Value-sparsity census (DESIGN.md §16).
 *
 * A zero-magnitude operand in a unary scheme produces an all-zero
 * bitstream: its entire MAC, its stream generation, and its toggle
 * activity can be elided without changing a single output bit.
 * SparsityCensus makes that a measured property: per-fold counts of
 * zero activation/weight elements and the MAC slots an all-zero
 * activation stream makes skippable. It is a pure function of the tile
 * data (never of engine execution), so every engine books identical
 * counts and stats dumps stay byte-identical whichever skips run.
 *
 * The uGEMM-H carve-out: its bipolar MAC adds a bias term even for
 * zero-valued operands, so nothing is skippable there — the census
 * still counts its zero operands (data is data) but reports zero
 * skippable MAC slots.
 */

#ifndef USYS_ARCH_SPARSITY_H
#define USYS_ARCH_SPARSITY_H

#include "common/matrix.h"
#include "common/types.h"
#include "arch/scheme.h"

namespace usys {

/** Per-fold zero-operand census — a pure function of the tile data. */
struct SparsityCensus
{
    u64 zero_acts = 0;      // zero activation elements (M x R tile)
    u64 zero_weights = 0;   // zero weight elements (R x C tile)
    u64 skippable_macs = 0; // MAC slots elided by all-zero act streams

    bool any() const { return zero_acts || zero_weights; }
};

/**
 * Census of one fold's operand tiles. Counted from the engine's input
 * arguments (before any in-fold fault corruption), so the scalar and
 * packed engines book identical values by construction.
 */
SparsityCensus foldSparsityCensus(const KernelConfig &kern,
                                  const Matrix<i32> &input,
                                  const Matrix<i32> &weights);

} // namespace usys

#endif // USYS_ARCH_SPARSITY_H
