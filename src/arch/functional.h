/**
 * @file
 * Fast bit-exact functional GEMM engines.
 *
 * GemmExecutor computes the same accumulations as the cycle-level
 * SystolicArray (tests assert exact agreement) from the precomputed
 * unary product tables, making full DNN inference through the unary
 * datapath tractable. Its serial row kernel, runRow(), is also the
 * fold-free pass of SystolicGemm::run (DESIGN.md §13). Each (row, k)
 * step fetches the one table row its input selects and indexes it
 * across B's row k (weights decode to sign and magnitude
 * branch-free), so a MAC is one table load and an add into the row's
 * i64 accumulators. uSystolic rate/temporal rows skip every k-step
 * whose input delivers no 1-bits (a == 0, or a rate stream truncated
 * before its first 1): countAfterOnes(0, w) == 0, so the skip is
 * exact. uGEMM-H skips zero inputs too, as its tables make a zero
 * input a zero product (BipolarProductModel checks this when built),
 * but never zero weights, which are not. Results are returned in
 * scheme-native accumulator units; resultScale() converts them to
 * exact-product units.
 */

#ifndef USYS_ARCH_FUNCTIONAL_H
#define USYS_ARCH_FUNCTIONAL_H

#include <memory>

#include "common/matrix.h"
#include "arch/scheme.h"
#include "unary/product_table.h"

namespace usys {

/** Shared, cached product tables keyed by bitwidth. */
const UnaryProductModel &unaryModelFor(int signed_bits);
const BipolarProductModel &bipolarModelFor(int signed_bits);

/** Functional GEMM under a kernel configuration. */
class GemmExecutor
{
  public:
    explicit GemmExecutor(const KernelConfig &cfg);

    /**
     * True when the row kernel covers this configuration: the exact
     * schemes at any width, uSystolic up to 13 signed bits and uGEMM-H
     * up to 12 (the product-table limits).
     */
    static bool hasTables(const KernelConfig &cfg);

    /**
     * Compute the scheme's accumulations for C = A (MxK) x B (KxN).
     * Binary schemes are exact; unary schemes return binary-accumulated
     * product counts, shifted back by 2^(N-n) under early termination.
     */
    Matrix<i64> run(const Matrix<i32> &a, const Matrix<i32> &b) const;

    /**
     * Serial row kernel behind run(): acc[n] = sum over k < k_dim of the
     * scheme-native product of a_row[k] and b[k * ldb + n], for
     * n < n_dim. b may be a column block of a wider row-major matrix
     * (ldb its row stride). acc must hold zeros on entry (the
     * early-termination shift scales the finished row).
     */
    void runRow(const i32 *a_row, const i32 *b, std::size_t ldb,
                int k_dim, int n_dim, i64 *acc) const;

    /**
     * Factor converting accumulator units to exact-product units:
     * value_exact ~= acc * resultScale(). 1 for the exact schemes
     * (binary, tubGEMM, tuGEMM), 2^(N-1) for the rate-counting
     * weight-BSG schemes.
     */
    double resultScale() const;

    /** Scheme-native product of a single MAC (used by tests). */
    i64 singleProduct(i32 a, i32 b) const;

    const KernelConfig &config() const { return cfg_; }

  private:
    KernelConfig cfg_;
    const UnaryProductModel *unary_ = nullptr;
    const BipolarProductModel *bipolar_ = nullptr;
    // uSystolic rate under early termination: inputs deliver
    // rateOnes(|a|, mulCycles()) 1-bits and the row sum shifts left.
    bool truncated_ = false;
    int shift_ = 0;
};

} // namespace usys

#endif // USYS_ARCH_FUNCTIONAL_H
