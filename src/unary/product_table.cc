#include "unary/product_table.h"

#include <algorithm>

#include "common/logging.h"
#include "unary/sobol.h"

namespace usys {

namespace {

/**
 * Build the 2-D prefix-count table for a sequence S of length L:
 * table[m * (L+1) + w] = #{ j < m : S[j] < w } for m, w in [0, L].
 */
std::vector<u16>
buildPrefixTable(const std::vector<u32> &seq)
{
    const std::size_t len = seq.size();
    const std::size_t stride = len + 1;
    std::vector<u16> table(stride * stride, 0);
    for (std::size_t m = 1; m <= len; ++m) {
        const u32 sample = seq[m - 1];
        const u16 *prev = &table[(m - 1) * stride];
        u16 *cur = &table[m * stride];
        for (std::size_t w = 0; w <= len; ++w)
            cur[w] = u16(prev[w] + (sample < w ? 1 : 0));
    }
    return table;
}

} // namespace

UnaryProductModel::UnaryProductModel(int signed_bits, int weight_rng_dim,
                                     int input_rng_dim)
    : mag_bits_(signed_bits - 1)
{
    fatalIf(signed_bits < 2 || signed_bits > 13,
            "UnaryProductModel: signed bitwidth must be in [2, 13]");
    period_ = u32(1) << mag_bits_;
    stride_ = std::size_t(period_) + 1;
    weight_prefix_ = buildPrefixTable(sobolPermutation(weight_rng_dim,
                                                       mag_bits_));
    input_prefix_ = buildPrefixTable(sobolPermutation(input_rng_dim,
                                                      mag_bits_));
}

BipolarProductModel::BipolarProductModel(int signed_bits, int rng_dim_one,
                                         int rng_dim_zero)
{
    fatalIf(signed_bits < 2 || signed_bits > 12,
            "BipolarProductModel: signed bitwidth must be in [2, 12]");
    period_ = u32(1) << signed_bits;
    stride_ = std::size_t(period_) + 1;
    prefix_one_ = buildPrefixTable(sobolPermutation(rng_dim_one,
                                                    signed_bits));
    prefix_zero_ = buildPrefixTable(sobolPermutation(rng_dim_zero,
                                                     signed_bits));
    // GEMM kernels skip zero inputs, which needs scaledProduct(0, w) == 0
    // for every w: the two rows a zero input selects must agree.
    const u16 *one = oneRow(offset(0));
    fatalIf(!std::equal(one, one + stride_, zeroRow(offset(0))),
            "BipolarProductModel: a zero input is not a null product");
}

u32
BipolarProductModel::onesCount(i32 x, i32 w) const
{
    const u32 x_off = offset(x);
    const u32 w_off = offset(w);
    // XNOR: output 1 when (x=1, w=1) or (x=0, w=0). Of the input's
    // period - x_off 0-bits, zeroRow counts those that met a weight 1.
    return oneRow(x_off)[w_off] + (period_ - x_off) - zeroRow(x_off)[w_off];
}

} // namespace usys
