#include "arch/sparsity.h"

namespace usys {

SparsityCensus
foldSparsityCensus(const KernelConfig &kern, const Matrix<i32> &input,
                   const Matrix<i32> &weights)
{
    SparsityCensus c;
    for (const i32 v : input.data())
        c.zero_acts += (v == 0);
    for (const i32 v : weights.data())
        c.zero_weights += (v == 0);
    // An all-zero activation stream elides one MAC slot per column it
    // would have fed. uGEMM-H is the carve-out: its bipolar offset makes
    // even a zero-valued operand contribute a bias term, so no slot is
    // skippable there.
    if (kern.scheme != Scheme::UgemmHybrid)
        c.skippable_macs = c.zero_acts * u64(weights.cols());
    return c;
}

} // namespace usys
