#include "arch/functional.h"

#include <map>
#include <mutex>

#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/simd.h"
#include "arch/pe.h"

namespace usys {

namespace {

// Bitwidths the per-thread memos below cover (a signed bitwidth beyond
// this falls back to the locked cache lookup, which stays correct).
constexpr int kModelMemoSlots = 32;

} // namespace

const UnaryProductModel &
unaryModelFor(int signed_bits)
{
    // Per-thread memo in front of the shared cache: executor workers are
    // persistent, so after one warm lookup per bitwidth a sweep never
    // touches the mutex again. The cached models are immutable prefix
    // tables, so sharing one instance across threads is safe.
    thread_local const UnaryProductModel *memo[kModelMemoSlots] = {};
    const bool memoable = signed_bits >= 0 && signed_bits < kModelMemoSlots;
    if (memoable && memo[signed_bits])
        return *memo[signed_bits];

    static std::mutex mutex;
    static std::map<int, std::unique_ptr<UnaryProductModel>> cache;
    const UnaryProductModel *model = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto &slot = cache[signed_bits];
        if (!slot) {
            slot = std::make_unique<UnaryProductModel>(
                signed_bits, kWeightRngDim, kInputRngDim);
        }
        model = slot.get();
    }
    if (memoable)
        memo[signed_bits] = model;
    return *model;
}

const BipolarProductModel &
bipolarModelFor(int signed_bits)
{
    thread_local const BipolarProductModel *memo[kModelMemoSlots] = {};
    const bool memoable = signed_bits >= 0 && signed_bits < kModelMemoSlots;
    if (memoable && memo[signed_bits])
        return *memo[signed_bits];

    static std::mutex mutex;
    static std::map<int, std::unique_ptr<BipolarProductModel>> cache;
    const BipolarProductModel *model = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto &slot = cache[signed_bits];
        if (!slot) {
            slot = std::make_unique<BipolarProductModel>(
                signed_bits, kWeightRngDim,
                kWeightRngDim + kWeightAltRngOffset);
        }
        model = slot.get();
    }
    if (memoable)
        memo[signed_bits] = model;
    return *model;
}

GemmExecutor::GemmExecutor(const KernelConfig &cfg)
    : cfg_(cfg)
{
    cfg_.check();
    switch (cfg_.scheme) {
      case Scheme::USystolicRate:
      case Scheme::USystolicTemporal:
        unary_ = &unaryModelFor(cfg_.bits);
        // Early termination scales every product by 2^shift; runRow
        // applies it once to the row sum, as (sum c) << s == sum (c << s).
        truncated_ = cfg_.scheme == Scheme::USystolicRate &&
                     cfg_.mulCycles() < unary_->period();
        shift_ = truncated_ ? cfg_.bits - cfg_.et_bits : 0;
        break;
      case Scheme::UgemmHybrid:
        bipolar_ = &bipolarModelFor(cfg_.bits);
        break;
      default:
        break;
    }
}

bool
GemmExecutor::hasTables(const KernelConfig &cfg)
{
    switch (cfg.scheme) {
      case Scheme::USystolicRate:
      case Scheme::USystolicTemporal:
        return cfg.bits <= 13;
      case Scheme::UgemmHybrid:
        return cfg.bits <= 12;
      default:
        return true;
    }
}

i64
GemmExecutor::singleProduct(i32 a, i32 b) const
{
    switch (cfg_.scheme) {
      case Scheme::BinaryParallel:
      case Scheme::BinarySerial:
      case Scheme::TubGemm:
      case Scheme::TuGemm:
        // The temporal-unary schemes are exact: the staircase stream
        // asserts exactly |a| bits and each contributes the full signed
        // weight (tubGEMM) or |w| of the held cycles (tuGEMM).
        return i64(a) * b;
      case Scheme::USystolicRate: {
        const SignMag sa = toSignMag(a);
        const SignMag sb = toSignMag(b);
        const i64 count = unary_->rateProduct(sa.magnitude, sb.magnitude,
                                              cfg_.mulCycles());
        const i64 mag = count << shift_;
        return (sa.negative != sb.negative) ? -mag : mag;
      }
      case Scheme::USystolicTemporal: {
        const SignMag sa = toSignMag(a);
        const SignMag sb = toSignMag(b);
        const i64 count = unary_->fullProduct(sa.magnitude, sb.magnitude);
        return (sa.negative != sb.negative) ? -count : count;
      }
      case Scheme::UgemmHybrid:
        return bipolar_->scaledProduct(a, b);
    }
    return 0;
}

Matrix<i64>
GemmExecutor::run(const Matrix<i32> &a, const Matrix<i32> &b) const
{
    fatalIf(a.cols() != b.rows(), "GemmExecutor: shape mismatch");
    // Rows are independent (each writes only its own output row, used as
    // its i64 accumulator), so the batch loop of dnn inference
    // parallelizes here; every per-row sum is exact integer arithmetic,
    // so the result is independent of the thread count.
    Matrix<i64> out(a.rows(), b.cols(), 0);
    parallelFor(
        0, u64(a.rows()),
        [&](u64 m) {
            runRow(&a(int(m), 0), b.data().data(), std::size_t(b.cols()),
                   b.rows(), b.cols(), &out(int(m), 0));
        },
        rowGrain(u64(a.cols()) * u64(b.cols())));
    return out;
}

void
GemmExecutor::runRow(const i32 *a_row, const i32 *b, std::size_t ldb,
                     int k_dim, int n_dim, i64 *acc) const
{
    if (!hasWeightBsg(cfg_.scheme)) {
        // Exact-product schemes (binary, tubGEMM, tuGEMM): a plain
        // integer GEMM row on the dispatched SIMD kernel. A zero input
        // adds nothing to any column.
        const SimdKernels &simd = simdKernels();
        for (int k = 0; k < k_dim; ++k)
            if (a_row[k] != 0)
                simd.gemmRowI32(acc, b + std::size_t(k) * ldb, a_row[k],
                                n_dim);
        return;
    }

    if (cfg_.scheme == Scheme::UgemmHybrid) {
        // scaledProduct(x, w) = oneRow(x)[w_off] - zeroRow(x)[w_off]
        //                       + (period - x_off - period/2).
        // The last term depends only on x, so it is summed once per row
        // and added to every column at the end. A zero weight is not a
        // zero product here; a zero input is (its two rows cancel, which
        // BipolarProductModel checks when built, and its last term is 0),
        // so its k-step is skipped.
        const i64 half = bipolar_->period() / 2;
        i64 row_const = 0;
        for (int k = 0; k < k_dim; ++k) {
            const i32 av = a_row[k];
            if (av == 0)
                continue;
            const u32 x_off = bipolar_->offset(av);
            // Offsetting the rows by half lets the signed weight index
            // them directly.
            const u16 *one = bipolar_->oneRow(x_off) + half;
            const u16 *zero = bipolar_->zeroRow(x_off) + half;
            const i32 *w = b + std::size_t(k) * ldb;
            row_const += i64(bipolar_->period() - x_off) - half;
            for (int n = 0; n < n_dim; ++n)
                acc[n] += i32(one[w[n]]) - i32(zero[w[n]]);
        }
        for (int n = 0; n < n_dim; ++n)
            acc[n] += row_const;
        return;
    }

    // uSystolic rate/temporal: sign-magnitude unipolar products,
    // binary-accumulated. Each k-step fetches one table row (the input's
    // delivered ones-count picks it) and indexes it with the weight
    // magnitudes; the sign is applied as (c ^ s) - s with s the XOR of
    // the two operands' 0/-1 sign masks.
    const u32 cycles = cfg_.mulCycles();
    for (int k = 0; k < k_dim; ++k) {
        const i32 av = a_row[k];
        if (av == 0)
            continue;
        const SignMag sa = toSignMag(av);
        const u32 ones = truncated_ ? unary_->rateOnes(sa.magnitude, cycles)
                                    : sa.magnitude;
        // countAfterOnes(0, .) == 0: an input that delivers no 1-bits
        // adds nothing to any column.
        if (ones == 0)
            continue;
        const u16 *row = unary_->weightRow(ones);
        const i32 *w = b + std::size_t(k) * ldb;
        const i32 flip = -i32(sa.negative);
        for (int n = 0; n < n_dim; ++n) {
            const i32 neg = w[n] >> 31;
            const i32 s = neg ^ flip;
            acc[n] += (i32(row[(w[n] ^ neg) - neg]) ^ s) - s;
        }
    }
    if (shift_ > 0)
        for (int n = 0; n < n_dim; ++n)
            acc[n] *= i64(1) << shift_;
}

double
GemmExecutor::resultScale() const
{
    // Only the comparator/RNG weight schemes accumulate rate counts
    // that need the 2^(N-1) rescale; tubGEMM/tuGEMM are exact.
    return hasWeightBsg(cfg_.scheme) ? double(u64(1) << (cfg_.bits - 1))
                                     : 1.0;
}

} // namespace usys
