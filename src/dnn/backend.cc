#include "dnn/backend.h"

#include <cmath>

#include "common/executor.h"
#include "common/fixed_point.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "arch/functional.h"

namespace usys {

namespace {

/** Largest |v| over the matrix: chunk maxima in parallel, then their
 *  max (exact in any order). NaNs are ignored, as std::max(mx, NaN)
 *  keeps mx. */
float
maxAbs(const MatF &m)
{
    constexpr std::size_t kChunk = 16384;
    const std::vector<float> &v = m.data();
    const std::size_t chunks = (v.size() + kChunk - 1) / kChunk;
    std::vector<float> part(chunks, 0.0f);
    parallelFor(0, u64(chunks), [&](u64 c) {
        const std::size_t end = std::min(v.size(), (c + 1) * kChunk);
        float mx = 0.0f;
        for (std::size_t i = c * kChunk; i < end; ++i)
            mx = std::max(mx, std::fabs(v[i]));
        part[c] = mx;
    });
    float mx = 0.0f;
    for (float p : part)
        mx = std::max(mx, p);
    return mx;
}

Matrix<i32>
quantizeMat(const MatF &m, double scale, int bits)
{
    Matrix<i32> q(m.rows(), m.cols());
    parallelFor(
        0, u64(m.rows()),
        [&](u64 r) {
            const float *src = &m(int(r), 0);
            i32 *dst = &q(int(r), 0);
            for (int c = 0; c < m.cols(); ++c)
                dst[c] = quantize(src[c], scale, bits);
        },
        rowGrain(u64(m.cols())));
    return q;
}

MatF
dequantizeAcc(const Matrix<i64> &acc, double factor)
{
    MatF out(acc.rows(), acc.cols());
    parallelFor(
        0, u64(acc.rows()),
        [&](u64 r) {
            const i64 *src = &acc(int(r), 0);
            float *dst = &out(int(r), 0);
            for (int c = 0; c < acc.cols(); ++c)
                dst[c] = float(double(src[c]) * factor);
        },
        rowGrain(u64(acc.cols())));
    return out;
}

} // namespace

MatF
gemmFp32(const MatF &a, const MatF &b)
{
    fatalIf(a.cols() != b.rows(), "gemmFp32: shape mismatch");
    MatF c(a.rows(), b.cols(), 0.0f);
    // Row-parallel: the dnn inference batch loop funnels every image of
    // a batch through one GEMM, so rows == batch here. Each row writes
    // only its own output slice and fp32 adds stay in row order, so the
    // result is bitwise-identical at any thread count.
    const SimdKernels &simd = simdKernels();
    parallelFor(
        0, u64(a.rows()),
        [&](u64 mi) {
            const int m = int(mi);
            for (int k = 0; k < a.cols(); ++k) {
                const float av = a(m, k);
                if (av == 0.0f)
                    continue;
                simd.axpyF32(&c(m, 0), &b(k, 0), av, b.cols());
            }
        },
        rowGrain(u64(a.cols()) * u64(b.cols())));
    return c;
}

MatF
gemmWithMode(const MatF &a, const MatF &b, const NumericConfig &cfg)
{
    cfg.check();
    if (cfg.mode == NumericMode::Fp32) {
        USYS_PROF_SCOPE("dnn.gemm");
        return gemmFp32(a, b);
    }

    // Bit allocation per mode. B is the weight operand.
    int a_bits = cfg.ebt, b_bits = cfg.ebt;
    if (cfg.mode == NumericMode::FxpOres) {
        // n-bit output resolution: the inputs share n bits; the weight
        // gets the extra bit when n is odd (Section V-A).
        a_bits = cfg.ebt / 2;
        b_bits = cfg.ebt - a_bits;
        a_bits = std::max(a_bits, 2);
        b_bits = std::max(b_bits, 2);
    }

    double sa = 0.0, sb = 0.0;
    Matrix<i32> qa, qb;
    {
        USYS_PROF_SCOPE("dnn.quantize");
        sa = symmetricScale(maxAbs(a), a_bits);
        sb = symmetricScale(maxAbs(b), b_bits);
        qa = quantizeMat(a, sa, a_bits);
        qb = quantizeMat(b, sb, b_bits);
    }

    // Integer GEMM in the mode's datapath, then back to float with the
    // factor that maps accumulator units to real products.
    Matrix<i64> acc;
    double factor = sa * sb;
    switch (cfg.mode) {
      case NumericMode::FxpIres:
      case NumericMode::FxpOres: {
        USYS_PROF_SCOPE("dnn.gemm");
        acc = referenceGemm(qa, qb);
        break;
      }
      case NumericMode::UnaryRate:
      case NumericMode::UnaryTemporal:
      case NumericMode::UgemmH:
      case NumericMode::TubGemm:
      case NumericMode::TuGemm: {
        Scheme scheme = Scheme::USystolicRate;
        if (cfg.mode == NumericMode::UnaryTemporal)
            scheme = Scheme::USystolicTemporal;
        if (cfg.mode == NumericMode::UgemmH)
            scheme = Scheme::UgemmHybrid;
        if (cfg.mode == NumericMode::TubGemm)
            scheme = Scheme::TubGemm;
        if (cfg.mode == NumericMode::TuGemm)
            scheme = Scheme::TuGemm;
        USYS_PROF_SCOPE("dnn.gemm");
        GemmExecutor exec({scheme, cfg.ebt, 0});
        acc = exec.run(qa, qb);
        factor *= exec.resultScale();
        break;
      }
      default:
        panic("gemmWithMode: unhandled mode");
    }
    USYS_PROF_SCOPE("dnn.dequant");
    return dequantizeAcc(acc, factor);
}

} // namespace usys
