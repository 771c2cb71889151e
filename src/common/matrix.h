/**
 * @file
 * Dense row-major matrix used by the GEMM engines.
 */

#ifndef USYS_COMMON_MATRIX_H
#define USYS_COMMON_MATRIX_H

#include <vector>

#include "common/executor.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/types.h"

namespace usys {

/** Row-major 2-D array with bounds-checked element access. */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    Matrix(int rows, int cols, T fill = T())
        : rows_(rows), cols_(cols), data_(std::size_t(rows) * cols, fill)
    {}

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    T &
    at(int r, int c)
    {
        panicIf(r < 0 || r >= rows_ || c < 0 || c >= cols_,
                "Matrix index out of range");
        return data_[std::size_t(r) * cols_ + c];
    }

    const T &
    at(int r, int c) const
    {
        panicIf(r < 0 || r >= rows_ || c < 0 || c >= cols_,
                "Matrix index out of range");
        return data_[std::size_t(r) * cols_ + c];
    }

    /** Unchecked access for hot loops. */
    T &operator()(int r, int c) { return data_[std::size_t(r) * cols_ + c]; }
    const T &
    operator()(int r, int c) const
    {
        return data_[std::size_t(r) * cols_ + c];
    }

    const std::vector<T> &data() const { return data_; }
    std::vector<T> &data() { return data_; }

    bool
    operator==(const Matrix &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               data_ == other.data_;
    }

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<T> data_;
};

/** Reference integer GEMM: C (MxN) = A (MxK) * B (KxN), exact in i64. */
inline Matrix<i64>
referenceGemm(const Matrix<i32> &a, const Matrix<i32> &b)
{
    fatalIf(a.cols() != b.rows(), "referenceGemm: shape mismatch");
    Matrix<i64> c(a.rows(), b.cols(), 0);
    // Row-parallel; each row owns its output slice and the i64
    // accumulation is exact, so the result is independent of the thread
    // count. Small products stay serial via the grain.
    const SimdKernels &simd = simdKernels();
    parallelFor(
        0, u64(a.rows()),
        [&](u64 mi) {
            const int m = int(mi);
            for (int k = 0; k < a.cols(); ++k) {
                const i32 av = a(m, k);
                if (av == 0)
                    continue;
                simd.gemmRowI32(&c(m, 0), &b(k, 0), av, b.cols());
            }
        },
        rowGrain(u64(a.cols()) * u64(b.cols())));
    return c;
}

} // namespace usys

#endif // USYS_COMMON_MATRIX_H
