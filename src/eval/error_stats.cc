#include "eval/error_stats.h"

#include <cmath>
#include <vector>

#include "common/executor.h"
#include "common/prng.h"
#include "common/stats.h"
#include "dnn/backend.h"

namespace usys {

std::vector<GemmErrorStats>
gemmErrorStats(int ebt, int k_dim, u64 seed)
{
    Prng prng(seed);
    const int m_rows = 12, n_cols = 12;
    MatF a(m_rows, k_dim), b(k_dim, n_cols);
    for (auto &v : a.data())
        v = float(prng.gaussian());
    for (auto &v : b.data())
        v = float(prng.gaussian());
    const MatF ref = gemmFp32(a, b);

    const struct
    {
        const char *name;
        NumericMode mode;
    } modes[] = {
        {"FXP-o-res", NumericMode::FxpOres},
        {"uSystolic-rate", NumericMode::UnaryRate},
        {"uSystolic-temporal", NumericMode::UnaryTemporal},
        {"uGEMM-H", NumericMode::UgemmH},
        {"FXP-i-res", NumericMode::FxpIres},
    };
    constexpr std::size_t n_modes = sizeof(modes) / sizeof(modes[0]);

    // The five mode GEMMs are independent (the shared product-table
    // caches are mutex-guarded), so they fan out; statistics shard by
    // output row and merge in fixed row order, keeping results
    // identical regardless of worker count.
    std::vector<MatF> results(n_modes);
    parallelFor(0, n_modes, [&](u64 i) {
        results[i] = gemmWithMode(a, b, {modes[i].mode, ebt});
    });

    std::vector<GemmErrorStats> out;
    for (std::size_t i = 0; i < n_modes; ++i) {
        const MatF &got = results[i];
        std::vector<OnlineStats> err_rows(m_rows), abs_rows(m_rows);
        std::vector<RmseTracker> rmse_rows(m_rows);
        for (int r = 0; r < m_rows; ++r) {
            for (int c = 0; c < n_cols; ++c) {
                const double e = double(got(r, c)) - ref(r, c);
                err_rows[r].add(e);
                abs_rows[r].add(std::abs(e));
                rmse_rows[r].add(ref(r, c), got(r, c));
            }
        }
        OnlineStats err, abs_err;
        RmseTracker rmse;
        for (int r = 0; r < m_rows; ++r) {
            err.merge(err_rows[r]);
            abs_err.merge(abs_rows[r]);
            rmse.merge(rmse_rows[r]);
        }
        out.push_back({modes[i].name, abs_err.mean(), err.stddev(),
                       rmse.normalizedRmse()});
    }
    return out;
}

} // namespace usys
