/**
 * @file
 * Executor contract tests: nesting-inline rule, work stealing under
 * skewed grain cost, exception propagation out of workers, the
 * USYS_THREADS / setThreads overrides, and determinism of serially
 * merged aggregates across thread counts.
 *
 * The CI container may expose a single hardware thread, so every test
 * pins the count it needs via setThreads() instead of relying on
 * auto-resolution.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/executor.h"

namespace usys {
namespace {

/** Restore the pre-test thread configuration on scope exit. */
struct ThreadGuard
{
    explicit ThreadGuard(unsigned n) { Executor::global().setThreads(n); }
    ~ThreadGuard() { Executor::global().setThreads(0); }
};

TEST(Executor, SerialFallbackRunsOnCaller)
{
    ThreadGuard guard(1);
    EXPECT_EQ(Executor::global().threads(), 1u);

    const std::thread::id self = std::this_thread::get_id();
    std::vector<int> visits(64, 0);
    bool off_thread = false;
    parallelFor(0, 64, [&](u64 i) {
        visits[i] += 1;
        if (std::this_thread::get_id() != self)
            off_thread = true;
    });
    EXPECT_FALSE(off_thread);
    for (int v : visits)
        EXPECT_EQ(v, 1);
}

TEST(Executor, VisitsEveryIndexOnceInParallel)
{
    ThreadGuard guard(4);
    EXPECT_EQ(Executor::global().threads(), 4u);

    std::vector<std::atomic<int>> visits(1000);
    parallelFor(0, visits.size(),
                [&](u64 i) { visits[i].fetch_add(1); }, 7);
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(Executor, NestedParallelForRunsInline)
{
    ThreadGuard guard(4);

    std::mutex mu;
    std::vector<std::pair<std::thread::id, std::thread::id>> pairs;
    std::atomic<int> inner_visits{0};
    std::atomic<bool> nested_flag_wrong{false};

    ASSERT_FALSE(Executor::inParallelRegion());
    parallelFor(0, 4, [&](u64) {
        const std::thread::id outer = std::this_thread::get_id();
        if (!Executor::inParallelRegion())
            nested_flag_wrong = true;
        // Grain 1 over 8 indices means this inner region has plenty of
        // chunks — it runs inline purely because of the nesting rule.
        parallelFor(0, 8, [&](u64) {
            inner_visits.fetch_add(1);
            std::lock_guard<std::mutex> lock(mu);
            pairs.emplace_back(outer, std::this_thread::get_id());
        });
    });
    ASSERT_FALSE(Executor::inParallelRegion());

    EXPECT_FALSE(nested_flag_wrong);
    EXPECT_EQ(inner_visits.load(), 32);
    for (const auto &p : pairs)
        EXPECT_EQ(p.first, p.second)
            << "nested parallelFor escaped its calling worker";
}

TEST(Executor, StealsWorkUnderSkewedGrains)
{
    ThreadGuard guard(3);
    ASSERT_EQ(Executor::global().threads(), 3u);

    const u64 before = Executor::global().stealCount();
    std::vector<std::atomic<int>> visits(12);
    // The caller owns the first contiguous chunk run and stalls on its
    // very first index, so its remaining chunks can only complete by
    // being stolen by the two pool workers.
    parallelFor(0, visits.size(), [&](u64 i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        visits[i].fetch_add(1);
    });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
    EXPECT_GT(Executor::global().stealCount(), before);
}

TEST(Executor, WorkerExceptionRethrownAtJoin)
{
    ThreadGuard guard(4);

    EXPECT_THROW(parallelFor(0, 1000,
                             [&](u64 i) {
                                 if (i == 577)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);

    // The pool must survive a failed region intact.
    std::atomic<int> visits{0};
    parallelFor(0, 100, [&](u64) { visits.fetch_add(1); });
    EXPECT_EQ(visits.load(), 100);
}

TEST(Executor, SerialExceptionRethrown)
{
    ThreadGuard guard(1);
    EXPECT_THROW(parallelFor(0, 10,
                             [](u64 i) {
                                 if (i == 3)
                                     throw std::invalid_argument("bad");
                             }),
                 std::invalid_argument);
}

TEST(Executor, NestedExceptionPropagatesThroughBothJoins)
{
    ThreadGuard guard(4);
    EXPECT_THROW(parallelFor(0, 4,
                             [](u64) {
                                 parallelFor(0, 8, [](u64 i) {
                                     if (i == 5)
                                         throw std::runtime_error("inner");
                                 });
                             }),
                 std::runtime_error);
}

TEST(Executor, UsysThreadsEnvRespected)
{
    ASSERT_EQ(setenv("USYS_THREADS", "3", 1), 0);
    Executor::global().setThreads(0); // re-resolve from the environment
    EXPECT_EQ(Executor::global().threads(), 3u);

    ASSERT_EQ(unsetenv("USYS_THREADS"), 0);
    Executor::global().setThreads(0);
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(Executor::global().threads(), hw ? hw : 1u);
}

/**
 * The determinism contract from DESIGN.md §9: parallel bodies write only
 * per-index state; aggregates are folded serially in index order. The
 * (order-sensitive) float fold below must then be bitwise identical at
 * every thread count.
 */
TEST(Executor, MergedAggregatesIdenticalAcrossThreadCounts)
{
    const u64 n = 4096;
    auto fold = [&](unsigned threads) {
        Executor::global().setThreads(threads);
        std::vector<double> per_index(n);
        parallelFor(0, n,
                    [&](u64 i) {
                        double v = 1.0;
                        for (int r = 0; r < 50; ++r)
                            v = v * 1.0000001 + double(i) * 1e-7;
                        per_index[i] = v;
                    },
                    5);
        double acc = 0.0;
        for (u64 i = 0; i < n; ++i)
            acc = acc * 0.999999 + per_index[i];
        return acc;
    };

    const double one = fold(1);
    const double two = fold(2);
    const double four = fold(4);
    Executor::global().setThreads(0);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, four);
}

} // namespace
} // namespace usys
