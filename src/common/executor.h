/**
 * @file
 * Process-wide persistent work-stealing executor.
 *
 * One lazily-started pool of worker threads serves every parallelFor in
 * the process, so no call spawns or joins threads, and it alone decides
 * how a region is parallelized. Each parallel region splits its index
 * range into grain-sized chunks, deals contiguous runs of chunks to
 * per-thread deques, and lets idle threads steal from the back of a
 * victim's deque (owners pop from the front), so skewed per-chunk costs
 * rebalance without a central cursor fight.
 *
 * Guarantees, relied on throughout the simulator:
 *
 *  - No oversubscription, ever. A parallelFor issued from inside a
 *    parallel region runs inline on the calling worker — nested
 *    tile-/layer-/mode-level parallelism composes without spawning
 *    hardware_concurrency()^2 threads.
 *  - Exceptions propagate. The first exception thrown by any worker is
 *    captured and rethrown at the join point on the calling thread
 *    (remaining chunks are skipped).
 *  - Thread count is controllable: `USYS_THREADS` in the environment,
 *    `--threads N` on every bench binary and tools/usim, or
 *    Executor::setThreads(). A count of 1 is a true serial fallback —
 *    no pool threads are ever started and fn runs on the caller.
 *  - Worker threads are persistent, so thread_local scratch (the
 *    packed-array fold arena, the product-model memos) survives across
 *    parallel regions instead of being rebuilt per call.
 *
 * Determinism is the same contract as before: indices are visited
 * exactly once with nondeterministic assignment to threads, so parallel
 * bodies only touch per-index state and aggregates merge serially in
 * index order afterwards (see DESIGN.md §9).
 */

#ifndef USYS_COMMON_EXECUTOR_H
#define USYS_COMMON_EXECUTOR_H

#include <algorithm>
#include <functional>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace usys {

class Histogram;

class Executor
{
  public:
    /** The process-wide pool used by parallelFor. */
    static Executor &global();

    /**
     * Threads participating in a parallel region (pool workers plus the
     * calling thread). Resolved lazily: an explicit setThreads() value,
     * else USYS_THREADS, else hardware_concurrency().
     */
    unsigned threads();

    /**
     * Override the thread count; 0 re-resolves from the environment.
     * Joins and restarts an already-running pool, so it must not be
     * called concurrently with parallelFor (bench/test setup only).
     */
    void setThreads(unsigned n);

    /** True while the current thread executes inside a parallel region
     *  (the nesting signal that makes inner regions run inline). */
    static bool inParallelRegion();

    /** Chunks executed by a thread other than their initial owner
     *  (monotonic; for tests and diagnostics). */
    u64 stealCount() const;

    /**
     * Per-slot telemetry (slot 0 = the region caller, 1..n-1 = pool
     * workers). Counters are relaxed atomics written only by the owning
     * thread; tasks counts chunks executed, busy_ns the wall time spent
     * inside chunk bodies, idle_ns a worker's time blocked waiting for a
     * region (always 0 for slot 0), steal_fails full sweeps of the other
     * deques that found nothing. Like stealCount(), a setThreads() pool
     * restart resets everything.
     */
    struct WorkerCounters
    {
        u64 tasks = 0;
        u64 steals = 0;
        u64 steal_fails = 0;
        u64 busy_ns = 0;
        u64 idle_ns = 0;
    };
    /** Snapshot of every slot's counters; empty before the first region.
     *  Safe to call concurrently with a running region (relaxed reads). */
    std::vector<WorkerCounters> workerCounters() const;

    /** Shape of the per-slot task-latency histograms (microseconds);
     *  pass the same bounds when registering the merge target. */
    static constexpr double kTaskLatencyLoUs = 0.0;
    static constexpr double kTaskLatencyHiUs = 10000.0;
    static constexpr int kTaskLatencyBuckets = 50;
    /** Merge every slot's chunk-latency histogram into `dst` (which must
     *  have the kTaskLatency* shape). Quiescent-only: call after regions
     *  have joined, not concurrently with parallelFor. */
    void mergeTaskLatency(Histogram &dst) const;

    /**
     * Run body(lo, hi) over [begin, end) split into grain-sized chunks
     * on the pool. Blocks until every chunk ran (or was skipped after an
     * exception); rethrows the first exception. Callers normally use
     * parallelFor below, which adds the serial/nested fast paths.
     */
    void run(u64 begin, u64 end, u64 grain,
             const std::function<void(u64, u64)> &body);

    ~Executor();

  private:
    Executor() = default;
    struct Pool;
    Pool *pool(); // started lazily under mu_

    // mutable: the const telemetry peeks (stealCount, workerCounters,
    // mergeTaskLatency) must hold it too, or a concurrent setThreads()
    // pool teardown turns their reads into use-after-free.
    mutable std::mutex mu_;
    Pool *pool_ = nullptr;
    unsigned explicit_threads_ = 0;
};

/**
 * Apply fn(i) for all i in [begin, end) across the executor's threads.
 *
 * Indices are handed out in chunks of `grain` consecutive indices; each
 * index is visited exactly once (unless an exception aborts the region)
 * with nondeterministic index-to-thread assignment, so fn must only
 * touch per-index state and aggregates must be reduced serially in
 * index order afterwards. Runs serially inline when the range fits one
 * chunk, when the executor resolves to one thread, or when called from
 * inside another parallel region (the no-oversubscription rule).
 *
 * @param begin first index
 * @param end one past the last index
 * @param fn callable taking a single index
 * @param grain indices handed to a thread per chunk (0 is coerced to 1)
 */
template <typename Fn>
void
parallelFor(u64 begin, u64 end, Fn &&fn, u64 grain = 1)
{
    const u64 n = end > begin ? end - begin : 0;
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;

    Executor &ex = Executor::global();
    const u64 chunks = (n + grain - 1) / grain;
    if (chunks == 1 || Executor::inParallelRegion() || ex.threads() == 1) {
        for (u64 i = begin; i < end; ++i)
            fn(i);
        return;
    }

    ex.run(begin, end, grain, [&fn](u64 lo, u64 hi) {
        for (u64 i = lo; i < hi; ++i)
            fn(i);
    });
}

/**
 * Grain for a row-parallel loop whose rows each cost `work_per_row`
 * units (MACs, or elements for the copy/convert passes): about 4k units
 * per chunk, so small problems stay serial and large ones amortize the
 * hand-off.
 */
inline u64
rowGrain(u64 work_per_row)
{
    return std::max<u64>(1, 4096 / std::max<u64>(1, work_per_row));
}

} // namespace usys

#endif // USYS_COMMON_EXECUTOR_H
