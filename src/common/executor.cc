#include "common/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/profiler.h"
#include "common/stats_registry.h"

namespace usys {

namespace {

using SteadyClock = std::chrono::steady_clock;

u64
elapsedNs(SteadyClock::time_point from, SteadyClock::time_point to)
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   to - from)
                   .count());
}

/** Set while a thread executes chunks of a parallel region; the signal
 *  that makes nested parallelFor calls run inline. */
thread_local bool tl_in_region = false;

unsigned
resolveAutoThreads()
{
    if (const char *env = std::getenv("USYS_THREADS")) {
        char *tail = nullptr;
        const long v = std::strtol(env, &tail, 10);
        if (tail != env && *tail == '\0' && v >= 1 && v <= 4096)
            return unsigned(v);
        warn(std::string("ignoring invalid USYS_THREADS='") + env + "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace

/**
 * The worker pool plus the (single) active region's shared state.
 * Top-level regions are serialized by region_mu_: parallelFor blocks
 * until its region completes, inner regions run inline, so at most one
 * region is ever active per process and the per-slot deques can be
 * reused without versioning.
 */
struct Executor::Pool
{
    struct Deque
    {
        std::mutex mu;
        std::vector<std::pair<u64, u64>> chunks; // [lo, hi) runs
        std::size_t head = 0;                    // owner pops here
    };

    /** Per-slot telemetry; counters are written only by the owning
     *  thread (relaxed), the latency histogram is merged quiescently.
     *  Padded so adjacent slots do not share a cache line. */
    struct alignas(64) SlotStats
    {
        std::atomic<u64> tasks{0};
        std::atomic<u64> steals{0};
        std::atomic<u64> steal_fails{0};
        std::atomic<u64> busy_ns{0};
        std::atomic<u64> idle_ns{0};
        Histogram latency{"", "chunk latency (us)",
                          Executor::kTaskLatencyLoUs,
                          Executor::kTaskLatencyHiUs,
                          Executor::kTaskLatencyBuckets};
    };

    explicit Pool(unsigned threads)
        : nthreads(threads), deques(threads), slot_stats(threads)
    {
        workers.reserve(threads - 1);
        for (unsigned t = 1; t < threads; ++t)
            workers.emplace_back([this, t] { workerLoop(t); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(gen_mu);
            stop = true;
        }
        gen_cv.notify_all();
        for (auto &w : workers)
            w.join();
    }

    /** Owner end: next undealt chunk of this slot's deque. */
    bool
    popOwn(unsigned slot, std::pair<u64, u64> &out)
    {
        Deque &dq = deques[slot];
        std::lock_guard<std::mutex> lock(dq.mu);
        if (dq.head >= dq.chunks.size())
            return false;
        out = dq.chunks[dq.head++];
        return true;
    }

    /** Thief end: take the last chunk of some other slot's deque. */
    bool
    steal(unsigned self, std::pair<u64, u64> &out)
    {
        for (unsigned off = 1; off < nthreads; ++off) {
            Deque &dq = deques[(self + off) % nthreads];
            std::lock_guard<std::mutex> lock(dq.mu);
            if (dq.head < dq.chunks.size()) {
                out = dq.chunks.back();
                dq.chunks.pop_back();
                steals.fetch_add(1, std::memory_order_relaxed);
                slot_stats[self].steals.fetch_add(
                    1, std::memory_order_relaxed);
                return true;
            }
        }
        slot_stats[self].steal_fails.fetch_add(1,
                                               std::memory_order_relaxed);
        return false;
    }

    /** Drain the region from slot `self`: own deque first, then steal. */
    void
    participate(unsigned self)
    {
        tl_in_region = true;
        SlotStats &st = slot_stats[self];
        std::pair<u64, u64> chunk;
        while (popOwn(self, chunk) || steal(self, chunk)) {
            // Re-anchor per chunk, not per participate() call: a
            // straggler draining the previous region can pop chunks of
            // the next one, whose anchor path differs. The deque mutex
            // gave us the happens-before edge to run()'s prof_* writes,
            // and applyWorkerAnchor is idempotent per region id. The
            // caller (slot 0) already sits at the anchor path.
            if (self != 0 && prof_active)
                Profiler::global().applyWorkerAnchor(prof_path,
                                                     prof_region_id);
            if (!failed.load(std::memory_order_acquire)) {
                const auto t0 = SteadyClock::now();
                try {
                    (*body)(chunk.first, chunk.second);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(error_mu);
                    if (!failed.exchange(true, std::memory_order_acq_rel))
                        error = std::current_exception();
                }
                const u64 ns = elapsedNs(t0, SteadyClock::now());
                st.tasks.fetch_add(1, std::memory_order_relaxed);
                st.busy_ns.fetch_add(ns, std::memory_order_relaxed);
                st.latency.add(double(ns) * 1e-3);
            }
            if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(done_mu);
                done_cv.notify_all();
            }
        }
        tl_in_region = false;
    }

    void
    workerLoop(unsigned slot)
    {
        setLogThreadTag("w" + std::to_string(slot));
        u64 seen = 0;
        std::unique_lock<std::mutex> lock(gen_mu);
        for (;;) {
            const auto w0 = SteadyClock::now();
            gen_cv.wait(lock, [&] { return stop || generation != seen; });
            slot_stats[slot].idle_ns.fetch_add(
                elapsedNs(w0, SteadyClock::now()),
                std::memory_order_relaxed);
            if (stop)
                return;
            seen = generation;
            lock.unlock();
            participate(slot);
            lock.lock();
        }
    }

    const unsigned nthreads;
    std::vector<Deque> deques;
    std::vector<SlotStats> slot_stats;
    std::atomic<u64> steals{0};

    // Active-region state; written by the caller before the generation
    // bump publishes it, cleared only by the next region.
    const std::function<void(u64, u64)> *body = nullptr;
    // Profiler anchor for this region: the caller's scope path at region
    // entry, plus a monotonically increasing id that makes per-chunk
    // anchor application idempotent. Plain fields — published to the
    // workers through the same deque mutexes as `body`.
    std::vector<const char *> prof_path;
    u64 prof_region_id = 0;
    bool prof_active = false;
    std::atomic<u64> remaining{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;

    std::mutex region_mu; // one top-level region at a time

    std::mutex gen_mu;
    std::condition_variable gen_cv;
    u64 generation = 0;
    bool stop = false;

    std::mutex done_mu;
    std::condition_variable done_cv;

    std::vector<std::thread> workers;
};

Executor &
Executor::global()
{
    // Intentionally leaked: a static destructor would join the worker
    // threads at exit, which is unsafe in processes that fork (a gtest
    // death-test child inherits the pool pointer but none of the worker
    // threads — joining them segfaults). Workers blocked on gen_cv are
    // simply reaped by process exit.
    static Executor *ex = new Executor;
    return *ex;
}

Executor::~Executor()
{
    delete pool_;
}

Executor::Pool *
Executor::pool()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!pool_) {
        const unsigned n =
            explicit_threads_ ? explicit_threads_ : resolveAutoThreads();
        pool_ = new Pool(std::max(1u, n));
    }
    return pool_;
}

unsigned
Executor::threads()
{
    return pool()->nthreads;
}

void
Executor::setThreads(unsigned n)
{
    std::lock_guard<std::mutex> lock(mu_);
    explicit_threads_ = n;
    if (pool_ && pool_->nthreads !=
                     (n ? n : resolveAutoThreads())) {
        delete pool_; // joins the workers
        pool_ = nullptr;
    }
}

bool
Executor::inParallelRegion()
{
    return tl_in_region;
}

u64
Executor::stealCount() const
{
    // Read-only peek; a pool restart resets the count. The lock only
    // fences against setThreads() deleting the pool mid-read — the
    // counter loads themselves stay relaxed.
    std::lock_guard<std::mutex> lock(mu_);
    return pool_ ? pool_->steals.load(std::memory_order_relaxed) : 0;
}

std::vector<Executor::WorkerCounters>
Executor::workerCounters() const
{
    // Same read-only peek contract as stealCount(): relaxed loads of
    // owner-written counters, tolerating concurrent updates.
    std::vector<WorkerCounters> out;
    std::lock_guard<std::mutex> lock(mu_);
    if (!pool_)
        return out;
    out.reserve(pool_->nthreads);
    for (const auto &st : pool_->slot_stats) {
        WorkerCounters c;
        c.tasks = st.tasks.load(std::memory_order_relaxed);
        c.steals = st.steals.load(std::memory_order_relaxed);
        c.steal_fails = st.steal_fails.load(std::memory_order_relaxed);
        c.busy_ns = st.busy_ns.load(std::memory_order_relaxed);
        c.idle_ns = st.idle_ns.load(std::memory_order_relaxed);
        out.push_back(c);
    }
    return out;
}

void
Executor::mergeTaskLatency(Histogram &dst) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!pool_)
        return;
    for (const auto &st : pool_->slot_stats)
        dst.merge(st.latency);
}

void
Executor::run(u64 begin, u64 end, u64 grain,
              const std::function<void(u64, u64)> &body)
{
    Pool &p = *pool();
    const u64 n = end - begin;
    const u64 chunks = (n + grain - 1) / grain;

    std::lock_guard<std::mutex> region(p.region_mu);

    // Publish the region state BEFORE any chunk becomes visible: a
    // straggler worker still draining the previous region may pop a new
    // chunk the moment it lands in a deque (the deque mutexes provide
    // the happens-before edge to these writes).
    p.body = &body;
    p.failed.store(false, std::memory_order_relaxed);
    p.error = nullptr;
    Profiler &prof = Profiler::global();
    p.prof_active = prof.enabled();
    if (p.prof_active) {
        p.prof_path = prof.currentPath();
        ++p.prof_region_id;
    }
    p.remaining.store(chunks, std::memory_order_release);

    // Deal contiguous runs of chunks to the slots (slot 0 = caller):
    // contiguous initial ownership keeps per-thread index locality, and
    // stealing from the back hands a thief the run farthest from the
    // owner's cursor.
    const u64 per = (chunks + p.nthreads - 1) / p.nthreads;
    for (unsigned s = 0; s < p.nthreads; ++s) {
        Pool::Deque &dq = p.deques[s];
        std::lock_guard<std::mutex> lock(dq.mu);
        dq.chunks.clear();
        dq.head = 0;
        const u64 first = u64(s) * per;
        const u64 last = std::min(chunks, first + per);
        for (u64 c = first; c < last; ++c) {
            const u64 lo = begin + c * grain;
            dq.chunks.emplace_back(lo, std::min(end, lo + grain));
        }
    }

    {
        std::lock_guard<std::mutex> lock(p.gen_mu);
        ++p.generation;
    }
    p.gen_cv.notify_all();

    p.participate(0);

    if (p.remaining.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> lock(p.done_mu);
        p.done_cv.wait(lock, [&] {
            return p.remaining.load(std::memory_order_acquire) == 0;
        });
    }

    if (p.failed.load(std::memory_order_acquire)) {
        std::exception_ptr e;
        {
            std::lock_guard<std::mutex> lock(p.error_mu);
            e = p.error;
            p.error = nullptr;
        }
        std::rethrow_exception(e);
    }
}

} // namespace usys
