/**
 * @file
 * serve_mixed: an in-process usysd Daemon under open-loop load.
 *
 * Requests arrive as a seeded Poisson process at each of the fixed
 * rates in kServeRates and are sent over at most nproc (<= 4) real TCP
 * connections; a request waits in the generator while every
 * connection is busy, and its latency is timed from its due time.
 * Half the requests repeat AlexNet sweeps from a small pool of system
 * specs (cache hits and coalescing); the other half are unique `gemm`
 * jobs (cache misses that reach simulateLayerBatch).
 *
 * Every response must be byte-equal to one rendered in-process from
 * decodeRequest + computeLayerStats + renderResults; an error frame, a
 * transport error or a timeout counts as a failure.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <set>
#include <thread>

#include "common.h"
#include "common/json.h"
#include "common/prng.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/request.h"

namespace perfbench {

using namespace usys;

namespace {

constexpr double kLimitP99Ms = 10.0; // latency limit on p99
constexpr int kPoolSpecs = 4;        // distinct sweep system specs
constexpr u64 kClientTimeoutMs = 10000;
constexpr int kWarmRequests = 100;        // per connection, at least
constexpr double kWarmS = 0.25;           // warm-up burst length
// Result-cache budget. Every run's misses fill it within about a
// second, so the cached bytes, and with them the peak RSS, do not grow
// with the number of misses the daemon drains.
constexpr u64 kCacheMb = 1;
constexpr std::size_t kRateChunk = 500; // completions per rate sample
constexpr std::size_t kLatSlice = 1000; // requests per latency sample

std::string
sweepFrame(u64 id, int bits)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("op", "sweep");
    w.field("id", id);
    w.field("layers", "alexnet");
    w.beginArray("schemes");
    for (const char *tag : {"BP", "UR", "UG", "TUB"})
        w.value(std::string(tag));
    w.endArray();
    w.beginObject("system");
    w.field("bits", i64(bits));
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
gemmFrame(u64 id, int m, int k, int n)
{
    JsonWriter w(0);
    w.beginObject();
    w.field("op", "gemm");
    w.field("id", id);
    w.field("m", i64(m));
    w.field("k", i64(k));
    w.field("n", i64(n));
    w.endObject();
    return w.str();
}

/** Fragments of a compute request, rendered in-process. */
std::vector<std::string>
renderFragments(const std::string &frame)
{
    ServeRequest req;
    std::string error;
    if (!decodeRequest(frame, req, error))
        return {};
    std::vector<std::string> fragments;
    for (const ServeJob &job : req.jobs)
        fragments.push_back(renderJobResult(
            job, computeLayerStats(buildSystem(job.spec), job.layer)));
    return fragments;
}

struct Request
{
    double due = 0.0; // seconds after step start
    bool hit = false;
    int pool = -1;    // sweep pool entry of a hit
    u64 id = 0;
    std::string frame;
    std::string expected; // misses only; hits render from the pool
};

struct StepResult
{
    std::vector<double> lat_ms, hit_ms, miss_ms, lag_ms;
    u64 unsent = 0;
    std::vector<double> done_rps; // completed requests/s, per chunk
    bool backlog = false;
    std::vector<std::string> miss_frames; // for the breakdown replay

    /** Fold another step at the same rate into this one. */
    void
    merge(const StepResult &o)
    {
        auto cat = [](auto &a, const auto &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(lat_ms, o.lat_ms), cat(hit_ms, o.hit_ms), cat(miss_ms, o.miss_ms);
        cat(lag_ms, o.lag_ms);
        cat(miss_frames, o.miss_frames);
        unsent += o.unsent;
        cat(done_rps, o.done_rps);
        backlog = backlog || o.backlog;
    }

    double p99() const { return percentile(lat_ms, 99); }

    // Host noise only ever slows the run, and on a shared host it
    // comes and goes over seconds: the end-to-end figures take the
    // best decile of many short samples.

    /** Drain rate: 90th percentile of the per-chunk rates. */
    double doneRps() const { return quantile(done_rps, 0.9); }

    /** 10th percentile of the p50s of kLatSlice-request slices. */
    double
    typicalMs() const
    {
        std::vector<double> p50s;
        for (std::size_t i = 0; i < lat_ms.size(); i += kLatSlice) {
            const auto end = std::min(lat_ms.size(), i + kLatSlice);
            p50s.push_back(percentile(
                std::vector<double>(lat_ms.begin() + std::ptrdiff_t(i),
                                    lat_ms.begin() + std::ptrdiff_t(end)),
                50));
        }
        return quantile(p50s, 0.1);
    }
    bool pass() const { return !backlog && p99() <= kLimitP99Ms; }
};

class Load
{
  public:
    Load(Run &run, u64 seed)
        : run_(run), prng_(seed * 0xbf58476d1ce4e5b9ull + 3)
    {
        for (int p = 0; p < kPoolSpecs; ++p)
            pool_fragments_.push_back(
                renderFragments(sweepFrame(0, 6 + 2 * p)));
    }

    /** Seeded Poisson schedule for one step (expected bytes included). */
    std::vector<Request>
    plan(double rate, double seconds)
    {
        std::vector<Request> out;
        double t = 0.0;
        for (;;) {
            t += -std::log(1.0 - prng_.uniform()) / rate;
            if (t >= seconds)
                break;
            Request r;
            r.due = t;
            r.id = ++next_id_;
            r.hit = prng_.below(2) == 0;
            if (r.hit) {
                const int p = int(prng_.below(kPoolSpecs));
                r.pool = p;
                r.frame = sweepFrame(r.id, 6 + 2 * p);
            } else {
                int m, k, n;
                do {
                    m = 1 + int(prng_.below(256));
                    k = 16 + int(prng_.below(2048));
                    n = 8 + int(prng_.below(1024));
                } while (!used_.insert({m, k, n}).second);
                r.frame = gemmFrame(r.id, m, k, n);
                r.expected =
                    renderResults(r.id, renderFragments(r.frame));
            }
            out.push_back(std::move(r));
        }
        return out;
    }

    /** Drive one step over `clients`; returns latencies and verdicts. */
    StepResult
    step(std::vector<ServeClient> &clients, std::vector<Request> &reqs,
         double seconds, u32 phase_span)
    {
        const std::size_t n = reqs.size();
        std::vector<double> lat(n, -1.0), lag(n, 0.0), done_at(n, 0.0);
        std::vector<char> ok(n, 0), sent(n, 0);
        std::atomic<std::size_t> next{0};
        // Past this point no new request is sent: the step has fallen
        // behind by more than the latency limit allows to recover.
        const double start = nowS() + 0.005;
        const double cutoff = start + seconds + 0.25;
        bool corrupt_response = run_.corruptNow("response");
        if (run_.corruptNow("error") && !reqs.empty())
            reqs[0].frame = "{\"op\":\"no-such-op\",\"id\":1}";

        // Latency runs from the due time when the request had to wait
        // for a busy connection (the system was behind). When its
        // connection was idle at the due time, it runs from the send:
        // the generator thread's own oversleep is not the server's.
        auto worker = [&](std::size_t c) {
            std::string response;
            double free_at = start;
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                const double due = start + reqs[i].due;
                const bool queued = free_at > due;
                double now = nowS();
                if (now < due) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(due - now));
                    now = nowS();
                }
                if (now > cutoff)
                    continue; // counted as unsent backlog
                sent[i] = 1;
                lag[i] = (now - due) * 1e3;
                const bool io = clients[c].call(reqs[i].frame, &response);
                const double done = nowS();
                done_at[i] = done;
                free_at = done;
                const double from = queued ? due : now;
                run_.tracer.add("request", phase_span, from, done,
                                reqs[i].id);
                lat[i] = (done - from) * 1e3;
                if (corrupt_response && i == 0 && !response.empty())
                    response[response.size() / 2] ^= 0x01;
                const std::string &expected =
                    reqs[i].hit ? renderResults(reqs[i].id,
                                                pool_fragments_[reqs[i].pool])
                                : reqs[i].expected;
                // 1 = match, 2 = error frame / transport, 0 = mismatch.
                ok[i] = !io || response.find("\"ok\":false") !=
                                   std::string::npos
                            ? 2
                            : response == expected;
            }
        };
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients.size(); ++c)
            threads.emplace_back(worker, c);
        for (auto &t : threads)
            t.join();
        const double finished = nowS();

        StepResult res;
        std::vector<double> done_times;
        for (std::size_t i = 0; i < n; ++i) {
            if (!sent[i]) {
                ++res.unsent;
                continue;
            }
            done_times.push_back(done_at[i]);
            run_.check(ok[i] == 1,
                       "request " + std::to_string(reqs[i].id) +
                           (reqs[i].hit ? " (sweep)" : " (gemm)") +
                           (ok[i] == 2 ? ": error frame or transport error"
                                       : ": response differs from the "
                                         "in-process render"));
            res.lat_ms.push_back(lat[i]);
            res.lag_ms.push_back(lag[i]);
            (reqs[i].hit ? res.hit_ms : res.miss_ms).push_back(lat[i]);
            if (!reqs[i].hit)
                res.miss_frames.push_back(reqs[i].frame);
        }
        // Drain rate: one sample per kRateChunk consecutive completions
        // (a short step yields one sample over the whole step).
        std::sort(done_times.begin(), done_times.end());
        for (std::size_t j = kRateChunk; j < done_times.size();
             j += kRateChunk)
            res.done_rps.push_back(
                double(kRateChunk) /
                (done_times[j] - done_times[j - kRateChunk]));
        if (res.done_rps.empty())
            res.done_rps.push_back(double(done_times.size()) /
                                   (finished - start));
        // Backlog: requests never sent, or the last tenth of the step
        // started later than the latency limit.
        std::vector<double> tail_lag(
            res.lag_ms.begin() + std::ptrdiff_t(res.lag_ms.size() * 9 / 10),
            res.lag_ms.end());
        res.backlog = res.unsent > 0 || median(tail_lag) > kLimitP99Ms;
        return res;
    }

  private:
    Run &run_;
    Prng prng_;
    u64 next_id_ = 0;
    std::set<std::tuple<int, int, int>> used_;
    std::vector<std::vector<std::string>> pool_fragments_;
};

/**
 * Highest rate meeting the p99 limit without a growing backlog: the
 * last passing rate, moved towards the first failing one by where the
 * limit falls between their p99s (log-log interpolation).
 */
double
maxRpsP99(const std::vector<StepResult> &steps)
{
    std::size_t f = 0;
    while (f < steps.size() && steps[f].pass())
        ++f;
    if (f == steps.size())
        return kServeRates.back();
    if (f == 0) {
        const double p99 = std::max(steps[0].p99(), kLimitP99Ms);
        return kServeRates[0] * kLimitP99Ms / p99;
    }
    const double lo = std::log(std::max(steps[f - 1].p99(), 1e-6));
    const double hi = std::log(std::max(steps[f].p99(), 1e-6));
    double x = hi > lo ? (std::log(kLimitP99Ms) - lo) / (hi - lo) : 0.0;
    x = std::clamp(x, 0.0, 1.0);
    return std::exp(std::log(kServeRates[f - 1]) +
                    x * (std::log(kServeRates[f]) -
                         std::log(kServeRates[f - 1])));
}

struct Window
{
    std::vector<StepResult> steps;
    BatcherStats b0, b1;
    ResultCacheStats c0, c1;
    DaemonStats d0, d1;
    ExecSnapshot e0, e1;
};

/**
 * One measured window. The nominal rate runs in blocks between all
 * the others (half the window), so its latencies sample the whole
 * window; the top (saturating) rate runs three times (30%), the
 * remaining rates once each (20% together).
 */
Window
measure(Run &run, Daemon &daemon, Load &load,
        std::vector<ServeClient> &clients, double seconds, bool traced)
{
    const std::size_t top = kServeRates.size() - 1;
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < top; ++k) {
        if (k == kNominalRate)
            continue;
        order.push_back(k);
        order.push_back(top);
    }
    std::vector<std::pair<std::size_t, double>> blocks; // rate, seconds
    const double others = double(top - 1);
    const double nominal = seconds * 0.5 / double(order.size() + 1);
    for (std::size_t k : order) {
        blocks.push_back({kNominalRate, nominal});
        blocks.push_back({k, k == top ? seconds * 0.3 / others
                                      : seconds * 0.2 / others});
    }
    blocks.push_back({kNominalRate, nominal});

    Window w;
    w.steps.resize(kServeRates.size());
    run.tracer.enable(traced);
    w.b0 = daemon.batcherStats();
    w.c0 = daemon.cacheStats();
    w.d0 = daemon.daemonStats();
    w.e0 = execSnapshot();
    ScopedSpan root(run.tracer, run.opts.workload, 0);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto [k, secs] = blocks[b];
        // Each block's plan (and its expected bytes) is built before
        // the block's clock starts; the daemon is idle meanwhile.
        std::vector<Request> plan = load.plan(kServeRates[k], secs);
        ScopedSpan phase(run.tracer, "rate " + std::to_string(k), root.id());
        const StepResult st = load.step(clients, plan, secs, phase.id());
        w.steps[k].merge(st);
        std::fprintf(stderr,
                     "perfbench: serve %.0f/s for %.2f s: %zu sent, %llu "
                     "unsent, %.0f done/s, p50 %.3f ms, p99 %.3f ms, "
                     "lag p99 %.3f ms\n",
                     kServeRates[k], secs, st.lat_ms.size(),
                     (unsigned long long)st.unsent, st.doneRps(),
                     percentile(st.lat_ms, 50),
                     st.p99(), percentile(st.lag_ms, 99));
    }
    w.e1 = execSnapshot();
    w.b1 = daemon.batcherStats();
    w.c1 = daemon.cacheStats();
    w.d1 = daemon.daemonStats();
    run.tracer.enable(false);
    return w;
}

/** Median microseconds per call of `fn` over `reps` calls. */
template <typename Fn>
double
medianUs(std::size_t reps, Fn &&fn)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < reps; ++i) {
        const double t0 = nowS();
        fn(i);
        v.push_back((nowS() - t0) * 1e6);
    }
    return median(v);
}

} // namespace

void
runServeMixed(Run &run)
{
    const u32 nclients =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    // --- Set-up: daemon, connections, cache warm-up -----------------
    const double setup0 = nowS();
    DaemonOptions opts;
    opts.port = 0;
    opts.quiet = true;
    opts.cache_mb = kCacheMb;
    Daemon daemon(opts);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "perfbench: daemon start failed: %s\n",
                     error.c_str());
        std::exit(1);
    }
    std::thread server([&daemon] { daemon.run(); });
    std::vector<ServeClient> clients(nclients);
    for (auto &c : clients) {
        if (!c.connect(daemon.port(), &error)) {
            std::fprintf(stderr, "perfbench: connect failed: %s\n",
                         error.c_str());
            std::exit(1);
        }
        c.setIoTimeoutMs(kClientTimeoutMs);
        c.ping();
    }
    {
        // Fill the result cache with the sweep pool, so the timed hits
        // are hits. Then a closed-loop burst on every connection warms
        // both paths. It lasts kWarmS (and at least kWarmRequests per
        // connection): a fixed count of round trips would make setup_s
        // follow the host's wake-up latency. Its misses use M > 256,
        // which no timed request uses, so they never turn a timed miss
        // into a hit.
        std::string response;
        for (int p = 0; p < kPoolSpecs; ++p)
            clients[0].call(sweepFrame(0, 6 + 2 * p), &response);
        std::atomic<bool> warm_ok{true};
        std::vector<std::thread> warm;
        const double warm0 = nowS();
        for (u32 c = 0; c < nclients; ++c)
            warm.emplace_back([&, c] {
                std::string r;
                for (int j = 0; warm_ok && (j < kWarmRequests ||
                                            nowS() - warm0 < kWarmS);
                     ++j) {
                    const int u = j / 2;
                    const std::string frame =
                        j % 2 ? gemmFrame(0, 257 + int(c), 16 + u % 2048,
                                          8 + u / 2048)
                              : sweepFrame(0, 6 + 2 * (u % kPoolSpecs));
                    if (!clients[c].call(frame, &r) ||
                        r.find("\"ok\":true") == std::string::npos)
                        warm_ok = false;
                }
            });
        for (auto &t : warm)
            t.join();
        const ResultCacheStats cs = daemon.cacheStats();
        std::fprintf(stderr,
                     "perfbench: after warm-up the result cache holds %llu "
                     "entries, %llu bytes, %llu evicted\n",
                     (unsigned long long)cs.entries,
                     (unsigned long long)cs.bytes,
                     (unsigned long long)cs.evictions);
        if (!warm_ok) {
            std::fprintf(stderr, "perfbench: daemon warm-up failed\n");
            std::exit(1);
        }
    }
    run.setup_s = nowS() - setup0;

    auto shutdown = [&] {
        for (auto &c : clients)
            c.close();
        daemon.requestStop();
        server.join();
    };
    if (run.opts.setup_only) {
        shutdown();
        return;
    }

    Load load(run, run.opts.seed);
    if (!run.opts.trace) {
        const Window w =
            measure(run, daemon, load, clients, run.opts.seconds, false);
        const StepResult &nom = w.steps[kNominalRate];
        endToEnd(run, w.steps.back().doneRps(), nom.typicalMs());
        shutdown();
        return;
    }

    const Window plain =
        measure(run, daemon, load, clients, run.opts.seconds / 2, false);
    const Window w =
        measure(run, daemon, load, clients, run.opts.seconds / 2, true);
    run.metric("trace.overhead_frac",
               plain.steps.back().doneRps() / w.steps.back().doneRps() - 1.0,
               "frac");
    run.execMetrics(w.e0, w.e1);
    run.metric("serve.max_rps_p99", maxRpsP99(w.steps), "1/s");

    for (std::size_t k = 0; k < w.steps.size(); ++k) {
        const std::string p = "serve.r" + std::to_string(k);
        run.metric(p + ".p50_ms", percentile(w.steps[k].lat_ms, 50), "ms");
        run.metric(p + ".p99_ms", percentile(w.steps[k].lat_ms, 99), "ms");
    }
    const StepResult &nom = w.steps[kNominalRate];
    run.metric("serve.hit.p50_ms", percentile(nom.hit_ms, 50), "ms");
    run.metric("serve.hit.p99_ms", percentile(nom.hit_ms, 99), "ms");
    run.metric("serve.miss.p50_ms", percentile(nom.miss_ms, 50), "ms");
    run.metric("serve.miss.p99_ms", percentile(nom.miss_ms, 99), "ms");
    run.metric("serve.gen_lag_p99_ms", percentile(nom.lag_ms, 99), "ms");

    const u64 hits = w.c1.hits - w.c0.hits;
    const u64 misses = w.c1.misses - w.c0.misses;
    const u64 batches = w.b1.batches - w.b0.batches;
    const u64 jobs = w.b1.jobs - w.b0.jobs;
    run.metric("serve.cache_hit_rate",
               hits + misses ? double(hits) / double(hits + misses) : 0.0,
               "frac");
    run.metric("serve.occupancy", batches ? double(jobs) / double(batches)
                                          : 0.0,
               "jobs");
    run.metric("serve.coalesced_frac",
               jobs ? double(w.b1.coalesced - w.b0.coalesced) / double(jobs)
                    : 0.0,
               "frac");
    run.metric("serve.shed", double(w.b1.shed - w.b0.shed), "count");
    run.metric("serve.deadline_misses",
               double(w.b1.deadline_misses - w.b0.deadline_misses), "count");
    run.metric("serve.errors", double(w.d1.errors - w.d0.errors), "count");

    // Miss-path breakdown, replayed in-process on the same frames/jobs.
    const auto &frames = nom.miss_frames;
    if (!frames.empty()) {
        const double ping_us = medianUs(500, [&](std::size_t) {
            clients[0].ping();
        });
        std::vector<ServeRequest> reqs(frames.size());
        const double decode_us = medianUs(frames.size(), [&](std::size_t i) {
            std::string err;
            decodeRequest(frames[i], reqs[i], err);
        });
        std::vector<LayerStats> stats(frames.size());
        const double job_us = medianUs(frames.size(), [&](std::size_t i) {
            stats[i] = computeLayerStats(buildSystem(reqs[i].jobs[0].spec),
                                         reqs[i].jobs[0].layer);
        });
        const double render_us = medianUs(frames.size(), [&](std::size_t i) {
            renderResults(reqs[i].id,
                          {renderJobResult(reqs[i].jobs[0], stats[i])});
        });
        run.metric("serve.ping_us", ping_us, "us");
        run.metric("serve.decode_us", decode_us, "us");
        run.metric("sched.job_us", job_us, "us");
        run.metric("serve.render_us", render_us, "us");
        run.metric("serve.unexplained_ms",
                   percentile(nom.miss_ms, 50) -
                       (ping_us + decode_us + job_us + render_us) * 1e-3,
                   "ms");
    }
    shutdown();
}

} // namespace perfbench
