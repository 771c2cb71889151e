/**
 * @file
 * End-to-end sweep benchmark: the executor acceptance gate.
 *
 * Runs the paper's 8-bit candidate x AlexNet-layer grid (the Figure
 * 10-14 shape) where every job does real work — the roofline math of
 * computeLayerStats plus a packed-engine SystolicGemm on a clamped
 * GEMM slice of the layer — under two threading regimes:
 *
 *   serial    one thread, outer grid loop serial (reference)
 *   executor  outer grid on the persistent work-stealing pool, inner
 *             parallelism folded inline by the nesting rule
 *
 * Per-job checksums (GEMM accumulations + cycle counts) are asserted
 * identical across the regimes, and the stats-registry deltas are
 * flushed exactly once, serially in job order — so `--stats-json`
 * output is byte-identical at any thread count while the wall-clock
 * numbers land only in the separate BENCH_e2e.json artifact (schema:
 * tools/bench_e2e_schema.json).
 *
 * With --min-speedup X the binary exits nonzero if the executor regime
 * is not X times faster than the serial one. The check is skipped, with
 * the measured figure printed, where the host cannot reach X: at one
 * thread, or when plain std::threads running a fixed batch of spin
 * jobs do not finish X times faster than one thread does (a host whose
 * vCPUs share fewer physical cores, or whose CPU time is stolen). That
 * raw-thread scaling is recorded in the artifact either way.
 *
 * With --checkpoint PATH every job completed by the serial reference
 * pass is persisted (atomic rename-on-write); --resume restores those
 * outcomes verbatim (checksums, stats deltas, exact double bit
 * patterns) and runs only the remaining jobs, so the --stats-json dump
 * of a killed-and-resumed sweep is byte-identical to a straight run.
 * --die-after N SIGKILLs the process after N computed jobs (the ctest
 * crash-safety leg).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.h"
#include "common/cli.h"
#include "common/executor.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/prng.h"
#include "common/profiler.h"
#include "common/stats_registry.h"
#include "arch/array.h"
#include "eval/experiments.h"
#include "workloads/alexnet.h"
#include "workloads/systems.h"

namespace usys {
namespace {

/** One grid point: a candidate's edge system on one AlexNet layer. */
struct Job
{
    SystemConfig sys;
    GemmLayer layer;
    Matrix<i32> a, b; // clamped GEMM operands for the bit-level part
};

/** Deterministic per-job results, compared across threading regimes. */
struct JobOutcome
{
    i64 checksum = 0;
    FoldStatsDelta delta;
};

Matrix<i32>
randomCodes(int rows, int cols, Prng &prng)
{
    Matrix<i32> m(rows, cols);
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            m(r, c) = i32(prng.below(255)) - 127;
    return m;
}

std::vector<Job>
buildJobs(int bits)
{
    // The full layer GEMMs would take minutes at bit level, so each job
    // runs a clamped slice — large enough (several folds per job) that
    // per-call thread-spawn overhead and pool hand-off both show up.
    const int gemm_m = 16;
    const int gemm_n = 56; // 4 column tiles on the 12x14 edge array

    std::vector<Job> jobs;
    u32 seed = 1;
    for (const auto &cand : paperCandidates(bits)) {
        for (const auto &layer : alexnetLayers()) {
            Job job;
            job.sys = edgeSystem(cand.kern, cand.with_sram);
            job.layer = layer;
            const int gemm_k = int(std::min<i64>(96, layer.k()));
            Prng prng(seed++);
            job.a = randomCodes(gemm_m, gemm_k, prng);
            job.b = randomCodes(gemm_k, gemm_n, prng);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

void
runJob(const Job &job, JobOutcome &out)
{
    USYS_PROF_SCOPE("e2e.job");
    out.delta = FoldStatsDelta{};
    const LayerStats roofline = computeLayerStats(job.sys, job.layer);
    const SystolicGemm gemm(job.sys.array);
    const auto res = gemm.run(job.a, job.b, &out.delta);
    i64 sum = 0;
    for (i64 v : res.acc.data())
        sum += v;
    // Fold the roofline cycle totals in so both halves of the job are
    // covered by the cross-regime equality assertion.
    out.checksum = sum + i64(res.cycles) * 31 +
                   i64(roofline.compute_cycles) * 7;
}

/**
 * One sweep over the non-restored jobs; outer parallelism is the
 * regime knob. Restored jobs keep their checkpointed outcome.
 */
void
runSweep(const std::vector<Job> &jobs, const std::vector<u64> &pending,
         std::vector<JobOutcome> &outcomes, bool outer_parallel)
{
    if (outer_parallel) {
        parallelFor(0, pending.size(), [&](u64 i) {
            runJob(jobs[pending[i]], outcomes[pending[i]]);
        });
    } else {
        for (const u64 j : pending)
            runJob(jobs[j], outcomes[j]);
    }
}

/**
 * Checkpoint payload of one job outcome: the checksum, the counter
 * fields of the stats delta, and the fold-size histogram runs as
 * (m_rows, count) pairs — everything flush() touches, so a restored job
 * commits byte-identical stats.
 */
std::string
serializeOutcome(const JobOutcome &out)
{
    using CK = ShardCheckpoint;
    const FoldStatsDelta &d = out.delta;
    std::string p = CK::packU64(u64(out.checksum));
    for (const u64 v :
         {d.folds, d.mac_slots, d.fold_cycles, d.bitstream_cycles,
          d.faults_weight_reg, d.faults_activation, d.faults_weight_stream,
          d.faults_accumulator, d.faults_dram, d.sparsity_zero_acts,
          d.sparsity_zero_weights, d.sparsity_skippable_macs,
          u64(d.m_rows_runs.size())}) {
        p += ' ';
        p += CK::packU64(v);
    }
    for (const FoldStatsDelta::RowsRun &run : d.m_rows_runs) {
        p += ' ';
        p += CK::packU64(u64(run.m_rows));
        p += ' ';
        p += CK::packU64(run.count);
    }
    return p;
}

/** Checkpoint key of job j under the current payload layout. */
std::string
jobKey(std::size_t j)
{
    return "job" + std::to_string(j) + ".r";
}

JobOutcome
deserializeOutcome(const std::string &payload)
{
    using CK = ShardCheckpoint;
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos <= payload.size()) {
        const std::size_t sp = payload.find(' ', pos);
        if (sp == std::string::npos) {
            fields.push_back(payload.substr(pos));
            break;
        }
        fields.push_back(payload.substr(pos, sp - pos));
        pos = sp + 1;
    }
    fatalIf(fields.size() < 14,
            "e2e checkpoint payload: too few fields");
    JobOutcome out;
    out.checksum = i64(CK::unpackU64(fields[0]));
    FoldStatsDelta &d = out.delta;
    d.folds = CK::unpackU64(fields[1]);
    d.mac_slots = CK::unpackU64(fields[2]);
    d.fold_cycles = CK::unpackU64(fields[3]);
    d.bitstream_cycles = CK::unpackU64(fields[4]);
    d.faults_weight_reg = CK::unpackU64(fields[5]);
    d.faults_activation = CK::unpackU64(fields[6]);
    d.faults_weight_stream = CK::unpackU64(fields[7]);
    d.faults_accumulator = CK::unpackU64(fields[8]);
    d.faults_dram = CK::unpackU64(fields[9]);
    d.sparsity_zero_acts = CK::unpackU64(fields[10]);
    d.sparsity_zero_weights = CK::unpackU64(fields[11]);
    d.sparsity_skippable_macs = CK::unpackU64(fields[12]);
    const u64 n_runs = CK::unpackU64(fields[13]);
    fatalIf(n_runs > (fields.size() - 14) / 2 ||
                fields.size() != 14 + 2 * n_runs,
            "e2e checkpoint payload: fold-size run count mismatch");
    d.m_rows_runs.resize(std::size_t(n_runs));
    for (std::size_t i = 0; i < d.m_rows_runs.size(); ++i) {
        d.m_rows_runs[i].m_rows = int(CK::unpackU64(fields[14 + 2 * i]));
        d.m_rows_runs[i].count = CK::unpackU64(fields[15 + 2 * i]);
    }
    return out;
}

/** Wall time of one call, in milliseconds. */
template <typename Fn>
double
wallMs(Fn &&fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/**
 * Wall time of `n` plain std::threads sharing a fixed batch of 64
 * independent spin jobs. One thread's time over n threads' time is the
 * ceiling any parallel regime can reach on this host at that moment.
 */
double
spinBatchMs(unsigned n)
{
    constexpr u64 kJobs = 64;
    constexpr u64 kSpins = 1u << 19;
    std::atomic<u64> next{0};
    std::atomic<u64> sink{0};
    auto worker = [&] {
        for (u64 j; (j = next.fetch_add(1)) < kJobs;) {
            u64 x = j + 1;
            for (u64 i = 0; i < kSpins; ++i)
                x = x * 6364136223846793005ull + 1442695040888963407ull;
            sink.fetch_add(x, std::memory_order_relaxed);
        }
    };
    return wallMs([&] {
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < n; ++t)
            pool.emplace_back(worker);
        worker();
        for (std::thread &th : pool)
            th.join();
    });
}

void
checkOutcomes(const std::vector<JobOutcome> &ref,
              const std::vector<JobOutcome> &got,
              const std::vector<u64> &pending, const char *regime)
{
    for (const u64 j : pending) {
        fatalIf(ref[j].checksum != got[j].checksum,
                std::string("e2e_sweep: ") + regime +
                    " regime diverged from serial at job " +
                    std::to_string(j));
    }
}

} // namespace
} // namespace usys

int
main(int argc, char **argv)
{
    using namespace usys;

    BenchOptions opts = parseBenchArgs(&argc, argv, "e2e_sweep");

    int reps = 3;
    double min_speedup = 0.0;
    std::string out_path = "BENCH_e2e.json";
    std::string checkpoint_path;
    bool resume = false;
    i64 die_after = 0;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            fatalIf(i + 1 >= argc,
                    std::string(flag) + " requires a value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--reps") == 0) {
            reps = int(parseIntFlag("--reps", value("--reps"), 1, 1000));
        } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
            min_speedup = parseDoubleFlag(
                "--min-speedup", value("--min-speedup"), 0.0, 1e6);
        } else if (std::strcmp(argv[i], "--out") == 0) {
            out_path = value("--out");
        } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
            checkpoint_path = value("--checkpoint");
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            resume = true;
        } else if (std::strcmp(argv[i], "--die-after") == 0) {
            die_after = parseIntFlag("--die-after", value("--die-after"),
                                     1, 1 << 20);
        } else {
            fatal(std::string("e2e_sweep: unknown argument: ") + argv[i]);
        }
    }
    fatalIf(resume && checkpoint_path.empty(),
            "--resume requires --checkpoint");

    const int bits = 8;
    const auto jobs = buildJobs(bits);
    const unsigned threads = Executor::global().threads();

    std::vector<JobOutcome> serial_out(jobs.size());
    std::vector<JobOutcome> regime_out(jobs.size());

    // Restore checkpointed outcomes; only the rest is (re)computed —
    // in every regime, so timings compare like with like.
    ShardCheckpoint ckpt(checkpoint_path);
    if (resume)
        ckpt.load();
    std::vector<u64> pending;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        // The suffix names the payload layout (".r": sparsity census
        // plus run-length fold sizes): entries of an older layout miss
        // and recompute instead of failing the field-count check.
        const std::string key = jobKey(j);
        if (resume && ckpt.has(key))
            serial_out[j] = deserializeOutcome(ckpt.find(key));
        else
            pending.push_back(u64(j));
    }

    // --- serial reference -------------------------------------------------
    // The warm pass doubles as the checkpoint-recording pass (and hosts
    // the --die-after crash hook); the timed reps below re-run the same
    // pending jobs without touching the checkpoint.
    Executor::global().setThreads(1);
    ProgressMeter progress("e2e serial-ref job", pending.size(),
                           opts.progress);
    i64 computed = 0;
    for (const u64 j : pending) {
        runJob(jobs[j], serial_out[j]);
        ckpt.record(jobKey(j), serializeOutcome(serial_out[j]));
        ++computed;
        progress.update(u64(computed));
        if (die_after > 0 && computed >= die_after) {
            std::fflush(nullptr);
            raise(SIGKILL);
        }
    }

    // --- timed reps: serial, executor and raw threads interleaved --------
    // Each rep times a serial sweep, an executor sweep (outer grid on the
    // pool) and the raw-thread spin batches back to back, so all of them
    // sample the same host state: CPU time stolen for seconds at a time
    // then slows every leg of a rep instead of faking a gap between legs.
    Executor::global().setThreads(threads);
    runSweep(jobs, pending, regime_out, true);
    checkOutcomes(serial_out, regime_out, pending, "executor");
    std::vector<double> serial_samples, executor_samples, raw_samples;
    for (int r = 0; r < reps; ++r) {
        Executor::global().setThreads(1);
        serial_samples.push_back(
            wallMs([&] { runSweep(jobs, pending, serial_out, false); }));
        Executor::global().setThreads(threads);
        parallelFor(0, threads, [](u64) {}); // restart the pool untimed
        executor_samples.push_back(
            wallMs([&] { runSweep(jobs, pending, regime_out, true); }));
        raw_samples.push_back(threads > 1
                                  ? spinBatchMs(1) / spinBatchMs(threads)
                                  : 1.0);
    }
    const double serial_ms = median(serial_samples);
    const double executor_ms = median(executor_samples);
    const double raw_scaling = median(raw_samples);

    // Registry deltas from the (many) timed sweeps are intentionally
    // discarded; commit exactly one sweep's worth, serially in job
    // order, so the stats artifact is byte-identical at any thread
    // count (and independent of reps).
    for (std::size_t j = 0; j < jobs.size(); ++j)
        serial_out[j].delta.flush(jobs[j].sys.array.kernel);

    const double vs_serial = serial_ms / executor_ms;
    i64 checksum = 0;
    for (const auto &out : serial_out)
        checksum += out.checksum;

    std::printf("e2e sweep: %zu jobs (%d-bit candidates x AlexNet), "
                "%u threads, %d reps\n",
                jobs.size(), bits, threads, reps);
    std::printf("%-10s %10s\n", "regime", "ms/sweep");
    std::printf("%-10s %10.2f\n", "serial", serial_ms);
    std::printf("%-10s %10.2f\n", "executor", executor_ms);
    std::printf("speedup: %.2fx vs serial (raw-thread scaling %.2fx)\n",
                vs_serial, raw_scaling);

    // Wall-clock numbers go only into their own artifact, never into
    // the stats registry (whose dump must stay run-to-run identical).
    JsonWriter w;
    w.beginObject()
        .field("bench", "e2e_sweep")
        .field("schema_version", 1)
        .beginObject("stats")
        .beginObject("e2e")
        .field("jobs", u64(jobs.size()))
        .field("reps", reps)
        .field("threads", u64(threads))
        .field("serial_ms", serial_ms)
        .field("executor_ms", executor_ms)
        .field("speedup_vs_serial_x", vs_serial)
        .field("raw_thread_scaling_x", raw_scaling)
        .field("checksum", checksum)
        .field("steals", Executor::global().stealCount())
        .endObject()
        .endObject()
        .endObject();
    fatalIf(!writeTextFile(out_path, w.str()),
            "cannot write bench artifact: " + out_path);
    inform("wrote bench artifact: " + out_path);

    finalizeBench(opts);

    // The floor is only meaningful where the host can deliver it: skip
    // where plain threads themselves do not scale that far.
    if (min_speedup > 0.0 && raw_scaling < min_speedup) {
        std::printf("e2e_sweep: --min-speedup %.2fx skipped: %u threads "
                    "scale only %.2fx on this host\n",
                    min_speedup, threads, raw_scaling);
        return 0;
    }
    if (min_speedup > 0.0 && vs_serial < min_speedup) {
        std::fprintf(stderr,
                     "e2e_sweep: executor speedup %.2fx vs serial "
                     "below required %.2fx\n",
                     vs_serial, min_speedup);
        return 1;
    }
    return 0;
}
