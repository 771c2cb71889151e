/**
 * @file
 * Shared plumbing of the repository benchmark: options, the per-run
 * result (metrics + correctness counters), timing and statistics
 * helpers, host context, and executor telemetry deltas.
 */

#ifndef USYS_PERFBENCH_COMMON_H
#define USYS_PERFBENCH_COMMON_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace.h"

namespace perfbench {

using usys::i32;
using usys::i64;
using usys::u32;
using usys::u64;

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;      // emit per-layer metrics (traced run)
    bool setup_only = false; // time set-up, print it, exit
    std::string corrupt;     // self-test: corrupt one checked result
};

/** Monotonic seconds. */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/**
 * Quantile q in [0, 1] with linear interpolation between order
 * statistics (0 for an empty sample).
 */
double quantile(std::vector<double> v, double q);

/**
 * The time of a repeated call: the fastest of its repetitions. Host
 * noise only ever adds time; on a shared host the cores this process
 * gets come and go over seconds to minutes, so the fastest repetition
 * tracks the program's own cost.
 */
inline double
callTime(const std::vector<double> &samples)
{
    return quantile(samples, 0.0);
}

/**
 * Percentile by nearest rank on a sorted copy (p in [0, 100]). Used for
 * latency tails, where the sample is large.
 */
double percentile(std::vector<double> v, double p);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** User + system CPU seconds consumed by this process so far. */
double cpuSeconds();

/** Sum of the executor's per-worker counters at one instant. */
struct ExecSnapshot
{
    u64 tasks = 0;
    u64 steal_fails = 0;
    u64 busy_ns = 0;
    u64 idle_ns = 0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
};

ExecSnapshot execSnapshot();

/**
 * One benchmark process's result: correctness counters plus named
 * metrics. Workloads record every metric they know; main() prints the
 * end-to-end or the per-layer set.
 */
class Run
{
  public:
    explicit Run(const Options &opts) : opts(opts) {}

    const Options opts;
    Tracer tracer;

    /** Count one checked operation; logs the first few failures. */
    void check(bool ok, const std::string &what);

    /** True once (per kind) when the self-test asks to corrupt `kind`. */
    bool corruptNow(const std::string &kind);

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Executor-layer metrics over [begin, end]. */
    void execMetrics(const ExecSnapshot &begin, const ExecSnapshot &end);

    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    const std::map<std::string, Metric> &metrics() const { return metrics_; }

    /** Seconds of set-up (lazy first-call costs included). */
    double setup_s = 0.0;

  private:
    u64 attempted_ = 0;
    u64 failed_ = 0;
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> corrupted_;
};

// Metric-name vocabulary shared by the workloads and the catalogue.
extern const std::vector<std::string> kDnnModels;   // alexlite, reslite
extern const std::vector<std::string> kDnnModes;    // fp32 .. tub8
extern const std::vector<std::string> kLiteGemms;   // conv1 .. fc8
extern const std::vector<std::string> kArrayLayers; // conv1 .. fc8
extern const std::vector<std::string> kSchemes;     // bp ur6 ur8 ug tub
extern const std::vector<std::string> kTableNames;  // 6 8 bip8

/**
 * The fixed open-loop request rates of serve_mixed (requests/s),
 * ascending, frozen from a calibration run on a 4-core host: the top
 * rate is about twice what the daemon drains, so its step measures the
 * saturation throughput. Index kNominalRate is the nominal rate whose
 * latencies are the end-to-end p50/p99.
 */
extern const std::vector<double> kServeRates;
constexpr std::size_t kNominalRate = 1;

/**
 * First (building) calls of the product tables the workloads use,
 * timed into unary.table_ms.<6|8|bip8>. Part of set-up.
 */
void buildProductTables(Run &run);

/** Workload entry points (each runs set-up, then measures). */
void runDnnInfer(Run &run);
void runAlexnet(Run &run, bool fc);
void runServeMixed(Run &run);

/**
 * The end-to-end figures every workload reports under the same keys:
 * work per second and the typical latency of its unit operation
 * (serve: request p50 at the nominal rate; batch workloads: mean call
 * time over one pass, each call at callTime()).
 */
void endToEnd(Run &run, double work_per_s, double latency_ms);

/** Per-layer metric catalogue: name -> unit, in print order. */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();

/** The end-to-end metric names. */
const std::vector<std::pair<std::string, std::string>> &endToEndCatalog();

} // namespace perfbench

#endif // USYS_PERFBENCH_COMMON_H
