#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "arch/functional.h"
#include "common/executor.h"

namespace perfbench {

const std::vector<std::string> kDnnModels = {"alexlite", "reslite"};
const std::vector<std::string> kDnnModes = {"fp32", "fxp8", "ur6", "ur8",
                                            "ut8",  "ug8",  "tub8"};
const std::vector<std::string> kLiteGemms = {"conv1", "conv2", "conv3",
                                             "conv4", "conv5", "fc6",
                                             "fc7",   "fc8"};
const std::vector<std::string> kArrayLayers = kLiteGemms;
const std::vector<std::string> kSchemes = {"bp", "ur6", "ur8", "ug", "tub"};
const std::vector<std::string> kTableNames = {"6", "8", "bip8"};
const std::vector<double> kServeRates = {1000.0, 2000.0, 4000.0, 8000.0,
                                         24000.0};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * double(v.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

ExecSnapshot
execSnapshot()
{
    ExecSnapshot s;
    for (const auto &w : usys::Executor::global().workerCounters()) {
        s.tasks += w.tasks;
        s.steal_fails += w.steal_fails;
        s.busy_ns += w.busy_ns;
        s.idle_ns += w.idle_ns;
    }
    s.cpu_s = cpuSeconds();
    s.wall_s = nowS();
    return s;
}

void
Run::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    if (++failed_ <= 5)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

bool
Run::corruptNow(const std::string &kind)
{
    if (opts.corrupt != kind)
        return false;
    if (std::find(corrupted_.begin(), corrupted_.end(), kind) !=
        corrupted_.end())
        return false;
    corrupted_.push_back(kind);
    return true;
}

void
Run::metric(const std::string &name, double value, const std::string &unit)
{
    metrics_[name] = {value, unit};
}

void
Run::execMetrics(const ExecSnapshot &b, const ExecSnapshot &e)
{
    const double wall = std::max(1e-9, e.wall_s - b.wall_s);
    const u64 tasks = e.tasks - b.tasks;
    const u64 busy = e.busy_ns - b.busy_ns;
    const u64 idle = e.idle_ns - b.idle_ns;
    metric("exec.cpu_per_wall", (e.cpu_s - b.cpu_s) / wall, "cores");
    metric("exec.busy_frac",
           busy + idle ? double(busy) / double(busy + idle) : 0.0, "frac");
    metric("exec.us_per_task", tasks ? double(busy) * 1e-3 / double(tasks)
                                     : 0.0,
           "us");
    metric("exec.steal_fails", double(e.steal_fails - b.steal_fails),
           "count");
}

void
buildProductTables(Run &run)
{
    double t = nowS();
    usys::unaryModelFor(6);
    run.metric("unary.table_ms.6", (nowS() - t) * 1e3, "ms");
    t = nowS();
    usys::unaryModelFor(8);
    run.metric("unary.table_ms.8", (nowS() - t) * 1e3, "ms");
    t = nowS();
    usys::bipolarModelFor(8);
    run.metric("unary.table_ms.bip8", (nowS() - t) * 1e3, "ms");
}

void
endToEnd(Run &run, double work_per_s, double latency_ms)
{
    run.metric("work_per_s", work_per_s, "1/s");
    run.metric("latency_ms", latency_ms, "ms");
}

const std::vector<std::pair<std::string, std::string>> &
endToEndCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> cat = {
        {"setup_s", "s"},      {"peak_rss_mb", "MB"}, {"ok_frac", "frac"},
        {"work_per_s", "1/s"}, {"latency_ms", "ms"},
    };
    return cat;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> cat = [] {
        std::vector<std::pair<std::string, std::string>> c;
        auto add = [&](const std::string &n, const std::string &u) {
            c.push_back({n, u});
        };
        add("exec.cpu_per_wall", "cores");
        add("exec.busy_frac", "frac");
        add("exec.us_per_task", "us");
        add("exec.steal_fails", "count");
        add("trace.overhead_frac", "frac");
        add("dnn.train_s", "s");
        for (const auto &t : kTableNames)
            add("unary.table_ms." + t, "ms");
        for (const auto &m : kDnnModels)
            for (const auto &mode : kDnnModes)
                add("dnn." + m + "." + mode + ".batch_ms", "ms");
        for (const auto &l : kLiteGemms) {
            add("dnn.alexlite." + l + ".ur8_ms", "ms");
            add("dnn.alexlite." + l + ".fp32_ms", "ms");
            add("dnn.alexlite." + l + ".zero_in_frac", "frac");
        }
        add("dnn.alexlite.other.ur8_ms", "ms");
        for (const auto &l : kArrayLayers) {
            add("arch." + l + ".gemm_ms", "ms");
            add("arch." + l + ".us_per_fold", "us");
            add("arch." + l + ".folds", "count");
            add("arch." + l + ".skip_frac", "frac");
        }
        for (const auto &s : kSchemes) {
            add("arch." + s + ".gemm_ms", "ms");
            add("arch." + s + ".sim_cycles", "cycles");
        }
        for (std::size_t k = 0; k < kServeRates.size(); ++k) {
            add("serve.r" + std::to_string(k) + ".p50_ms", "ms");
            add("serve.r" + std::to_string(k) + ".p99_ms", "ms");
        }
        for (const char *cls : {"hit", "miss"}) {
            add(std::string("serve.") + cls + ".p50_ms", "ms");
            add(std::string("serve.") + cls + ".p99_ms", "ms");
        }
        add("serve.cache_hit_rate", "frac");
        add("serve.occupancy", "jobs");
        add("serve.coalesced_frac", "frac");
        add("serve.shed", "count");
        add("serve.deadline_misses", "count");
        add("serve.errors", "count");
        add("serve.ping_us", "us");
        add("serve.decode_us", "us");
        add("sched.job_us", "us");
        add("serve.render_us", "us");
        add("serve.unexplained_ms", "ms");
        add("serve.gen_lag_p99_ms", "ms");
        add("serve.max_rps_p99", "1/s");
        return c;
    }();
    return cat;
}

} // namespace perfbench
