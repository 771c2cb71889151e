/**
 * @file
 * usys_perfbench — one process of the repository benchmark.
 *
 *   usys_perfbench --workload dnn_infer|alexnet_conv|alexnet_fc|serve_mixed
 *                  --seed N --seconds S --trace 0|1
 *                  [--setup-only] [--corrupt KIND]
 *
 * Prints a host-context line, then (last) one JSON object with
 * `correct`, `attempted`, `failed` and `metrics`: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. With
 * --setup-only it prints only {"setup_s": ...}. A traced run writes its
 * spans to .bench_out/ under the working directory. run.py wraps this
 * binary (build, repeated set-up timing); see README.md.
 */

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "common/executor.h"
#include "common/simd.h"

#ifndef USYS_PERFBENCH_BUILD_TYPE
#define USYS_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "usys_perfbench: %s\n", msg);
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0 ||
            line.rfind("Model", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                auto v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printMetrics(const std::vector<std::pair<std::string, std::string>> &cat,
             const Run &run, std::string &out)
{
    out += "{";
    bool first = true;
    for (const auto &[name, unit] : cat) {
        const auto it = run.metrics().find(name);
        // A layer this workload never reaches did no work: 0.
        const double v = it == run.metrics().end() ? 0.0 : it->second.value;
        out += (first ? "" : ", ") + jsonString(name) +
               ": {\"value\": " + jsonNumber(v) +
               ", \"unit\": " + jsonString(unit) + "}";
        first = false;
    }
    out += "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            opts.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            opts.seconds = std::atof(value().c_str());
        } else if (a == "--trace") {
            opts.trace = value() == "1";
        } else if (a == "--setup-only") {
            opts.setup_only = true;
        } else if (a == "--corrupt") {
            opts.corrupt = value();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0) || opts.seconds > 600.0)
        usage("--seconds must be in (0, 600]");

    Run run(opts);
    if (opts.workload == "dnn_infer")
        runDnnInfer(run);
    else if (opts.workload == "alexnet_conv")
        runAlexnet(run, false);
    else if (opts.workload == "alexnet_fc")
        runAlexnet(run, true);
    else if (opts.workload == "serve_mixed")
        runServeMixed(run);
    else
        usage(("unknown workload " + opts.workload).c_str());

    if (opts.setup_only) {
        std::printf("{\"setup_s\": %s}\n", jsonNumber(run.setup_s).c_str());
        return 0;
    }

    run.metric("setup_s", run.setup_s, "s");
    run.metric("peak_rss_mb", peakRssMb(), "MB");
    run.metric("ok_frac",
               run.attempted() ? 1.0 - double(run.failed()) /
                                           double(run.attempted())
                               : 0.0,
               "frac");

    if (opts.trace) {
        mkdir(".bench_out", 0755);
        const std::string path = ".bench_out/trace_" + opts.workload +
                                 "_" + std::to_string(opts.seed) + ".json";
        if (!run.tracer.write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }

    std::printf("{\"host\": {\"cpu\": %s, \"nproc\": %u, \"simd\": %s, "
                "\"executor_threads\": %u, \"build_type\": %s, "
                "\"seed\": %llu}}\n",
                jsonString(cpuModel()).c_str(),
                std::thread::hardware_concurrency(),
                jsonString(usys::simdLevelName(usys::simdLevel())).c_str(),
                usys::Executor::global().threads(),
                jsonString(USYS_PERFBENCH_BUILD_TYPE).c_str(),
                (unsigned long long)opts.seed);

    std::string out = "{\"correct\": ";
    out += run.failed() == 0 && run.attempted() > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(run.attempted());
    out += ", \"failed\": " + std::to_string(run.failed());
    out += ", \"metrics\": ";
    printMetrics(opts.trace ? perLayerCatalog() : endToEndCatalog(), run,
                 out);
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return 0;
}
