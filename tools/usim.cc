/**
 * @file
 * usim — command-line front end to the uSystolic simulator (the
 * uSystolic-Sim utility a downstream user drives directly).
 *
 * Usage:
 *   usim [--scheme bp|bs|ur|ut|ug] [--bits N] [--ebt n]
 *        [--rows R] [--cols C] [--edge|--cloud] [--sram|--no-sram]
 *        [--trace] --layers SPEC
 *
 * SPEC: ';'-separated conv:IH,IW,IC,WH,WW,S,OC / matmul:M,K,N /
 * alexnet / mlperf.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/table.h"
#include "eval/experiments.h"
#include "eval/network.h"
#include "hw/energy.h"
#include "sched/trace.h"
#include "workloads/layer_parse.h"
#include "workloads/systems.h"

using namespace usys;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: usim [options] --layers SPEC\n"
        "  --scheme bp|bs|ur|ut|ug|tubgemm|tugemm\n"
        "                            computing scheme (default ur)\n"
        "  --bits N                  data bitwidth (default 8)\n"
        "  --ebt n                   early-termination EBT (ur only)\n"
        "  --rows R --cols C         array shape (overrides preset)\n"
        "  --edge | --cloud          system preset (default edge)\n"
        "  --sram | --no-sram        force SRAM presence\n"
        "  --trace                   use the trace-driven memory model\n"
        "  --no-packed               force the scalar simulation engine\n"
        "  --sparsity F|measured     activation sparsity: F in [0,1] for\n"
        "                            every layer, or 'measured' to use the\n"
        "                            AlexLite-measured per-layer fractions\n"
        "                            (alexnet spec only)\n"
        "  --threads N               executor thread count (0 = auto:\n"
        "                            USYS_THREADS, else all cores)\n"
        "  --simd auto|avx512|avx2|generic\n"
        "                            SIMD kernel tier (overrides "
        "USYS_SIMD)\n"
        "  --csv                     machine-readable output\n"
        "  --network                 chained inference (inter-layer "
        "traffic accounted)\n"
        "  --layers SPEC             e.g. 'alexnet' or "
        "'conv:31,31,96,5,5,1,256;matmul:1,9216,4096'\n");
    std::exit(1);
}

Scheme
parseScheme(const std::string &tag)
{
    if (tag == "bp")
        return Scheme::BinaryParallel;
    if (tag == "bs")
        return Scheme::BinarySerial;
    if (tag == "ur")
        return Scheme::USystolicRate;
    if (tag == "ut")
        return Scheme::USystolicTemporal;
    if (tag == "ug")
        return Scheme::UgemmHybrid;
    if (tag == "tub" || tag == "tubgemm")
        return Scheme::TubGemm;
    if (tag == "tu" || tag == "tugemm")
        return Scheme::TuGemm;
    fatal("unknown scheme: " + tag);
}

} // namespace

int
main(int argc, char **argv)
{
    Scheme scheme = Scheme::USystolicRate;
    int bits = 8, ebt = 0, rows = 0, cols = 0;
    bool edge = true, trace = false, csv = false, network = false;
    int sram_override = -1; // -1 auto, 0 off, 1 on
    double sparsity = -1.0; // -1 = dense (leave act_sparsity alone)
    bool measured_sparsity = false;
    std::string layer_spec;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--scheme")
            scheme = parseScheme(next());
        else if (arg == "--bits")
            bits = int(parseIntFlag("--bits", next().c_str(), 2, 16));
        else if (arg == "--ebt")
            ebt = int(parseIntFlag("--ebt", next().c_str(), 0, 16));
        else if (arg == "--rows")
            rows = int(parseIntFlag("--rows", next().c_str(), 1, 4096));
        else if (arg == "--cols")
            cols = int(parseIntFlag("--cols", next().c_str(), 1, 4096));
        else if (arg == "--edge")
            edge = true;
        else if (arg == "--cloud")
            edge = false;
        else if (arg == "--sram")
            sram_override = 1;
        else if (arg == "--no-sram")
            sram_override = 0;
        else if (arg == "--trace")
            trace = true;
        else if (arg == "--no-packed")
            setPackedEngineEnabled(false);
        else if (arg == "--sparsity") {
            const std::string v = next();
            if (v == "measured") {
                measured_sparsity = true;
            } else {
                try {
                    sparsity = std::stod(v);
                } catch (...) {
                    fatal("--sparsity expects a fraction or 'measured'");
                }
                fatalIf(sparsity < 0.0 || sparsity > 1.0,
                        "--sparsity outside [0, 1]");
            }
        }
        else if (arg == "--threads") {
            const i64 n =
                parseIntFlag("--threads", next().c_str(), 0, 4096);
            Executor::global().setThreads(unsigned(n));
        }
        else if (arg == "--simd")
            setSimdMode(next());
        else if (arg == "--csv")
            csv = true;
        else if (arg == "--network")
            network = true;
        else if (arg == "--layers")
            layer_spec = next();
        else
            usage();
    }
    if (layer_spec.empty())
        usage();

    std::vector<GemmLayer> layers;
    if (measured_sparsity) {
        fatalIf(layer_spec != "alexnet",
                "--sparsity measured requires --layers alexnet");
        layers = alexnetLayersMeasuredSparsity();
    } else {
        layers = parseLayerList(layer_spec);
        if (sparsity >= 0.0)
            for (auto &layer : layers)
                layer.act_sparsity = sparsity;
    }

    KernelConfig kern{scheme, bits, ebt};
    kern.check();
    const bool with_sram =
        sram_override >= 0 ? sram_override == 1 : !isUnary(scheme);
    SystemConfig sys =
        edge ? edgeSystem(kern, with_sram) : cloudSystem(kern, with_sram);
    if (rows > 0)
        sys.array.rows = rows;
    if (cols > 0)
        sys.array.cols = cols;

    if (network) {
        const auto net = simulateNetwork(sys, layers);
        std::printf("network: %zu layers, runtime %.2f ms, on-chip %.1f "
                    "uJ, DRAM %.1f uJ, total %.1f uJ, %.2f MB of "
                    "inter-layer activations kept on-chip\n",
                    net.layers.size(), net.runtime_s * 1e3,
                    net.onchip_uj, net.dram_uj, net.total_uj(),
                    double(net.interlayer_saved_bytes) / 1e6);
        return 0;
    }

    if (csv) {
        std::printf("layer,m,k,n,utilization,runtime_s,overhead_pct,"
                    "dram_gbps,onchip_uj,total_uj\n");
    } else {
        std::printf("usim: %s, %dx%d array, %s, SRAM %s, %s model\n",
                    kern.name().c_str(), sys.array.rows, sys.array.cols,
                    edge ? "edge" : "cloud", with_sram ? "on" : "off",
                    trace ? "trace" : "roofline");
    }

    TablePrinter table({"layer", "M", "K", "N", "util %", "runtime ms",
                        "overhead %", "DRAM GB/s", "on-chip uJ",
                        "total uJ"});
    double total_runtime = 0.0, total_onchip = 0.0, total_uj = 0.0;
    for (const auto &layer : layers) {
        const auto stats = simulateLayer(sys, layer);
        const auto energy = layerEnergy(sys, stats);
        double runtime = stats.runtime_s, ovh = stats.overhead_pct,
               bw = stats.dram_bw_gbps;
        if (trace) {
            const auto tr = traceLayer(sys, layer);
            runtime = tr.runtime_s;
            ovh = tr.overhead_pct;
            bw = tr.dram_bw_gbps;
        }
        total_runtime += runtime;
        total_onchip += energy.onchip_uj();
        total_uj += energy.total_uj();
        if (csv) {
            std::printf("%s,%lld,%lld,%lld,%.4f,%.6e,%.2f,%.4f,%.3f,"
                        "%.3f\n",
                        layer.name.c_str(), (long long)layer.m(),
                        (long long)layer.k(), (long long)layer.n(),
                        stats.tiling.utilization, runtime, ovh, bw,
                        energy.onchip_uj(), energy.total_uj());
            continue;
        }
        table.addRow({layer.name, std::to_string(layer.m()),
                      std::to_string(layer.k()),
                      std::to_string(layer.n()),
                      TablePrinter::num(100 * stats.tiling.utilization, 1),
                      TablePrinter::num(runtime * 1e3, 3),
                      TablePrinter::num(ovh, 1),
                      TablePrinter::num(bw, 3),
                      TablePrinter::num(energy.onchip_uj(), 1),
                      TablePrinter::num(energy.total_uj(), 1)});
    }
    if (csv)
        return 0;
    table.print();
    std::printf("totals: runtime %.2f ms, on-chip %.1f uJ, total %.1f uJ,"
                " on-chip area %.3f mm2\n",
                total_runtime * 1e3, total_onchip, total_uj,
                onchipAreaMm2(sys));
    return 0;
}
