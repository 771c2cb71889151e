#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10 [--workloads dnn_infer,serve_mixed]
                                [--seconds S] [--seed-base 100] [--traced 1]

For every end-to-end metric of every workload it prints the median, the
quartiles (statistics.quantiles(values, n=4)), the quartile spread
(q3 - q1) / median, the full range (max - min) / median, and the bound
from BENCHMARK.json; a spread at or above a third of the bound is
flagged. With --traced K it also makes K traced runs per workload and
prints the tracing overhead (traced work-per-second gap) they report.
Each run uses its own seed. A JSON summary goes to .bench_out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    rel = (lambda x: x / med if med else float("inf"))
    return med, q1, q3, rel(q3 - q1), rel(max(values) - min(values))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--traced", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for wl in args.workloads.split(","):
        rows, walls, bad = {}, [], 0
        for i in range(args.runs):
            result, wall = run_once(wl, args.seed_base + i, args.seconds, 0)
            walls.append(wall)
            bad += result["failed"] > 0 or not result["correct"]
            for name, m in result["metrics"].items():
                rows.setdefault(name, []).append(m["value"])
        print(f"\n== {wl}: {args.runs} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s, runs with failures: {bad}")
        print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'rng/med':>9}{'bound':>7}")
        out = {}
        for name, values in rows.items():
            med, q1, q3, iqr, rng = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and iqr >= bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"{name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{iqr:>9.3f}{rng:>9.3f}{bound if bound else '':>7}{flag}")
            out[name] = {"values": values, "median": med, "q1": q1,
                         "q3": q3, "iqr_rel": iqr, "range_rel": rng}
        overheads = []
        for i in range(args.traced):
            result, _ = run_once(wl, args.seed_base + i, args.seconds, 1)
            overheads.append(
                result["metrics"]["trace.overhead_frac"]["value"])
        if overheads:
            print(f"tracing overhead (traced vs untraced work/s): "
                  f"{', '.join(f'{100 * o:+.1f}%' for o in overheads)}")
        summary[wl] = {"metrics": out, "trace_overhead": overheads}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady_{int(time.time())}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
