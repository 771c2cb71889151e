#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one workload.

    python3 perfbench/run.py --workload dnn_infer --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds
`usys_perfbench` (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, default `.bench_build`; later calls only re-check the
build. With --trace 0 the set-up is timed in SETUP_REPEATS fresh
processes (the measuring one included) and `setup_s` is their median.

Stdout ends with a host-context line and then one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Exit status is 0 when a
result was produced and non-zero otherwise (build failure, crash,
timeout, metric set that does not match BENCHMARK.json).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dnn_infer", "alexnet_conv", "alexnet_fc", "serve_mixed")
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(bdir), "--target", "usys_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "usys_perfbench"


def source_digest():
    """sha256 over the simulator and benchmark sources (no git needed)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_binary(binary, args, timeout):
    """Run the binary; return its stdout lines (stderr passes through)."""
    try:
        proc = subprocess.run([str(binary), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(args)}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"no output: {' '.join(args)}")
    return lines


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="",
                    help="self-test only: corrupt one checked result")
    args = ap.parse_args()

    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        common += ["--corrupt", args.corrupt]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            line = run_binary(binary, common + ["--setup-only"],
                              SETUP_TIMEOUT_S)[-1]
            setups.append(json.loads(line)["setup_s"])

    lines = run_binary(binary, common, RUN_TIMEOUT_S)
    result = json.loads(lines[-1])
    host = next((json.loads(l)["host"] for l in lines[:-1]
                 if l.startswith('{"host"')), {})

    metrics = result["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    want = expected_metrics(args.trace)
    if want is not None and want != set(metrics):
        fail("metric set differs from BENCHMARK.json: "
             f"missing {sorted(want - set(metrics))}, "
             f"extra {sorted(set(metrics) - want)}")

    host.update({"workload": args.workload, "git_sha": git_sha(),
                 "source_sha256": source_digest(),
                 "setup_s_samples": setups})
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
