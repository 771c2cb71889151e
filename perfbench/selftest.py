#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs short benchmark processes that each corrupt one checked result on
purpose (--corrupt KIND) and asserts that the run reports exactly that
one failure and `correct: false`; then runs each workload clean and
asserts zero failures. Exit status 0 when every case behaves.

  gemm      a SystolicGemm::run result vs GemmExecutor (alexnet_conv)
  cycles    SystolicGemm::run cycles vs the foldLatency() sum
  dnn_gemm  a DNN-shaped GEMM, SystolicGemm vs GemmExecutor (dnn_infer)
  logits    mirrored AlexLite logits vs buildAlexLite's
  sublayer  a mirrored GEMM sublayer's output vs its recomputation
  repeat    a repeated batch's logits vs its first run
  response  a usysd response vs the in-process render (serve_mixed)
  error     a request the daemon answers with an error frame
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CORRUPT = [("alexnet_conv", "gemm"), ("alexnet_conv", "cycles"),
           ("dnn_infer", "dnn_gemm"), ("dnn_infer", "logits"),
           ("dnn_infer", "sublayer"),
           ("dnn_infer", "repeat"), ("serve_mixed", "response"),
           ("serve_mixed", "error")]
CLEAN = ["alexnet_conv", "dnn_infer", "serve_mixed"]


def run(workload, corrupt=""):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), [
        l for l in proc.stderr.splitlines() if "check failed" in l]


def main():
    bad = 0
    for workload, kind in CORRUPT:
        result, log = run(workload, kind)
        ok = (result is not None and result["failed"] == 1
              and result["correct"] is False)
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} corrupt {kind:<9} {workload:<13}"
              f" {log[0] if log else ''}")
    for workload in CLEAN:
        result, log = run(workload)
        ok = (result is not None and result["failed"] == 0
              and result["correct"] is True and result["attempted"] > 0)
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'} clean             {workload:<13}"
              f" attempted {result['attempted'] if result else '-'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
