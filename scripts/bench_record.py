#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<n>.json.

Runs bench/run.py for every workload listed in BENCHMARK.json with seed 1 for
its run_seconds, once with --trace 0 (the end-to-end metrics) and once with
--trace 1 (the per-layer metrics), one run at a time, and writes their
metrics, correct, attempted and failed counts together with the Python, numpy
and scipy versions, the host's core count and the git commit of the checkout
to BENCH_<n>.json in the repo root:

    python scripts/bench_record.py --n 6

``dirty`` is true when tracked files differ from that commit; then
``measured_diff_sha256`` (the sha256 of ``git diff HEAD`` over src/, bench/
and BENCHMARK.json, the code that ran) tells which working tree was measured.
Compare a file only against another one written by this script on the same
machine: the host's speed enters every time metric.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
MEASURED = ("src", "bench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def measured_diff_sha256() -> str:
    diff = subprocess.run(["git", "diff", "--no-color", "--no-ext-diff", "--binary", "HEAD", "--",
                           *MEASURED], cwd=ROOT, capture_output=True, check=True).stdout
    return hashlib.sha256(diff).hexdigest()


def run_bench(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="index of the BENCH_<n>.json file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = {"end_to_end": run_bench(name, seconds, 0),
                "per_layer": run_bench(name, seconds, 1)}
        workloads[name] = {
            kind: {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                   "metrics": r["metrics"]}
            for kind, r in runs.items()
        }
        e2e = runs["end_to_end"]["metrics"]
        print(f"{name}: " + ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in e2e.items()),
              file=sys.stderr)

    doc = {
        "n": args.n,
        "git_head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "measured_diff_sha256": measured_diff_sha256(),
        "seed": SEED,
        "seconds": seconds,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine()},
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
