#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<n>.json.

Runs bench/run.py for every workload listed in BENCHMARK.json (or those given
by --workload) at --seed (1 by default) for its run_seconds, once with
--trace 0 (the end-to-end metrics) and once with --trace 1 (the per-layer
metrics), one run at a time, and writes their metrics, correct, attempted
and failed counts together with the Python, numpy and scipy versions, the
host's core count and the git commit of the checkout to BENCH_<n>.json in
the repo root:

    python scripts/bench_record.py --n 6

With --parent REV --pairs K it compares this checkout against a
``git archive`` of REV instead: per workload, K pairs of --trace 0 runs and
K pairs of --trace 1 runs, one run on each tree, the first pair starting
with the parent and the order alternating from pair to pair; each untraced
pair is followed by a traced pair in the same order, so both kinds see the
same drift of the host.  For every end-to-end metric (untraced runs) and
every per-layer metric (traced runs) the file holds each side's median and
quartiles (``statistics.quantiles``, as bench/run.py's steadiness mode), the
pairs the checkout wins (strictly better in the metric's direction) and
``claim_holds``: wins in at least 9 of every 10 pairs and a median gain
larger than the parent's interquartile range:

    python scripts/bench_record.py --n 24 --parent HEAD --pairs 10 --workload sweep

``dirty`` is true when tracked files differ from that commit; then
``measured_diff_sha256`` (the sha256 of ``git diff HEAD`` over src/, bench/
and BENCHMARK.json, the code that ran) tells which working tree was measured.
Compare a file only against another one written by this script on the same
machine: the host's speed enters every time metric.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
MEASURED = ("src", "bench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def measured_diff_sha256() -> str:
    diff = subprocess.run(["git", "diff", "--no-color", "--no-ext-diff", "--binary", "HEAD", "--",
                           *MEASURED], cwd=ROOT, capture_output=True, check=True).stdout
    return hashlib.sha256(diff).hexdigest()


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run of the tree at ``root``: correct, attempted,
    failed and metrics."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    return {key: r[key] for key in ("correct", "attempted", "failed", "metrics")}


def export_tree(rev: str, dest: Path) -> str:
    """Extract ``git archive`` of ``rev`` into ``dest``; returns its commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def summarize_pairs(parent: list, change: list, better: str) -> dict:
    """Summary of one metric over paired runs, ``parent[k]`` against
    ``change[k]``; ``better`` is "higher" or "lower".  Each side's median
    and quartiles, the pairs the change wins, its median gain (positive when
    the change is better) and whether the claim rule holds: wins in at least
    9 of every 10 pairs and a median gain above the parent's interquartile
    range."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two or more pairs, got {len(parent)} and {len(change)} runs")
    sign = {"higher": 1.0, "lower": -1.0}[better]

    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"median": median, "q1": q1, "q3": q3, "values": list(values)}

    p, c = side(parent), side(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    return {"parent": p, "change": c, "pairs": len(parent), "wins": wins, "median_gain": gain,
            "parent_iqr": iqr, "claim_holds": 10 * wins >= 9 * len(parent) and gain > iqr}


def summarize_runs(runs: list, metrics: list) -> dict:
    """summarize_pairs of each metric of ``metrics`` (BENCHMARK.json entries)
    that the paired ``runs`` report."""
    return {m["name"]: summarize_pairs([r["parent"]["metrics"][m["name"]]["value"] for r in runs],
                                       [r["change"]["metrics"][m["name"]]["value"] for r in runs],
                                       m["better"])
            for m in metrics if m["name"] in runs[0]["parent"]["metrics"]}


def paired_runs(name: str, seed: int, seconds: float, pairs: int, parent_root: Path,
                spec: dict) -> dict:
    roots = {"parent": parent_root, "change": ROOT}
    runs, traced = [], []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {side: run_bench(roots[side], name, seed, seconds, 0) for side in order}
        runs.append({"first": order[0], **pair})
        traced.append({"first": order[0],
                       **{side: run_bench(roots[side], name, seed, seconds, 1) for side in order}})
        print(f"{name} pair {k + 1}/{pairs}: " + ", ".join(
            f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g} -> "
            f"{pair['change']['metrics'][m['name']]['value']:.4g}" for m in spec["end_to_end"]),
            file=sys.stderr)
    every = runs + traced
    return {"pairs": runs, "summary": summarize_runs(runs, spec["end_to_end"]),
            "traced_pairs": traced, "per_layer": summarize_runs(traced, spec["per_layer"]),
            "all_correct": all(r[side]["correct"] for r in every for side in roots),
            "failed": sum(r[side]["failed"] for r in every for side in roots)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="index of the BENCH_<n>.json file")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="a workload to run (all by default)")
    parser.add_argument("--parent", metavar="REV", help="compare against a git archive of REV")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload with --parent")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workload or [wl["name"] for wl in spec["workloads"]]
    doc = {
        "n": args.n,
        "git_head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "measured_diff_sha256": measured_diff_sha256(),
        "seed": args.seed,
        "seconds": seconds,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "host": {"cpu_count": os.cpu_count(), "machine": platform.machine()},
    }
    workloads = {}
    if args.parent:
        parent_root = Path(tempfile.mkdtemp(prefix="bench-parent-"))
        try:
            doc["parent"] = {"rev": args.parent, "commit": export_tree(args.parent, parent_root)}
            for name in names:
                workloads[name] = paired_runs(name, args.seed, seconds, args.pairs, parent_root,
                                              spec)
                for metric, s in workloads[name]["summary"].items():
                    print(f"{name}: {metric} median {s['parent']['median']:.4g} -> "
                          f"{s['change']['median']:.4g} (parent IQR {s['parent_iqr']:.3g}), "
                          f"{s['wins']} of {s['pairs']} won, claim holds: {s['claim_holds']}",
                          file=sys.stderr)
        finally:
            shutil.rmtree(parent_root, ignore_errors=True)
    else:
        for name in names:
            workloads[name] = {"end_to_end": run_bench(ROOT, name, args.seed, seconds, 0),
                               "per_layer": run_bench(ROOT, name, args.seed, seconds, 1)}
            e2e = workloads[name]["end_to_end"]["metrics"]
            print(f"{name}: " + ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in e2e.items()),
                  file=sys.stderr)
    doc["workloads"] = workloads
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
