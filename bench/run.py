#!/usr/bin/env python3
"""Benchmark of nmrwitness, run from the root of a source checkout.

One run measures one workload in one process: a closed loop that starts the
next item only when the last one has returned, for ``--seconds`` of wall
time, over the seeded inputs, ending at the end of a round of item kinds.  Every item's output is checked
against ``reference.py``, which shares no code with the package.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics: items_per_s, item_p50_ms,
peak_rss_mb and setup_s.  ``--trace 1`` wraps the package's layer functions
(see spans.py) and reports the per-layer metrics, each per timed item, and
writes the spans to .bench_out/trace-<workload>-<seed>.json.

Steadiness mode runs a workload ``--repeat K`` times, each in a fresh
process with seeds seed .. seed+K-1, and prints the median, quartiles and
relative spread of every end-to-end metric (also written to
.bench_out/steady-<workload>.json):

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --repeat 10

BENCHMARK.json lists ``sweep`` and ``readout``.  ``custom`` (the exact
discord search through ``harness.run_custom``) runs the same way by hand;
see README.md for why it is not among the listed workloads.
"""

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 180
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The keys of workloads.WORKLOADS, needed before numpy may be imported.
WORKLOAD_NAMES = ("sweep", "custom", "readout")
END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def pin_threads():
    """One BLAS / OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_workloads():
    """Import the package from this checkout's src/ and the workload module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nmrwitness
    except ImportError as exc:
        sys.exit(f"cannot import nmrwitness from {src}: {exc}")
    if Path(nmrwitness.__file__).resolve().parent != src / "nmrwitness":
        sys.exit(f"nmrwitness was imported from {nmrwitness.__file__}, not from {src}")
    import workloads
    return nmrwitness, workloads


def work_dir() -> Path:
    path = OUT_DIR / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(workload: str, seed: int):
    """Body of one set-up probe: import and build the inputs, then print the
    system-wide monotonic clock so the parent can time it from its launch."""
    _, workloads = load_workloads()
    path = work_dir()
    workloads.WORKLOADS[workload].build(seed, path)
    shutil.rmtree(path)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> float:
    """Median time from launching a fresh interpreter to having the package
    imported and the workload's inputs built, over SETUP_PROBES launches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def run_loop(wl, items, seconds: float, tracer=None):
    """Closed loop over ``items`` (cycled if the run outlasts them) until
    ``seconds`` of wall time have passed, at least ``wl.counted`` items are
    done and the last round is whole.  Returns the item times, the failed
    count and the messages of every failed check."""
    item_s, failed, messages = [], 0, []
    start = time.perf_counter()
    for n in itertools.count(1):
        item = items[(n - 1) % len(items)]
        scope = tracer.item() if tracer is not None else contextlib.nullcontext()
        try:
            with scope:
                t0 = time.perf_counter()
                result = wl.run(item)
                item_s.append(time.perf_counter() - t0)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            failed += 1
            print(f"item failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            messages += wl.check(item, wl.convert(item, result))
        if n % wl.round == 0 and n >= wl.counted and time.perf_counter() - start >= seconds:
            return item_s, failed, messages


def layer_metrics(tracer) -> dict:
    """Per-item layer metrics from a traced run: counts per item over the
    first ``tracer.counted`` items, times per item over all of them."""
    n = max(tracer.items, 1)
    ms = 1000.0 / n
    n_counted = max(min(tracer.items, tracer.counted), 1)

    def count(name):
        return tracer.calls[name] / n_counted

    values = {
        "states.validations": (count("states.DensityMatrix.__post_init__"), "count"),
        "states.self_ms": (tracer.layer_self_s["states"] * ms, "ms"),
        "circuit.witness_calls": (count("circuit.witness"), "count"),
        "circuit.self_ms": (tracer.layer_self_s["circuit"] * ms, "ms"),
        "correlations.epsilon_ms": (tracer.inclusive_s["correlations.discord_epsilon"] * ms, "ms"),
        "correlations.exact_ms": (tracer.inclusive_s["correlations.symmetric_discord"] * ms, "ms"),
        "correlations.minimize_calls": (count("correlations.minimize"), "count"),
        "correlations.objective_evals": (tracer.nfev / n_counted, "count"),
        "correlations.pauli_ms": (tracer.inclusive_s["correlations.pauli_coefficients"] * ms, "ms"),
        "correlations.self_ms": (tracer.layer_self_s["correlations"] * ms, "ms"),
        "nmr.relax_calls": (count("nmr.relax"), "count"),
        "nmr.relax_ms": (tracer.inclusive_s["nmr.relax"] * ms, "ms"),
        "nmr.expm_calls": (count("nmr.expm"), "count"),
        "nmr.prepare_ms": (tracer.inclusive_s["nmr.prepare_state"] * ms, "ms"),
        "nmr.pulse_circuit_ms": (tracer.inclusive_s["nmr.pulse_protocol_state"] * ms, "ms"),
        "nmr.sweep_self_ms": (tracer.self_s["nmr.dynamics_sweep"] * ms, "ms"),
        "nmr.self_ms": (tracer.layer_self_s["nmr"] * ms, "ms"),
        "harness.self_ms": (tracer.layer_self_s["harness"] * ms, "ms"),
        "bench.self_ms": (tracer.layer_self_s["bench"] * ms, "ms"),
        "traced_item_p50_ms": (statistics.median(tracer.item_s) * 1000.0 if tracer.item_s else 0.0, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def write_trace(tracer, workload: str, seed: int, wrapped: int):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload, "seed": seed, "items": tracer.items, "wrapped": wrapped,
        "span_fields": ["name", "layer", "start_s", "end_s", "parent"],
        "first_items": tracer.kept,
        "first_items_calls": dict(tracer.calls),
        "first_items_nfev": tracer.nfev,
        "inclusive_s": dict(tracer.inclusive_s),
        "self_s": dict(tracer.self_s),
        "layer_self_s": dict(tracer.layer_self_s),
        "item_s": tracer.item_s,
    }
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    return path


def benchmark(args) -> dict:
    nmrwitness, workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload]
    path = work_dir()
    try:
        items = wl.build(args.seed, path)
        # One untimed item first, so lazy imports and first-call caches of
        # numpy and scipy land outside the timed loop.  Should it raise, the
        # same item raises again as the first timed one and is counted there.
        with contextlib.suppress(Exception):
            wl.run(items[0])
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer(counted=wl.counted)
            wrapped = tracer.install(nmrwitness)
        item_s, failed, messages = run_loop(wl, items, args.seconds, tracer)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not messages
    if args.trace:
        if tracer.unbalanced:
            print(f"{tracer.unbalanced} items: layer self times do not sum to the item time",
                  file=sys.stderr)
            correct = False
        print(f"trace written to {write_trace(tracer, args.workload, args.seed, wrapped)}",
              file=sys.stderr)
        metrics = layer_metrics(tracer)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "items_per_s": len(item_s) / sum(item_s) if item_s else 0.0,
            "item_p50_ms": statistics.median(item_s) * 1000.0 if item_s else 0.0,
            "peak_rss_mb": rss_mb,
            "setup_s": measure_setup(args.workload, args.seed),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"correct": correct, "attempted": len(item_s) + failed, "failed": failed, "metrics": metrics}


def steadiness(args) -> dict:
    """Run the workload args.repeat times in fresh processes and summarise."""
    runs = []
    for k in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(json.dumps(runs[-1]), file=sys.stderr)
    summary = {}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None,
                         "values": values}
    doc = {"workload": args.workload, "seeds": [args.seed, args.seed + args.repeat - 1],
           "seconds": args.seconds, "all_correct": all(r["correct"] for r in runs),
           "failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
           "metrics": summary}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"steady-{args.workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{args.workload:8s} {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: run the workload this many times")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.repeat:
        doc = steadiness(args)
        print(json.dumps({k: doc[k] for k in ("workload", "all_correct", "failed", "attempted")}))
    else:
        print(json.dumps(benchmark(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
