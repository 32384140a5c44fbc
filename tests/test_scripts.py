"""Tests of the scripts in scripts/: each runs on the package as it is, so
a name a script uses cannot disappear unnoticed, and bench_record.py's
paired-run summary is checked on fixed numbers."""

import runpy
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nmrwitness import dynamics_sweep, prepare_deviation
from nmrwitness.harness import CLASSICALITY_BOUND, DECAY_FRACTION
from nmrwitness.nmr import SpinSystemParams

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def relaxation_study_lines(scales, steps: int, dt: float) -> list:
    """The study's CSV lines from its definition: one QC sweep per pair of
    T2* scales, with the first times the witness and Q fall below their
    thresholds."""
    base = SpinSystemParams()
    lines = [f"t2s_h,t2s_c,first_t_witness_below_{CLASSICALITY_BOUND:g},"
             "first_t_quantum_below_1pct"]
    for sh in scales:
        for sc in scales:
            params = replace(base, t2s_h=base.t2s_h * sh, t2s_c=base.t2s_c * sc)
            series = dynamics_sweep(prepare_deviation("QC", params), dt, steps, params)
            t_w = series.first_time_below("witness_values", CLASSICALITY_BOUND)
            t_q = series.first_time_below("quantum", DECAY_FRACTION * series.quantum[0])
            lines.append(f"{params.t2s_h:.4g},{params.t2s_c:.4g},"
                         f"{'' if t_w is None else t_w},{'' if t_q is None else t_q}")
    return lines


def test_relaxation_study_matches_its_definition(tmp_path, monkeypatch, capsys):
    out = tmp_path / "study.csv"
    monkeypatch.setattr(sys, "argv", ["relaxation_study.py", "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "relaxation_study.py"), run_name="__main__")
    capsys.readouterr()
    lines = out.read_text().splitlines()
    want = relaxation_study_lines([0.5, 0.75, 1.0, 1.5, 2.0], 24, 0.0557)
    assert len(lines) == len(want) == 26
    for got, expect in zip(lines, want):
        assert got == expect
    # both crossing times occur somewhere in the default grid
    assert any(line.split(",")[2] for line in lines[1:])
    assert any(line.split(",")[3] for line in lines[1:])


def test_kernel_times_kernels_run():
    kernels = runpy.run_path(str(SCRIPTS / "kernel_times.py"))["kernels"]()
    assert kernels
    for call in kernels.values():
        call()


def test_bench_record_summarizes_pairs_on_fixed_numbers():
    summarize = runpy.run_path(str(SCRIPTS / "bench_record.py"))["summarize_pairs"]
    parent = [0.30, 0.32, 0.31, 0.29, 0.33, 0.30, 0.31, 0.32, 0.30, 0.31]
    change = [0.25, 0.26, 0.27, 0.25, 0.26, 0.31, 0.25, 0.26, 0.25, 0.26]
    s = summarize(parent, change, "lower")
    # statistics.quantiles(n=4), exclusive method: points 2.75, 5.5 and 8.25
    # of the ten sorted values
    assert [s["parent"][k] for k in ("q1", "median", "q3")] == pytest.approx([0.30, 0.31, 0.32])
    assert s["change"]["median"] == pytest.approx(0.26) and s["change"]["values"] == change
    assert (s["pairs"], s["wins"]) == (10, 9)                  # pair 6 is lost
    assert s["median_gain"] == pytest.approx(0.05) and s["parent_iqr"] == pytest.approx(0.02)
    assert s["claim_holds"]
    # the same runs read as a rate, where higher is better: one pair won
    s = summarize(parent, change, "higher")
    assert s["wins"] == 1 and s["median_gain"] == pytest.approx(-0.05) and not s["claim_holds"]
    # 8 wins of 10 fail the rule, however large the gain
    eight = [p - 0.05 for p in parent[:8]] + [p + 0.01 for p in parent[8:]]
    s = summarize(parent, eight, "lower")
    assert s["wins"] == 8 and s["median_gain"] > s["parent_iqr"] and not s["claim_holds"]
    # 9 wins of 10 with a gain inside the parent's IQR fail it too
    near = [p - 0.001 for p in parent[:9]] + [0.5]
    s = summarize(parent, near, "lower")
    assert s["wins"] == 9 and 0 < s["median_gain"] < s["parent_iqr"] and not s["claim_holds"]
    # ties are not wins; fewer than two pairs or unequal sides are refused
    assert summarize([1.0, 2.0], [1.0, 2.0], "lower")["wins"] == 0
    for bad in (([1.0], [1.0]), ([1.0, 2.0], [1.0])):
        with pytest.raises(ValueError, match="two or more pairs"):
            summarize(*bad, "lower")


def test_bench_record_runs_traced_pairs_beside_the_untraced_ones(tmp_path):
    """Each untraced pair is followed by a traced pair in the same order, the
    order alternating from pair to pair, and the traced runs are summarized
    per layer metric as the untraced ones are end to end."""
    script = runpy.run_path(str(SCRIPTS / "bench_record.py"))
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        side = "parent" if root == tmp_path else "change"
        calls.append((side, trace))
        k = len(calls)
        metric = "traced_item_p50_ms" if trace else "item_p50_ms"
        value = (2.0 if side == "parent" else 1.0) + k / 100
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {metric: {"value": value, "unit": "ms"}}}

    script["paired_runs"].__globals__["run_bench"] = fake_run
    spec = {"end_to_end": [{"name": "item_p50_ms", "better": "lower"}],
            "per_layer": [{"name": "traced_item_p50_ms", "better": "lower"},
                          {"name": "states.self_ms", "better": "lower"}]}
    out = script["paired_runs"]("readout", 1, 0.1, 3, tmp_path, spec)
    assert calls == [("parent", 0), ("change", 0), ("parent", 1), ("change", 1),
                     ("change", 0), ("parent", 0), ("change", 1), ("parent", 1),
                     ("parent", 0), ("change", 0), ("parent", 1), ("change", 1)]
    assert [p["first"] for p in out["traced_pairs"]] == ["parent", "change", "parent"]
    assert list(out["per_layer"]) == ["traced_item_p50_ms"]    # a metric no run reports is left out
    layer = out["per_layer"]["traced_item_p50_ms"]
    assert layer["pairs"] == 3 and layer["wins"] == 3 and layer["parent"]["values"] == [2.03, 2.08, 2.11]
    assert out["summary"]["item_p50_ms"]["wins"] == 3
    assert out["all_correct"] and out["failed"] == 0
