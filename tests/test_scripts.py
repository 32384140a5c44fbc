"""Smoke tests of the scripts in scripts/: each runs on the package as it
is, so a name a script uses cannot disappear unnoticed."""

import runpy
import sys
from dataclasses import replace
from pathlib import Path

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
