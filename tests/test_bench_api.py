"""The package names the benchmark calls exist, and its listed workloads run.

``bench/workloads.py`` reaches the program only through module attributes
(``nmr.dynamics_sweep``, ``circuit.witness``, ...).  Removing or renaming one
of them, or changing what a call takes or returns, would otherwise surface
only when the benchmark runs; these tests read the workload file as text,
and run one round of items of each workload in ``BENCHMARK.json`` through
its own checks, and fail in the test suite instead.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from nmrwitness import circuit, harness, nmr, states

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = {"circuit": circuit, "harness": harness, "nmr": nmr, "states": states}


def bench_names() -> list:
    """Sorted (module, attribute) pairs that bench/workloads.py uses."""
    text = WORKLOADS.read_text()
    return sorted(set(re.findall(r"\b(circuit|harness|nmr|states)\.([A-Za-z_]\w*)", text)))


def test_reads_the_calls_of_every_workload():
    names = bench_names()
    for call in (("nmr", "dynamics_sweep"), ("harness", "run_custom"),
                 ("circuit", "readout_sigma_x_a"), ("states", "extract_deviation")):
        assert call in names


@pytest.mark.parametrize("module, name", bench_names())
def test_bench_name_exists(module, name):
    assert hasattr(MODULES[module], name), f"bench/workloads.py uses {module}.{name}"


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported as bench/run.py imports it (bench/ on the
    path, for its ``reference`` import), without writing bytecode there."""
    path, quiet = str(WORKLOADS.parent), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path.remove(path)
        sys.dont_write_bytecode = quiet
    return workloads


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_round_of_each_listed_workload_passes_its_check(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for item in wl.build(1, tmp_path)[:wl.round]:
        assert wl.check(item, wl.convert(item, wl.run(item))) == [], item
