"""The package names the benchmark calls exist.

``bench/workloads.py`` reaches the program only through module attributes
(``nmr.dynamics_sweep``, ``circuit.witness``, ...).  Removing or renaming one
of them would otherwise surface only when the benchmark runs; this test reads
the workload file as text and fails in the test suite instead.
"""

import re
from pathlib import Path

import pytest

from nmrwitness import circuit, harness, nmr, states

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
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
