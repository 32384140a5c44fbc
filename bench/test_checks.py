"""Self-tests of the benchmark's output checks and its tracer.

Each check must accept the program's real output and reject it once one
value is corrupted, so that no check passes vacuously.  Run from the root
of the checkout:

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nmrwitness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OFF = 1e-4


def _output(name, index, tmp_path_factory):
    wl = workloads.WORKLOADS[name]
    item = wl.build(7, tmp_path_factory.mktemp(name))[index]
    return wl, item, wl.convert(item, wl.run(item))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _output("sweep", 0, tmp_path_factory)


@pytest.fixture(scope="module", params=[0, 1], ids=["bell", "deviation"])
def custom(request, tmp_path_factory):
    return _output("custom", request.param, tmp_path_factory)


@pytest.fixture(scope="module", params=[0, 3], ids=["qc-instantaneous", "pp11-finite"])
def readout(request, tmp_path_factory):
    return _output("readout", request.param, tmp_path_factory)


def _rejects(case, corrupt):
    wl, item, out = case
    assert wl.check(item, out) == []
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert wl.check(item, bad) != []


def _add(key, index, amount=OFF):
    def corrupt(out):
        arr = np.array(out[key], dtype=float if key != "delta" else complex)
        arr[index] += amount
        out[key] = arr
    return corrupt


@pytest.mark.parametrize("key", ["W", "I", "Q", "C"])
def test_sweep_rejects_one_perturbed_step(sweep, key):
    _rejects(sweep, _add(key, 5))


def test_sweep_rejects_perturbed_deviation(sweep):
    _rejects(sweep, _add("delta", (3, 0, 3)))


def test_sweep_rejects_swapped_steps(sweep):
    def corrupt(out):
        for key in ("W", "Q"):
            out[key] = np.array(out[key])
            out[key][[2, 3]] = out[key][[3, 2]]
    _rejects(sweep, corrupt)


def test_sweep_rejects_wrong_times(sweep):
    _rejects(sweep, _add("times", 4, 1e-3))


def test_custom_rejects_classical_off(custom):
    def corrupt(out):
        out["C"] += OFF
        out["Q"] -= OFF
    _rejects(custom, corrupt)


def test_custom_rejects_mutual_information_off(custom):
    def corrupt(out):
        out["I"] += OFF
        out["Q"] += OFF
    _rejects(custom, corrupt)


def test_custom_rejects_moved_argmax(custom):
    def corrupt(out):
        out["angles"][0] += 0.05
    _rejects(custom, corrupt)


def test_custom_rejects_swapped_readouts(custom):
    def corrupt(out):
        o = out["circuit_o"]
        o[0], o[2] = o[2], o[0]
    _rejects(custom, corrupt)


def test_custom_rejects_epsilon2_triple_off(tmp_path_factory):
    wl, item, out = _output("custom", 1, tmp_path_factory)
    _rejects((wl, item, out), lambda o: o["eps"].__setitem__(2, o["eps"][2] + OFF))


def test_custom_rejects_wrong_csv(custom):
    def corrupt(out):
        fields = out["csv_row"].split(",")
        fields[3] = repr(float(fields[3]) + OFF)
        out["csv_row"] = ",".join(fields)
    _rejects(custom, corrupt)


def test_readout_rejects_swapped_pulse_readouts(readout):
    def corrupt(out):
        o = out["pulse_o"]
        o[0], o[2] = o[2], o[0]
    _rejects(readout, corrupt)


@pytest.mark.parametrize("mode", ["circuit", "direct"])
def test_readout_rejects_local_readout_off(readout, mode):
    def corrupt(out):
        o, w = out[mode][-1]
        o = np.array(o)
        o[3] += OFF
        out[mode][-1] = (o, w)
    _rejects(readout, corrupt)


def test_readout_rejects_witness_off(readout):
    def corrupt(out):
        o, w = out["circuit"][0]
        out["circuit"][0] = (o, w + OFF)
    _rejects(readout, corrupt)


def test_readout_rejects_distance_off(readout):
    def corrupt(out):
        out["distance"] += OFF
    _rejects(readout, corrupt)


def test_readout_rejects_missed_preparation(readout):
    def corrupt(out):
        out["clean_delta"] = np.array(out["clean_delta"]) * 0.9
    _rejects(readout, corrupt)


def test_bell_diagonal_reference_formula():
    # Classical correlation of a Bell-diagonal state measured along its
    # strongest axis, computed through the explicit measurement map.
    c = np.array([0.3, -0.6, 0.1])
    rho = (reference.PAIR[0, 0] + sum(c[i] * reference.PAIR[i + 1, i + 1] for i in range(3))) / 4
    direct = reference.mutual_information(reference.measured_state(rho, (np.pi / 2, np.pi / 2) * 2))
    assert direct == pytest.approx(1 - reference.binary_entropy((1 + 0.6) / 2), abs=1e-14)


def test_tracer_counts_repeat_and_self_times_balance(tmp_path):
    wl = workloads.WORKLOADS["readout"]
    items = wl.build(7, tmp_path)[:4]
    tracer = spans.Tracer(counted=8)
    assert tracer.install(nmrwitness) > 0
    for _ in range(2):
        for item in items:
            with tracer.item():
                wl.run(item)
    assert tracer.items == 8 and tracer.unbalanced == 0
    assert sum(tracer.layer_self_s.values()) == pytest.approx(sum(tracer.item_s), abs=1e-9)
    first = [s[0] for s in tracer.kept[0]]
    assert first[0] == spans.ROOT and "nmr.prepare_state" in first
    assert tracer.calls["nmr.expm"] % 2 == 0 and tracer.calls["states.DensityMatrix.__post_init__"] % 2 == 0
