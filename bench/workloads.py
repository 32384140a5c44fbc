"""Seeded inputs, timed items and output conversion of the three workloads.

A workload is built from its seed into a list of distinct item inputs.  For
``sweep`` and ``custom`` the list is longer than a 50-s run of today's
program reaches; ``readout`` items are cheap and the run cycles through
them.  Item kinds and sizes follow a fixed order with
period ``round``, and a run stops only at the end of a round, so every run
has the same mix.  The traced run takes its call counts over the first
``counted`` items, which every run completes, so they repeat exactly for a
seed.

Every call into the program goes through a module attribute
(``nmr.dynamics_sweep``, not a name imported from it), so the traced run can
replace those attributes with span-recording wrappers.
"""

import dataclasses
from collections.abc import Callable
from pathlib import Path

import numpy as np

from nmrwitness import circuit, harness, nmr, states

import reference

# Item sizes cycle through a range (series length, number of witness
# directions) so that item times spread over a continuous range.  Items of
# one fixed size form tight clusters, one per kind and per speed phase of the
# host, and a median that falls in a gap between clusters jumps from run to
# run.

# sweep: relaxation series of the QC state, as scripts/relaxation_study.py
# computes them, at the time step of the fig4 experiment and 8 to 16 steps.
SWEEP_ITEMS = 81
SWEEP_DT = 0.0557
SWEEP_STEPS = tuple(range(8, 17))
SWEEP_SCALES = (0.5, 2.0)         # log-uniform range of the T2* scale factors

# custom: Bell-diagonal Bloch documents alternate with Ginibre states in
# deviation form at this epsilon, where the exact and the epsilon^2
# quantities are both of order one.
CUSTOM_ITEMS = 192
CUSTOM_EPSILON = 0.25
BELL_MIN_EIGENVALUE = 0.02

# readout: every round of twenty items covers both state kinds, both
# preparation pulse models and one to five witness directions.
READOUT_ITEMS = 260
READOUT_KINDS = ("QC", "pseudo_pure_11")
READOUT_MODELS = ("instantaneous", "finite")
READOUT_DIRECTIONS = (1, 2, 3, 4, 5)


@dataclasses.dataclass(frozen=True)
class Workload:
    build: Callable    # (seed, work_dir) -> list of item inputs
    run: Callable      # item input -> program result (the timed call)
    convert: Callable  # (item input, program result) -> plain outputs for the check
    check: Callable    # (item input, plain outputs) -> list of messages
    round: int         # period of the item kinds and sizes
    counted: int       # items whose call counts the traced run reports


def _seed_ints(rng: np.random.Generator, n: int) -> list:
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=n)]


# --- sweep ------------------------------------------------------------------


def build_sweep(seed: int, work_dir: Path) -> list:
    rng = np.random.default_rng(seed)
    base = nmr.SpinSystemParams()
    lo, hi = np.log(SWEEP_SCALES[0]), np.log(SWEEP_SCALES[1])
    items = []
    for k in range(SWEEP_ITEMS):
        sh, sc = np.exp(rng.uniform(lo, hi, size=2))
        params = dataclasses.replace(base, t2s_h=base.t2s_h * sh, t2s_c=base.t2s_c * sc)
        items.append((params, SWEEP_STEPS[k % len(SWEEP_STEPS)]))
    return items


def run_sweep(item):
    params, n_steps = item
    return nmr.dynamics_sweep(nmr.prepare_state("QC", params), SWEEP_DT, n_steps, params)


def convert_sweep(item, series) -> dict:
    return {
        "times": series.times, "W": series.witness_values, "I": series.mutual_info,
        "Q": series.quantum, "C": series.classical,
        "delta": np.array([d.delta for d in series.deviations]),
    }


def check_sweep(item, out: dict) -> list:
    params, n_steps = item
    p = {k: getattr(params, k) for k in ("epsilon", "gamma_ratio", "t1_h", "t1_c", "t2s_h", "t2s_c")}
    p.update(dt=SWEEP_DT, n_steps=n_steps)
    return reference.check_sweep(p, out)


# --- custom -----------------------------------------------------------------


def _bell_diagonal_doc(rng: np.random.Generator) -> dict:
    signs = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]])
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        if np.min(1.0 + signs @ c) / 4.0 >= BELL_MIN_EIGENVALUE:
            return {"bloch": {"a": [0.0] * 3, "b": [0.0] * 3, "c": c.tolist()}}


def _ginibre_doc(rng: np.random.Generator) -> dict:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    delta = (rho - np.eye(4) / 4.0) / CUSTOM_EPSILON
    delta = (delta + delta.conj().T) / 2.0
    delta -= np.trace(delta) / 4.0 * np.eye(4)
    return {"epsilon": CUSTOM_EPSILON, "delta_re": delta.real.tolist(), "delta_im": delta.imag.tolist()}


def build_custom(seed: int, work_dir: Path) -> list:
    rng = np.random.default_rng(seed)
    items = []
    for k, direction_seed in enumerate(_seed_ints(rng, CUSTOM_ITEMS)):
        doc = _bell_diagonal_doc(rng) if k % 2 == 0 else _ginibre_doc(rng)
        config = harness.ExperimentConfig(experiment="custom", seed=direction_seed,
                                          out_dir=str(work_dir))
        items.append((config, doc))
    return items


def run_custom(item):
    config, doc = item
    return harness.run_custom(config, doc)


def convert_custom(item, report) -> dict:
    config, _ = item
    row = report.rows[0]
    exact, eps = row["exact_correlations"], row["epsilon_correlations"]
    basis = exact["argmax_basis"]
    csv_lines = (Path(config.out_dir) / "custom.csv").read_text().splitlines()
    return {
        "I": exact["I"], "Q": exact["Q"], "C": exact["C"],
        "angles": [basis[k] for k in ("theta_a", "phi_a", "theta_b", "phi_b")],
        "eps": None if eps is None else [eps["I"], eps["Q"], eps["C"]],
        "circuit_o": row["witness_circuit"]["o"], "circuit_W": row["witness_circuit"]["W"],
        "direct_o": row["witness_direct"]["o"], "direct_W": row["witness_direct"]["W"],
        "csv_row": csv_lines[1],
    }


def check_custom(item, out: dict) -> list:
    return reference.check_custom(item[1], out)


# --- readout ----------------------------------------------------------------

READOUT_PARAMS = nmr.SpinSystemParams()


def build_readout(seed: int, work_dir: Path) -> list:
    rng = np.random.default_rng(seed)
    items = []
    for k, noise_seed in enumerate(_seed_ints(rng, READOUT_ITEMS)):
        dirs = []
        for _ in range(READOUT_DIRECTIONS[k % len(READOUT_DIRECTIONS)]):
            z, w = rng.standard_normal(3), rng.standard_normal(3)
            dirs.append(circuit.WitnessDirection(z=z / np.linalg.norm(z), w=w / np.linalg.norm(w)))
        items.append({
            "kind": READOUT_KINDS[k % 2],
            "model": READOUT_MODELS[(k // 2) % 2],
            "noise_seed": noise_seed,
            "directions": dirs,
        })
    return items


def run_readout(item):
    params, model = READOUT_PARAMS, item["model"]
    eps = params.epsilon
    clean = nmr.prepare_state(item["kind"], params, level="pulse", model=model)
    dev = states.extract_deviation(clean, eps)
    noisy = harness.perturb_deviation(dev, harness.DEFAULT_NOISE_LEVEL,
                                      np.random.default_rng(item["noise_seed"]))
    rho = states.compose_deviation(noisy)
    # The readout circuit always uses ideal pulses, as the harness does: finite
    # pulses accrue J evolution and read O1..O3 off by about 6e-3 of 2 epsilon.
    pulse_o = [circuit.readout_sigma_x_a(nmr.pulse_protocol_state(rho, i, params))
               for i in (1, 2, 3)]
    reports = [
        tuple(circuit.witness(rho, d, mode=mode, normalization="thermal", epsilon=eps)
              for mode in ("circuit", "direct"))
        for d in item["directions"]
    ]
    ideal = states.DeviationState(delta=nmr.ideal_deviation(item["kind"], params), epsilon=eps)
    distance = states.normalized_trace_distance(ideal, noisy)
    return dev, rho, pulse_o, reports, distance


def convert_readout(item, result) -> dict:
    dev, rho, pulse_o, reports, distance = result
    return {
        "clean_delta": dev.delta, "rho": rho.matrix, "pulse_o": pulse_o,
        "circuit": [(c.o, c.w) for c, _ in reports],
        "direct": [(d.o, d.w) for _, d in reports],
        "distance": distance,
    }


def check_readout(item, out: dict) -> list:
    ref_item = {
        "kind": item["kind"], "epsilon": READOUT_PARAMS.epsilon,
        "directions": [(d.z, d.w) for d in item["directions"]],
    }
    return reference.check_readout(ref_item, out)


WORKLOADS = {
    "sweep": Workload(build_sweep, run_sweep, convert_sweep, check_sweep, round=9, counted=9),
    "custom": Workload(build_custom, run_custom, convert_custom, check_custom, round=2, counted=16),
    "readout": Workload(build_readout, run_readout, convert_readout, check_readout, round=20, counted=20),
}
