#!/usr/bin/env python3
"""Time each kernel of the package on fixed inputs, one line per kernel.

The inputs are those of a benchmark ``readout`` item and of a ``sweep`` step
stack: the pulse-level QC deviation at the default parameters, its state
I/4 + epsilon delta, its finite-pulse step-2 state, seed-0 witness
direction and a 12-step relaxed Pauli table at the fig4 time step, with its
deviation and state stacks; ``DeviationState.views`` and ``DynamicsSeries``
take the checked deviation stack and the fields of the 12-step sweep of
that deviation, the two last stages of ``dynamics_sweep``.  ``sweep item`` is the timed call of a
benchmark ``sweep`` item at the default parameters and 12 steps, from the
state the benchmark passes and from the deviation that fig4 and
scripts/relaxation_study.py pass.  ``readout item`` is the call sequence of
a benchmark ``readout`` item, written out in ``readout_item``, on one fixed
item: the finite-pulse QC preparation, noise seed READOUT_NOISE_SEED and
the witness directions of seeds 0 to READOUT_DIRECTIONS - 1.  The exact discord search runs on one seed-0 Ginibre state, the input of a
``custom`` item.  ``witness`` reads the Pauli table that a state computes
once and keeps, so its lines leave out the ``pauli_table`` line's cost; it
reads the state I/4 + epsilon delta, as a ``readout`` item does, and the
deviation, as fig2 and fig4 do.
Each kernel runs once to fill the package's caches; its time is then the
minimum, over REPEATS timeit repeats, of the mean time of one call, in
microseconds.  The last line is the time of ``import nmrwitness`` in a
fresh interpreter, the median of IMPORT_LAUNCHES launches:

    python scripts/kernel_times.py

Uses the package in this checkout's src/.  Compare two outputs only when
they come from the same machine: the host's speed enters every line.
"""

import os
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from nmrwitness import circuit, correlations, harness, nmr, states  # noqa: E402

REPEATS = 7
IMPORT_LAUNCHES = 5
IMPORT_SCRIPT = "import time; t = time.perf_counter(); import nmrwitness; print(time.perf_counter() - t)"
SWEEP_STEPS = 12
SWEEP_DT = 0.0557
READOUT_NOISE_SEED = 7
READOUT_DIRECTIONS = 3    # a readout item reads one to five


def readout_item(params, kind: str, model: str, noise_seed: int, directions: list):
    """A benchmark ``readout`` item's calls in order: the pulse-level state,
    its deviation, the preparation noise from a fresh generator, the noisy
    state, the three pulse-level circuit steps with their sigma_x^a reads,
    the witness in circuit and direct mode at each direction, and the trace
    distance to the ideal target."""
    eps = params.epsilon
    clean = nmr.prepare_state(kind, params, level="pulse", model=model)
    dev = states.extract_deviation(clean, eps)
    noisy = harness.perturb_deviation(dev, harness.DEFAULT_NOISE_LEVEL,
                                      np.random.default_rng(noise_seed))
    rho = states.compose_deviation(noisy)
    pulse_o = [circuit.readout_sigma_x_a(nmr.pulse_protocol_state(rho, i, params))
               for i in (1, 2, 3)]
    reports = [tuple(circuit.witness(rho, d, mode=mode, normalization="thermal", epsilon=eps)
                     for mode in ("circuit", "direct"))
               for d in directions]
    ideal = states.DeviationState(delta=nmr.ideal_deviation(kind, params), epsilon=eps)
    return pulse_o, reports, states.normalized_trace_distance(ideal, noisy)


def kernels() -> dict:
    """Name -> zero-argument call of every timed kernel."""
    params = nmr.SpinSystemParams()
    eps = params.epsilon
    dev = nmr.prepare_deviation("QC", params, level="pulse")
    rho = states.compose_deviation(dev)
    direction = circuit.sample_direction(0)
    readout_dirs = [circuit.sample_direction(k) for k in range(READOUT_DIRECTIONS)]
    times = np.arange(SWEEP_STEPS) * SWEEP_DT
    table = nmr._relaxed_table(dev.pauli, times, params, 1.0 / eps)
    deltas = states.from_pauli_table(table)
    rhos = np.eye(4) / 4.0 + eps * deltas
    checked = states.validate_deviations(deltas, eps)
    series = nmr.dynamics_sweep(dev, SWEEP_DT, SWEEP_STEPS, params)
    series_fields = {name: getattr(series, name) for name in (
        "times", "witness_values", "mutual_info", "quantum", "classical", "deviations")}
    xi = nmr.pulse_protocol_state(rho, 2, params, "finite")
    rng = np.random.default_rng(0)
    g = np.random.default_rng(0).standard_normal((4, 4, 2)) @ np.array([1.0, 1j])
    g = g @ g.conj().T
    ginibre = states.DensityMatrix(g / np.trace(g).real)
    return {
        "DensityMatrix": lambda: states.DensityMatrix(rho.matrix),
        "DeviationState": lambda: states.DeviationState(delta=dev.delta, epsilon=eps),
        f"validate_states ({SWEEP_STEPS}-step stack)": lambda: states.validate_states(rhos),
        f"validate_deviations ({SWEEP_STEPS}-step stack)": lambda: states.validate_deviations(
            deltas, eps),
        "pauli_table": lambda: states.pauli_table(rho.matrix),
        "readout_sigma_x_a": lambda: circuit.readout_sigma_x_a(xi),
        "witness circuit": lambda: circuit.witness(
            rho, direction, mode="circuit", normalization="thermal", epsilon=eps),
        "witness direct": lambda: circuit.witness(
            rho, direction, mode="direct", normalization="thermal", epsilon=eps),
        "witness circuit (deviation)": lambda: circuit.witness(
            dev, direction, mode="circuit", normalization="thermal"),
        "witness direct (deviation)": lambda: circuit.witness(
            dev, direction, mode="direct", normalization="thermal"),
        f"epsilon_correlations ({SWEEP_STEPS} steps)": lambda: correlations.epsilon_correlations(
            table[:, 1:, 1:]),
        f"_relaxed_table ({SWEEP_STEPS} steps)": lambda: nmr._relaxed_table(
            dev.pauli, times, params, 1.0 / eps),
        f"DeviationState.views ({SWEEP_STEPS}-step stack)": lambda: states.DeviationState.views(
            checked, eps),
        f"DynamicsSeries ({SWEEP_STEPS} steps)": lambda: nmr.DynamicsSeries(**series_fields),
        "sweep item (prepare_state + dynamics_sweep)": lambda: nmr.dynamics_sweep(
            nmr.prepare_state("QC", params), SWEEP_DT, SWEEP_STEPS, params),
        "sweep item (deviation input)": lambda: nmr.dynamics_sweep(
            nmr.prepare_deviation("QC", params), SWEEP_DT, SWEEP_STEPS, params),
        "perturb_deviation": lambda: harness.perturb_deviation(
            dev, harness.DEFAULT_NOISE_LEVEL, rng),
        "readout item (QC, finite pulses)": lambda: readout_item(
            params, "QC", "finite", READOUT_NOISE_SEED, readout_dirs),
        "pulse_protocol_state": lambda: nmr.pulse_protocol_state(rho, 2, params, "finite"),
        "symmetric_discord (Ginibre)": lambda: correlations.symmetric_discord(ginibre),
    }


def main() -> int:
    for name, call in kernels().items():
        call()
        timer = timeit.Timer(call)
        number, _ = timer.autorange()
        best = min(timer.repeat(REPEATS, number)) / number
        print(f"{name:<44s} {best * 1e6:9.2f} us")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    launches = [float(subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env, check=True,
                                     capture_output=True, text=True).stdout)
                for _ in range(IMPORT_LAUNCHES)]
    print(f"{'import nmrwitness (fresh)':<44s} {statistics.median(launches) * 1e6:9.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
