#!/usr/bin/env python3
"""Time each kernel of the package on fixed inputs, one line per kernel.

The inputs are those of a benchmark ``readout`` item and of a ``sweep`` step
stack: the pulse-level QC deviation at the default parameters, its state
I/4 + epsilon delta, its finite-pulse step-2 state, seed-0 witness
direction and a 12-step relaxed Pauli table at the fig4 time step, with its
deviation and state stacks.  ``sweep item`` is the timed call of a
benchmark ``sweep`` item at the default parameters and 12 steps.  The
exact discord search runs on one seed-0 Ginibre state, the input of a
``custom`` item.  ``witness`` reads the Pauli table that a state computes
once and keeps, so its lines leave out the ``pauli_table`` line's cost.
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


def kernels() -> dict:
    """Name -> zero-argument call of every timed kernel."""
    params = nmr.SpinSystemParams()
    eps = params.epsilon
    dev = nmr.prepare_deviation("QC", params, level="pulse")
    rho = states.compose_deviation(dev)
    direction = circuit.sample_direction(0)
    times = np.arange(SWEEP_STEPS) * SWEEP_DT
    table = nmr._relaxed_table(dev.delta, times, params, 1.0 / eps)
    deltas = states.from_pauli_table(table)
    rhos = np.eye(4) / 4.0 + eps * deltas
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
        f"epsilon_correlations ({SWEEP_STEPS} steps)": lambda: correlations.epsilon_correlations(
            table[:, 1:, 1:]),
        f"_relaxed_table ({SWEEP_STEPS} steps)": lambda: nmr._relaxed_table(
            dev.delta, times, params, 1.0 / eps),
        "sweep item (prepare_state + dynamics_sweep)": lambda: nmr.dynamics_sweep(
            nmr.prepare_state("QC", params), SWEEP_DT, SWEEP_STEPS, params),
        "perturb_deviation": lambda: harness.perturb_deviation(
            dev, harness.DEFAULT_NOISE_LEVEL, rng),
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
