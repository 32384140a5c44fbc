"""Batch experiment runner: emits the reference experiment tables as CSV/JSON.

Each run returns a RunReport and, when an output directory is configured,
writes deterministic files (identical config and seed give byte-identical
output; wall-clock timing is only written when explicitly requested).
"""

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    STEP_OBSERVABLES,
    run_protocol,
    sample_direction,
    witness,
    witness_from_expectations,
)
from .correlations import (
    discord_epsilon,
    mutual_information,
    symmetric_discord,
)
from .errors import check_config, is_finite, is_int
from .nmr import (
    SpinSystemParams,
    dynamics_sweep,
    prepare_deviation,
    pulse_step_observables,
)
from .pauli import su2
from .states import (
    DensityMatrix,
    DeviationState,
    compose_deviation,
    normalized_trace_distance,
    state_from_json,
)

CROSS_CHECK_TOL = 1e-8
CLASSICALITY_BOUND = 0.05

# Preparation-noise knob: per-qubit random rotations with this angle spread
# plus a weaker additive traceless perturbation.  Calibrated so the deviation
# of the noisy prepared states sits about 0.1 (normalized trace distance)
# from the ideal targets while the witness stays inside the measured bands.
DEFAULT_NOISE_LEVEL = 0.06


class CrossCheckFailure(RuntimeError):
    """Circuit-mode and direct-mode witness readouts disagreed."""


EXPERIMENTS = ("fig2", "fig3", "fig4", "custom")
NORMALIZATIONS = ("raw", "thermal")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "fig2"
    state_kinds: tuple = ("QC", "CC", "thermal")
    seed: int = 0
    normalization: str = "thermal"
    noise_level: float | None = None        # None disables noise injection
    pulse_level: bool = False
    direction_seeds: tuple | None = None    # default: (seed,); W = max over seeds
    params: SpinSystemParams = field(default_factory=SpinSystemParams)
    out_dir: str | None = None
    delta_t: float = 0.0557                 # s
    n_steps: int = 12
    write_timing: bool = False

    def __post_init__(self):
        """Type and range checks of every field, each raising BadConfig with
        the field's name; a list of state kinds or of direction seeds (as a
        JSON --config gives them) becomes a tuple."""
        def check(ok: bool, key: str, want: str):
            check_config(ok, key, getattr(self, key), want)

        check(self.experiment in EXPERIMENTS, "experiment", f"one of {', '.join(EXPERIMENTS)}")
        kinds = self.state_kinds
        check(isinstance(kinds, (list, tuple)) and all(isinstance(k, str) for k in kinds),
              "state_kinds", "a list of state kind names")
        object.__setattr__(self, "state_kinds", tuple(kinds))
        check(is_int(self.seed) and self.seed >= 0, "seed", "a nonnegative integer")
        check(self.normalization in NORMALIZATIONS, "normalization",
              f"one of {', '.join(NORMALIZATIONS)}")
        level = self.noise_level
        check(level is None or (is_finite(level) and level >= 0),
              "noise_level", "null or a finite nonnegative number")
        check(isinstance(self.pulse_level, bool), "pulse_level", "true or false")
        if (seeds := self.direction_seeds) is not None:
            check(isinstance(seeds, (list, tuple)) and all(is_int(s) and s >= 0 for s in seeds),
                  "direction_seeds", "null or a list of nonnegative integers")
            object.__setattr__(self, "direction_seeds", tuple(seeds))
        check(isinstance(self.params, SpinSystemParams), "params", "a SpinSystemParams")
        check(self.out_dir is None or isinstance(self.out_dir, (str, os.PathLike)), "out_dir",
              "null or a path")
        check(is_finite(self.delta_t) and self.delta_t > 0, "delta_t",
              "a positive finite number of seconds")
        check(is_int(self.n_steps) and self.n_steps >= 1, "n_steps", "an integer of at least 1")
        check(isinstance(self.write_timing, bool), "write_timing", "true or false")

    def seeds(self) -> tuple:
        return self.direction_seeds if self.direction_seeds else (self.seed,)


@dataclass
class RunReport:
    experiment: str
    rows: list
    summary: dict
    files: dict
    cross_check_max: float
    elapsed_s: float
    version: str = __version__

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": self.rows,
            "summary": self.summary,
            "cross_check_max": self.cross_check_max,
            "version": self.version,
        }


# --- noise injection ---------------------------------------------------------

_EYE_4 = np.eye(4)


def _random_traceless_hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    h -= np.trace(h) / 4 * _EYE_4
    return h / np.linalg.norm(h)


def _small_rotation(rng: np.random.Generator, level: float) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return su2(rng.normal(0.0, level), axis)


def perturb_deviation(dev: DeviationState, level: float,
                      rng: np.random.Generator) -> DeviationState:
    """Model of imperfect preparation: small random local rotations (coherent
    pulse miscalibration, the dominant error) plus a weaker additive traceless
    perturbation scaled to the deviation amplitude (incoherent floor)."""
    a, b = _small_rotation(rng, level), _small_rotation(rng, level)
    # np.kron(a, b) without its per-call shape handling: the same broadcast
    # product, reshaped, so the same bits
    u = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
    delta = u @ dev.delta @ u.conj().T
    delta = (delta + delta.conj().T) / 2.0    # drop the rotation's anti-Hermitian rounding
    scale = np.linalg.norm(dev.delta)
    delta = delta + (level / 4.0) * scale * _random_traceless_hermitian(rng)
    return DeviationState(delta=delta, epsilon=dev.epsilon)


# --- shared pieces -------------------------------------------------------------


def _prepare(kind: str, config: ExperimentConfig, noise_rng) -> DeviationState:
    """The prepared deviation, perturbed when noise is on, checked as a state."""
    level = "pulse" if (config.pulse_level and kind != "CC") else "deviation"
    dev = prepare_deviation(kind, config.params, level=level)
    if config.noise_level is not None:
        dev = perturb_deviation(dev, config.noise_level, noise_rng)
    compose_deviation(dev)
    return dev


def _read_state(state_doc: dict) -> tuple[DeviationState | None, DensityMatrix]:
    """(deviation or None for the Bloch form, state) of a state document."""
    parsed = state_from_json(state_doc)
    if isinstance(parsed, DeviationState):
        return parsed, compose_deviation(parsed)
    return None, parsed


def _witness_with_cross_check(dev: DeviationState, config: ExperimentConfig,
                              include_o4: bool = True):
    """Best witness over the configured direction seeds, cross-checking the
    circuit readouts against the direct expectations for every seed."""
    eps = config.params.epsilon
    table = pulse_step_observables(config.params) if config.pulse_level else STEP_OBSERVABLES
    best = None
    worst_gap = 0.0
    for s in config.seeds():
        direction = sample_direction(s)
        rep = witness_from_expectations(
            run_protocol(dev, direction, table).o, mode="circuit",
            normalization=config.normalization, epsilon=eps, include_o4=include_o4, seed=s)
        direct = witness(dev, direction, mode="direct",
                         normalization=config.normalization, epsilon=eps,
                         include_o4=include_o4, seed=s)
        worst_gap = max(worst_gap, float(np.max(np.abs(rep.o - direct.o))))
        if best is None or rep.w > best.w:
            best = rep
    if worst_gap > CROSS_CHECK_TOL:
        raise CrossCheckFailure(
            f"circuit vs direct readout gap {worst_gap:.3e} exceeds {CROSS_CHECK_TOL}")
    return best, worst_gap


def _write(files: dict, out_dir: str | None, name: str, text: str):
    if out_dir is None:
        return
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    files[name] = str(path)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _finish(report: RunReport, config: ExperimentConfig, files: dict, t0: float) -> RunReport:
    report.elapsed_s = time.perf_counter() - t0
    _write(files, config.out_dir, "report.json", _json_text(report.to_json()))
    if config.write_timing:
        _write(files, config.out_dir, "timing.json",
               _json_text({"elapsed_s": report.elapsed_s}))
    report.files = files
    return report


# --- experiments ----------------------------------------------------------------


def run_fig2(config: ExperimentConfig) -> RunReport:
    """Witness plus expansion-order correlations for the three initial states."""
    t0 = time.perf_counter()
    noise_rng = np.random.default_rng(config.seed)
    rows, files = [], {}
    witness_lines = ["state,W,o1,o2,o3,o4,mode,normalization"]
    corr_lines = ["state_id,I,Q,C,units,theta_a,phi_a,theta_b,phi_b"]
    cross_max = 0.0
    for kind in config.state_kinds:
        dev = _prepare(kind, config, noise_rng)
        rep, gap = _witness_with_cross_check(dev, config)
        cross_max = max(cross_max, gap)
        corr = discord_epsilon(dev)
        rows.append({"state": kind, "witness": rep.to_json(), "correlations": corr.to_json()})
        o = ",".join(f"{v:.12g}" for v in rep.o)
        witness_lines.append(f"{kind},{rep.w:.12g},{o},{rep.mode},{rep.normalization}")
        corr_lines.append(corr.csv_row(kind))
    _write(files, config.out_dir, "witness.csv", "\n".join(witness_lines) + "\n")
    _write(files, config.out_dir, "correlations.csv", "\n".join(corr_lines) + "\n")
    report = RunReport(experiment="fig2", rows=rows, summary={}, files=files,
                       cross_check_max=cross_max, elapsed_s=0.0)
    return _finish(report, config, files, t0)


def run_fig3(config: ExperimentConfig) -> RunReport:
    """Deviation-matrix elements of the prepared states plus their distance
    from the ideal targets."""
    t0 = time.perf_counter()
    noise_rng = np.random.default_rng(config.seed)
    rows, files = [], {}
    element_lines = ["state,row,col,re,im"]
    distance_lines = ["state,normalized_trace_distance"]
    for kind in config.state_kinds:
        dev = _prepare(kind, config, noise_rng)
        ideal = prepare_deviation(kind, config.params)
        dist = normalized_trace_distance(ideal, dev)
        for i in range(4):
            for j in range(4):
                v = dev.delta[i, j]
                element_lines.append(f"{kind},{i},{j},{v.real:.12g},{v.imag:.12g}")
        distance_lines.append(f"{kind},{dist:.12g}")
        rows.append({
            "state": kind,
            "delta_re": dev.delta.real.tolist(),
            "delta_im": dev.delta.imag.tolist(),
            "distance_to_ideal": dist,
        })
    _write(files, config.out_dir, "deviation_elements.csv", "\n".join(element_lines) + "\n")
    _write(files, config.out_dir, "distances.csv", "\n".join(distance_lines) + "\n")
    report = RunReport(experiment="fig3", rows=rows, summary={}, files=files,
                       cross_check_max=0.0, elapsed_s=0.0)
    return _finish(report, config, files, t0)


def run_fig4(config: ExperimentConfig) -> RunReport:
    """Relaxation sweep of the quantum-correlated state: witness and
    correlation quantifiers at t_n = n * delta_t."""
    t0 = time.perf_counter()
    noise_rng = np.random.default_rng(config.seed)
    files = {}
    dev = _prepare("QC", config, noise_rng)
    _, cross_max = _witness_with_cross_check(dev, config, include_o4=False)
    series = dynamics_sweep(dev, config.delta_t, config.n_steps, config.params)
    q0, c0 = series.quantum[0], series.classical[0]
    summary = {
        "first_t_witness_below_bound": series.first_time_below(
            "witness_values", CLASSICALITY_BOUND),
        "first_t_quantum_below_1pct": series.first_time_below("quantum", 0.01 * q0),
        "first_t_classical_below_1pct": series.first_time_below("classical", 0.01 * c0),
        "classicality_bound": CLASSICALITY_BOUND,
    }
    rows = [
        {"t_s": float(series.times[k]), "W": float(series.witness_values[k]),
         "I": float(series.mutual_info[k]), "Q": float(series.quantum[k]),
         "C": float(series.classical[k])}
        for k in range(len(series.times))
    ]
    _write(files, config.out_dir, "dynamics.csv", series.to_csv())
    report = RunReport(experiment="fig4", rows=rows, summary=summary, files=files,
                       cross_check_max=cross_max, elapsed_s=0.0)
    return _finish(report, config, files, t0)


def run_custom(config: ExperimentConfig, state_doc: dict) -> RunReport:
    """Full analysis bundle for a user-supplied state."""
    t0 = time.perf_counter()
    files = {}
    dev, state = _read_state(state_doc)
    eps_corr = None if dev is None else discord_epsilon(dev).to_json()

    direction = sample_direction(config.seed)
    circuit_rep = witness(state, direction, mode="circuit", seed=config.seed)
    direct_rep = witness(state, direction, mode="direct", seed=config.seed)
    gap = float(np.max(np.abs(circuit_rep.o - direct_rep.o)))
    if gap > CROSS_CHECK_TOL:
        raise CrossCheckFailure(f"circuit vs direct gap {gap:.3e}")
    exact = symmetric_discord(state)
    rows = [{
        "witness_circuit": circuit_rep.to_json(),
        "witness_direct": direct_rep.to_json(),
        "exact_correlations": exact.to_json(),
        "epsilon_correlations": eps_corr,
    }]
    corr_lines = ["state_id,I,Q,C,units,theta_a,phi_a,theta_b,phi_b",
                  exact.csv_row("custom")]
    _write(files, config.out_dir, "custom.csv", "\n".join(corr_lines) + "\n")
    report = RunReport(experiment="custom", rows=rows, summary={}, files=files,
                       cross_check_max=gap, elapsed_s=0.0)
    return _finish(report, config, files, t0)


def validate_state_doc(state_doc: dict) -> dict:
    """Parse and validate a state document; raises on any invariant failure."""
    dev, state = _read_state(state_doc)
    return {
        "form": "bloch" if dev is None else "deviation",
        "trace": float(np.trace(state.matrix).real),
        "min_eigenvalue": float(np.linalg.eigvalsh(state.matrix).min()),
        "mutual_information_bits": mutual_information(state),
    }


def run_experiment(config: ExperimentConfig, state_doc: dict | None = None) -> RunReport:
    if config.experiment == "fig2":
        return run_fig2(config)
    if config.experiment == "fig3":
        return run_fig3(config)
    if config.experiment == "fig4":
        return run_fig4(config)
    if config.experiment == "custom":
        if state_doc is None:
            raise ValueError("custom experiment needs a state document")
        return run_custom(config, state_doc)
    raise ValueError(f"unknown experiment {config.experiment!r}")
