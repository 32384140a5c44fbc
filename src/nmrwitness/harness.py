"""Batch experiment runner: emits the reference experiment tables as CSV/JSON.

Each run returns a RunReport and, when an output directory is configured,
writes deterministic files (identical config and seed give byte-identical
output; wall-clock timing is only written when explicitly requested).
"""

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import STEP_OBSERVABLES, sample_direction, witness, witness_range
from .correlations import (
    CorrelationReport,
    discord_epsilon,
    mutual_information,
    symmetric_discord,
)
from .errors import BadDocument, check_config, is_finite, is_int
from .nmr import (
    SpinSystemParams,
    dynamics_sweep,
    prepare_deviation,
    pulse_step_observables,
)
from .pauli import su2_entries
from .states import DeviationState, normalized_trace_distance, state_from_json

CROSS_CHECK_TOL = 1e-8
CLASSICALITY_BOUND = 0.05
# A correlation quantifier counts as decayed below this fraction of its
# t = 0 value (fig4's summary, which scripts/relaxation_study.py reads).
DECAY_FRACTION = 0.01

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
    params: SpinSystemParams = field(default_factory=SpinSystemParams)
    out_dir: str | None = None
    delta_t: float = 0.0557                 # s
    n_steps: int = 12
    write_timing: bool = False

    def __post_init__(self):
        """Type and range checks of every field, each raising BadConfig with
        the field's name; a JSON list of state kinds becomes a tuple."""
        def check(ok: bool, key: str, want: str):
            check_config(ok, key, getattr(self, key), want)

        check(self.experiment in EXPERIMENTS, "experiment", f"one of {', '.join(EXPERIMENTS)}")
        kinds = self.state_kinds
        check(isinstance(kinds, (list, tuple)) and kinds and all(isinstance(k, str) for k in kinds),
              "state_kinds", "a non-empty list of state kind names")
        object.__setattr__(self, "state_kinds", tuple(kinds))
        check(is_int(self.seed) and self.seed >= 0, "seed", "a nonnegative integer")
        check(self.normalization in NORMALIZATIONS, "normalization",
              f"one of {', '.join(NORMALIZATIONS)}")
        level = self.noise_level
        check(level is None or (is_finite(level) and level >= 0),
              "noise_level", "null or a finite nonnegative number")
        check(isinstance(self.pulse_level, bool), "pulse_level", "true or false")
        check(isinstance(self.params, SpinSystemParams), "params", "a SpinSystemParams")
        check(self.out_dir is None or isinstance(self.out_dir, (str, os.PathLike)), "out_dir",
              "null or a path")
        check(is_finite(self.delta_t) and self.delta_t > 0, "delta_t",
              "a positive finite number of seconds")
        check(is_int(self.n_steps) and self.n_steps >= 1, "n_steps", "an integer of at least 1")
        check(isinstance(self.write_timing, bool), "write_timing", "true or false")


@dataclass(frozen=True)
class RunReport:
    experiment: str
    rows: list
    summary: dict
    files: dict
    cross_check_max: float
    elapsed_s: float

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": self.rows,
            "summary": self.summary,
            "cross_check_max": self.cross_check_max,
            "version": __version__,
        }


# --- noise injection ---------------------------------------------------------

_EYE_4 = np.eye(4)


def perturb_deviation(dev: DeviationState, level: float,
                      rng: np.random.Generator) -> DeviationState:
    """Model of imperfect preparation: small random local rotations (coherent
    pulse miscalibration, the dominant error) plus a weaker additive traceless
    perturbation scaled to the deviation amplitude (incoherent floor).
    BadConfig unless ``level`` is finite and nonnegative.

    The draws are one ``rng.standard_normal(40)``, the same stream, and the
    same generator state after it, as drawing them one kind at a time: qubit
    a's rotation axis (3 normals, normalized) and angle (1, times level),
    then qubit b's, then the real and imaginary parts of the 4x4 Gaussian
    matrix whose traceless Hermitian part is the additive term."""
    check_config(is_finite(level) and level >= 0, "noise_level", level,
                 "a finite nonnegative number")
    z = rng.standard_normal(40)
    draws = z.tolist()
    rotations = []
    for k in (0, 4):
        axis = z[k:k + 3]
        norm = math.sqrt(axis.dot(axis))      # np.linalg.norm's own sum, so its bits
        # 0.0 + level * z is rng.normal(0.0, level), signed zero included
        rotations.append(su2_entries(0.0 + level * draws[k + 3],
                                     [v / norm for v in draws[k:k + 3]]))
    a, b = np.array(rotations).reshape(2, 2, 2)
    # np.kron(a, b) without its per-call shape handling: the same broadcast
    # product, reshaped, so the same bits
    u = (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
    delta = u.dot(dev.delta).dot(u.conj().T)
    delta = (delta + delta.conj().T) / 2.0    # drop the rotation's anti-Hermitian rounding
    g = 1j * z[24:]
    g += z[8:24]    # the real part added second: IEEE addition commutes, so the same bits
    g = g.reshape(4, 4)
    h = (g + g.conj().T) / 2
    h -= h.trace() / 4 * _EYE_4
    h /= np.linalg.norm(h)
    delta = delta + (level / 4.0) * np.linalg.norm(dev.delta) * h
    return DeviationState(delta=delta, epsilon=dev.epsilon)


# --- shared pieces -------------------------------------------------------------


def _prepare(kind: str, config: ExperimentConfig, noise_rng) -> DeviationState:
    """The prepared deviation, perturbed when noise is on, checked as a state."""
    level = "pulse" if (config.pulse_level and kind != "CC") else "deviation"
    dev = prepare_deviation(kind, config.params, level=level)
    if config.noise_level is not None:
        dev = perturb_deviation(dev, config.noise_level, noise_rng)
    dev.rho    # NotAState if it is not a state
    return dev


def _witness_with_cross_check(dev: DeviationState, seed: int, table: np.ndarray, normalization: str):
    """(circuit report, direct report, gap) of the witness at the direction of ``seed``, circuit
    mode reading with ``table``; CrossCheckFailure when their largest readout gap, in thermal
    units (a raw gap is divided by 2 epsilon), exceeds CROSS_CHECK_TOL."""
    d = sample_direction(seed)
    circuit = witness(dev, d, "circuit", normalization, seed=seed, table=table)
    direct = witness(dev, d, "direct", normalization, seed=seed)
    gap = float(np.max(np.abs(circuit.o - direct.o)))
    if normalization == "raw":
        gap /= 2.0 * dev.epsilon
    if gap > CROSS_CHECK_TOL:
        raise CrossCheckFailure(f"circuit vs direct readout gap {gap:.3e} exceeds {CROSS_CHECK_TOL}")
    return circuit, direct, gap


def _circuit_table(config: ExperimentConfig) -> np.ndarray:
    """The readout table of the configured witness circuit."""
    return pulse_step_observables(config.params) if config.pulse_level else STEP_OBSERVABLES


def _csv(header: str, rows) -> str:
    """A CSV table: ``header``, then one line per row of ``rows``; a float
    (np.float64 included) is printed to 12 significant digits, anything
    else with str."""
    lines = [header]
    lines += [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


_CORRELATION_HEADER = "state_id,I,Q,C,units,theta_a,phi_a,theta_b,phi_b"


def _correlation_row(state_id: str, rep: CorrelationReport) -> tuple:
    """The _CORRELATION_HEADER row of a CorrelationReport."""
    return (state_id, rep.mutual_info, rep.quantum, rep.classical, rep.units,
            *rep.argmax_basis.angles())


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _report(experiment: str, config: ExperimentConfig, t0: float, tables: dict, rows: list,
            summary: dict, cross_check_max: float) -> RunReport:
    """The run's report.  With an output directory it writes, in this order,
    each table of ``tables`` (file name -> (header, rows), through _csv),
    report.json and, when timing is on, timing.json; elapsed_s is read after
    the tables are written."""
    files = {}
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = [*tables, "report.json", *(["timing.json"] if config.write_timing else [])]
        files = {name: str(out / name) for name in names}
        for name, (header, table_rows) in tables.items():
            (out / name).write_text(_csv(header, table_rows))
    report = RunReport(experiment=experiment, rows=rows, summary=summary, files=files,
                       cross_check_max=cross_check_max, elapsed_s=time.perf_counter() - t0)
    if files:
        Path(files["report.json"]).write_text(_json_text(report.to_json()))
        if config.write_timing:
            Path(files["timing.json"]).write_text(_json_text({"elapsed_s": report.elapsed_s}))
    return report


# --- experiments ----------------------------------------------------------------


def run_fig2(config: ExperimentConfig) -> RunReport:
    """Witness plus expansion-order correlations for the three initial states."""
    t0 = time.perf_counter()
    noise_rng = np.random.default_rng(config.seed)
    rows, witness_rows, corr_rows = [], [], []
    cross_max = 0.0
    for kind in config.state_kinds:
        dev = _prepare(kind, config, noise_rng)
        rep, _, gap = _witness_with_cross_check(dev, config.seed, _circuit_table(config),
                                                config.normalization)
        cross_max = max(cross_max, gap)
        corr = discord_epsilon(dev)
        w_min, w_max = witness_range(dev, rep)
        rows.append({"state": kind, "witness": {**rep.to_json(), "W_min": w_min, "W_max": w_max},
                     "correlations": corr.to_json()})
        witness_rows.append((kind, rep.w, *rep.o, rep.mode, rep.normalization))
        corr_rows.append(_correlation_row(kind, corr))
    tables = {"witness.csv": ("state,W,o1,o2,o3,o4,mode,normalization", witness_rows),
              "correlations.csv": (_CORRELATION_HEADER, corr_rows)}
    return _report("fig2", config, t0, tables, rows, {}, cross_max)


def run_fig3(config: ExperimentConfig) -> RunReport:
    """Deviation-matrix elements of the prepared states plus their distance
    from the ideal targets."""
    t0 = time.perf_counter()
    noise_rng = np.random.default_rng(config.seed)
    rows, element_rows, distance_rows = [], [], []
    for kind in config.state_kinds:
        dev = _prepare(kind, config, noise_rng)
        ideal = prepare_deviation(kind, config.params)
        dist = normalized_trace_distance(ideal, dev)
        element_rows += [(kind, i, j, dev.delta[i, j].real, dev.delta[i, j].imag)
                         for i in range(4) for j in range(4)]
        distance_rows.append((kind, dist))
        rows.append({
            "state": kind,
            "delta_re": dev.delta.real.tolist(),
            "delta_im": dev.delta.imag.tolist(),
            "distance_to_ideal": dist,
        })
    tables = {"deviation_elements.csv": ("state,row,col,re,im", element_rows),
              "distances.csv": ("state,normalized_trace_distance", distance_rows)}
    return _report("fig3", config, t0, tables, rows, {}, 0.0)


def run_fig4(config: ExperimentConfig) -> RunReport:
    """Relaxation sweep of the quantum-correlated state: witness and
    correlation quantifiers at t_n = n * delta_t."""
    t0 = time.perf_counter()
    noise_rng = np.random.default_rng(config.seed)
    dev = _prepare("QC", config, noise_rng)
    *_, cross_max = _witness_with_cross_check(dev, config.seed, _circuit_table(config),
                                              config.normalization)
    series = dynamics_sweep(dev, config.delta_t, config.n_steps, config.params)
    q0, c0 = series.quantum[0], series.classical[0]
    summary = {
        "first_t_witness_below_bound": series.first_time_below(
            "witness_values", CLASSICALITY_BOUND),
        "first_t_quantum_below_1pct": series.first_time_below("quantum", DECAY_FRACTION * q0),
        "first_t_classical_below_1pct": series.first_time_below("classical",
                                                                 DECAY_FRACTION * c0),
        "classicality_bound": CLASSICALITY_BOUND,
    }
    columns = ("t_s", "W", "I", "Q", "C")
    table = [tuple(map(float, r)) for r in zip(series.times, series.witness_values,
                                                series.mutual_info, series.quantum,
                                                series.classical)]
    rows = [dict(zip(columns, r)) for r in table]
    tables = {"dynamics.csv": (",".join(columns), table)}
    return _report("fig4", config, t0, tables, rows, summary, cross_max)


def run_custom(config: ExperimentConfig, state_doc: dict) -> RunReport:
    """Full analysis of one state document, read as a deviation: the witness,
    raw, through the ideal circuit, at the document's epsilon and the direction
    of ``config.seed``, with its range over all directions, and the discord."""
    t0 = time.perf_counter()
    dev = state_from_json(state_doc)
    eps_corr = None if "bloch" in state_doc else discord_epsilon(dev).to_json()

    circuit, direct, gap = _witness_with_cross_check(dev, config.seed, STEP_OBSERVABLES, "raw")
    exact = symmetric_discord(dev.rho)
    w_min, w_max = witness_range(dev, circuit)
    rows = [{
        "witness_circuit": {**circuit.to_json(), "W_min": w_min, "W_max": w_max},
        "witness_direct": direct.to_json(),
        "exact_correlations": exact.to_json(),
        "epsilon_correlations": eps_corr,
    }]
    tables = {"custom.csv": (_CORRELATION_HEADER, [_correlation_row("custom", exact)])}
    return _report("custom", config, t0, tables, rows, {}, gap)


def validate_state_doc(state_doc: dict) -> dict:
    """Parse and validate a state document; raises on any invariant failure."""
    rho = state_from_json(state_doc).rho
    return {
        "form": "bloch" if "bloch" in state_doc else "deviation",
        "trace": float(np.trace(rho.matrix).real),
        "min_eigenvalue": float(np.linalg.eigvalsh(rho.matrix).min()),
        "mutual_information_bits": mutual_information(rho),
    }


def run_experiment(config: ExperimentConfig, state_doc: dict | None = None) -> RunReport:
    if config.experiment == "fig2":
        return run_fig2(config)
    if config.experiment == "fig3":
        return run_fig3(config)
    if config.experiment == "fig4":
        return run_fig4(config)
    # custom, the one experiment left: ExperimentConfig rejects any other
    if state_doc is None:
        raise BadDocument("custom experiment needs a state document")
    return run_custom(config, state_doc)
