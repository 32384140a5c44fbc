"""Pulse-level simulation of the two-spin (1H, 13C) experiment.

Covers the on-resonance rotating-frame dynamics (J coupling plus rf pulses),
the composite z-rotation and CNOT sequences, gradient dephasing, T1/T2*
relaxation channels, preparation of the documented initial states at both
deviation and pulse level, and the relaxation sweep that traces the witness
and the correlation quantifiers over time.  Preparation works on the
deviation delta of rho = I/4 + epsilon delta, and the sweep on its Pauli
table, never composing rho to extract delta back.

Pulse sequences are stored in time order (first event acts first).  The rf
convention is exp(-i * angle * (cos(phase) sx + sin(phase) sy) / 2); under it
the nine-pulse CNOT sequence reproduces the ideal gate exactly when read in
time order, while the three-pulse z-rotation must be read as an operator
product (reversed time order) to give R_z(+pi/2) rather than its inverse.

The pulse programs are module constants (``CNOT_EVENTS``,
``Z_ROTATION_EVENTS``, ``PSEUDO_PURE_11_EVENTS``, ``PSEUDO_EPR_EVENTS``).
``_segments`` folds each gradient-free run of a program into one checked,
read-only unitary.  The preparations run the folded program on the thermal
deviation (``_run``), the witness steps take the unitary of gradient-free
programs (``sequence_propagator``), and ``apply_sequence`` runs a program
on a DensityMatrix.  The products that callers repeat are cached read-only
constants: of (params, model), the pulse-level deviation of each prepared
kind and its state, the three pulse-level witness steps (with the checked
composite CNOT) and their readout table; of (kind, epsilon), the ideal
deviation of each kind but thermal and its state.  Instantaneous pulses are
closed-form SU(2) rotations; only the finite pulse model exponentiates a
Hermitian generator, by ``np.linalg.eigh`` (``_expi``).
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import (
    CNOT,
    STEP_PAULI_OBSERVABLES,
    ProtocolReadout,
    _checked_unitary,
    _readout_table,
    protocol_state,
    witness_sum,
)
from .correlations import epsilon_correlations
from .errors import EpsilonMismatch, SequenceMismatch, UnknownKind, check_config, is_finite
from .pauli import (
    IDENTITY_2,
    IDENTITY_4,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_vector_to_op,
    on_a,
    on_b,
    su2,
)
from .states import (
    DEFAULT_EPSILON,
    DensityMatrix,
    DeviationState,
    compose_deviation,
    from_pauli_table,
    pauli_table,
    trace_norm,
    validate_deviations,
    validate_states,
)


@dataclass(frozen=True)
class SpinSystemParams:
    """Measured constants of the chloroform two-spin system."""

    j_coupling: float = 215.1          # Hz
    t1_h: float = 2.5                  # s
    t1_c: float = 7.0                  # s
    t2s_h: float = 0.31                # s, effective transverse (line width)
    t2s_c: float = 0.12                # s
    pulse_pi2_h: float = 7.4e-6        # s
    pulse_pi2_c: float = 9.6e-6        # s
    epsilon: float = DEFAULT_EPSILON
    gamma_ratio: float = 3.98          # omega_H / omega_C

    def __post_init__(self):
        """Every field a positive finite number; each failure raises
        BadConfig naming the field."""
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            check_config(is_finite(v) and v > 0, f"params.{f.name}", v, "a positive finite number")
        # T2* is the total transverse rate; it cannot be slower than the
        # longitudinal contribution alone.
        check_config(self.t2s_h <= 2 * self.t1_h, "params.t2s_h", self.t2s_h, "at most 2 * t1_h")
        check_config(self.t2s_c <= 2 * self.t1_c, "params.t2s_c", self.t2s_c, "at most 2 * t1_c")


@dataclass(frozen=True)
class PulseEvent:
    """One step of a pulse program: an rf pulse, a J-coupling delay, or a
    z-gradient crusher."""

    kind: str                          # rf | delay | gradient
    channel: str = "H"                 # rf only: H | C | both
    angle: float = 0.0                 # rad, rf only
    phase: float = 0.0                 # rad, rf axis azimuth
    j_units: float = 0.0               # delay length in units of 1/J

    def __post_init__(self):
        if self.kind not in ("rf", "delay", "gradient"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not (math.isfinite(self.phase) and math.isfinite(self.j_units)):
            raise ValueError(f"phase and j_units must be finite, got {self.phase}, {self.j_units}")
        if self.kind == "rf":
            if self.channel not in ("H", "C", "both"):
                raise ValueError(f"unknown channel {self.channel!r}")
            if not 0.0 < self.angle <= 2 * np.pi:
                raise ValueError(f"rf angle must be in (0, 2pi], got {self.angle}")
        if self.kind == "delay" and self.j_units < 0:
            raise ValueError("delay must be nonnegative")


def rf(channel: str, angle: float, phase: float) -> PulseEvent:
    return PulseEvent(kind="rf", channel=channel, angle=angle, phase=phase)


def delay(j_units: float) -> PulseEvent:
    return PulseEvent(kind="delay", j_units=j_units)


def gradient() -> PulseEvent:
    return PulseEvent(kind="gradient")


@dataclass(frozen=True)
class DynamicsSeries:
    """Witness and correlation quantifiers along a relaxation sweep."""

    times: np.ndarray                  # s
    witness_values: np.ndarray
    mutual_info: np.ndarray            # (epsilon^2/ln2) bit
    quantum: np.ndarray
    classical: np.ndarray
    deviations: tuple

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        for name in ("times", "witness_values", "mutual_info", "quantum", "classical"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def first_time_below(self, series: str, threshold: float) -> float | None:
        values = getattr(self, series)
        below = np.nonzero(values < threshold)[0]
        return float(self.times[below[0]]) if below.size else None


# --- coherent dynamics -------------------------------------------------------


def _drift_diagonal(params: SpinSystemParams) -> np.ndarray:
    """Diagonal of the on-resonance drift Hamiltonian, the J coupling
    2 pi J Iz Iz."""
    return 2 * np.pi * params.j_coupling / 4.0 * np.array([1.0, -1.0, -1.0, 1.0])


def free_evolution_propagator(tau: float, params: SpinSystemParams) -> np.ndarray:
    """exp(-i H_drift tau); the drift is diagonal, so no matrix exponential."""
    return np.diag(np.exp(-1j * _drift_diagonal(params) * tau))


def _rf_axis(phase: float) -> tuple:
    """Unit Bloch vector of the rf field at azimuth ``phase``."""
    return (np.cos(phase), np.sin(phase), 0.0)


def _expi(h: np.ndarray) -> np.ndarray:
    """exp(-i h) of a Hermitian h, as V diag(exp(-i w)) V^dag from eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def rf_propagator(event: PulseEvent, params: SpinSystemParams, model: str = "instantaneous") -> np.ndarray:
    """4x4 unitary for an rf pulse.

    The instantaneous model is the ideal rotation.  The finite model
    integrates rf and J coupling together over the calibrated duration,
    the channel's pi/2 time scaled by angle / (pi/2) (channels of a 'both'
    pulse are played back to back): exp(-i t_p (H_rf + H_J)) of the
    Hermitian generator, by ``_expi``.
    """
    if event.kind != "rf":
        raise ValueError("not an rf event")
    if model == "instantaneous":
        r = su2(event.angle, _rf_axis(event.phase))
        if event.channel == "H":
            return on_a(r)
        if event.channel == "C":
            return on_b(r)
        return np.kron(r, r)
    if model != "finite":
        raise ValueError(f"unknown pulse model {model!r}")

    def one_channel(channel: str) -> np.ndarray:
        pi2 = params.pulse_pi2_h if channel == "H" else params.pulse_pi2_c
        t_p = pi2 * event.angle / (np.pi / 2)
        omega1 = event.angle / t_p
        h_rf = omega1 * bloch_vector_to_op(_rf_axis(event.phase)) / 2.0
        h_rf = on_a(h_rf) if channel == "H" else on_b(h_rf)
        return _expi(t_p * (h_rf + np.diag(_drift_diagonal(params))))

    if event.channel == "both":
        return one_channel("C") @ one_channel("H")
    return one_channel(event.channel)


def _frozen(u: np.ndarray) -> np.ndarray:
    u.flags.writeable = False
    return u


def _segments(events, params: SpinSystemParams, model: str) -> tuple:
    """A pulse program as its folded segments, in time order: one read-only
    4x4 unitary per gradient-free run of events and None per gradient.
    Each folded unitary passes ``circuit._checked_unitary`` (ValueError
    otherwise, also for a NaN entry)."""
    out = []
    for ev in events:
        if ev.kind == "gradient":
            out.append(None)
            continue
        if ev.kind == "rf":
            step = rf_propagator(ev, params, model)
        else:
            step = free_evolution_propagator(ev.j_units / params.j_coupling, params)
        if out and out[-1] is not None:
            out[-1] = step @ out[-1]
        else:
            out.append(step)
    return tuple(u if u is None else _checked_unitary(u, "pulse program segment") for u in out)


def _run(m: np.ndarray, segments: tuple) -> np.ndarray:
    """m after the folded ``_segments``: u m u^dag per unitary, the diagonal
    per gradient.  Each is linear and fixes I/4, so it serves rho and delta
    alike; it checks nothing."""
    for u in segments:
        m = np.diag(np.diag(m)) if u is None else u @ m @ u.conj().T
    return m


def sequence_propagator(events, params: SpinSystemParams,
                        model: str = "instantaneous") -> np.ndarray:
    """Net unitary of a gradient-free pulse program (time-ordered events),
    a checked read-only array, folded anew on each call."""
    segments = _segments(events, params, model)
    if any(u is None for u in segments):
        raise ValueError("gradient events have no unitary propagator")
    return segments[0] if segments else _frozen(IDENTITY_4.copy())


def apply_sequence(rho: DensityMatrix, events, params: SpinSystemParams,
                   model: str = "instantaneous") -> DensityMatrix:
    """Run a pulse program on rho: each folded gradient-free segment is
    applied once and each gradient dephases (``_run``), with one state check
    of the result.  A unitary or dephasing map of a state is a state, and
    ``_segments`` checks each segment's unitarity."""
    return DensityMatrix(_run(rho.matrix, _segments(events, params, model)))


def propagator_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(U^dag V)| / d, insensitive to global phase."""
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) / d)


# --- composite gates ---------------------------------------------------------

_PX, _PY, _PMX, _PMY = 0.0, np.pi / 2, np.pi, -np.pi / 2

# Composite pi/2 z rotation on each channel, (pi/2)_-y (pi/2)_x (pi/2)_y
# read as an operator product (rightmost pulse first), realizing R_z(+pi/2).
Z_ROTATION_EVENTS = {
    channel: (rf(channel, np.pi / 2, _PY), rf(channel, np.pi / 2, _PX), rf(channel, np.pi / 2, _PMY))
    for channel in ("H", "C")
}

# Composite CNOT (a control): C pulses around a 3/2J evolution, then the
# z-rotation block on H.
CNOT_EVENTS = (
    rf("C", np.pi / 2, _PY),
    delay(1.5),
    rf("C", np.pi / 2, _PMX),
    rf("C", np.pi / 2, _PMY),
    rf("C", np.pi / 2, _PMX),
    rf("C", np.pi / 2, _PY),
    rf("H", np.pi / 2, _PMY),
    rf("H", np.pi / 2, _PX),
    rf("H", np.pi / 2, _PY),
)


# --- relaxation ---------------------------------------------------------------


def _relax_maps(times: list, params: SpinSystemParams) -> np.ndarray:
    """(2, N, 4, 4) affine maps M_H(t), M_C(t) on each qubit's Pauli
    components (1, x, y, z): generalized amplitude damping toward the
    thermal polarization z_eq at rate 1/T1, plus the extra dephasing that
    makes the total transverse decay rate exactly 1/T2*."""
    eps = params.epsilon
    qubits = ((params.t1_h, params.t2s_h, 2 * eps),
              (params.t1_c, params.t2s_c, 2 * eps / params.gamma_ratio))
    m = np.zeros((2, len(times), 4, 4))
    m[..., 0, 0] = 1.0
    for mq, (t1, t2s, z_eq) in zip(m, qubits):
        # math.exp: numpy's vectorized exp differs from it in the last bit
        # for about one argument in twenty.
        e1 = [math.exp(-t / t1) for t in times]
        mq[:, 1, 1] = mq[:, 2, 2] = [math.exp(-t / t2s) for t in times]
        mq[:, 3, 0] = [(1.0 - e) * z_eq for e in e1]
        mq[:, 3, 3] = e1
    return m


def _relaxed_table(m: np.ndarray, times, params: SpinSystemParams, identity: float) -> np.ndarray:
    """The Pauli table R of the 4x4 matrix m relaxed for each time of
    ``times``, as one real (N, 4, 4) stack R' = M_H(t) R M_C(t)^T.  The
    affine term acts on the identity weight R[0, 0] = ``identity``: 1 for
    rho, 1/epsilon for the delta of rho = I/4 + epsilon delta (whose table
    has none); the result keeps m's own R[0, 0]."""
    times = np.asarray(times, dtype=float)
    if not np.all(times >= 0):
        raise ValueError(f"t must be nonnegative, got {times}")
    m_h, m_c = _relax_maps(times.tolist(), params)
    r = pauli_table(m)
    trace, r[0, 0] = r[0, 0], identity
    r = m_h @ r @ m_c.swapaxes(-1, -2)
    r[:, 0, 0] = trace
    return r


def relax(rho: DensityMatrix, t: float, params: SpinSystemParams) -> DensityMatrix:
    """Independent per-qubit T1/T2* relaxation for a time t, applied to the
    Pauli table as R' = M_H R M_C^T."""
    if t == 0:
        return rho
    return DensityMatrix(from_pauli_table(_relaxed_table(rho.matrix, [t], params, 1.0))[0])


# --- state preparation --------------------------------------------------------


def thermal_deviation(params: SpinSystemParams) -> np.ndarray:
    """Deviation of the equilibrium state: the heteronuclear Boltzmann form
    (sz x I + I x sz / gamma) / 2 with the hydrogen term setting the scale."""
    return (on_a(SIGMA_Z) + on_b(SIGMA_Z) / params.gamma_ratio) / 2.0


def relaxation_fixed_point(params: SpinSystemParams) -> DensityMatrix:
    """Product of the per-qubit thermal states, the exact stationary state of
    ``relax``; differs from the linear thermal form only at order epsilon^2."""
    eps = params.epsilon
    qubit_h = IDENTITY_2 / 2 + eps * SIGMA_Z
    qubit_c = IDENTITY_2 / 2 + (eps / params.gamma_ratio) * SIGMA_Z
    return DensityMatrix(np.kron(qubit_h, qubit_c))


_IDEAL_DEVIATIONS = {
    "QC": _frozen((2 * np.kron(SIGMA_X, SIGMA_X) + 2 * np.kron(SIGMA_Y, SIGMA_Y)
                   - 2 * np.kron(SIGMA_Z, SIGMA_Z)) / 4.0),
    "CC": _frozen(np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex)),   # -sz x sz
    "pseudo_pure_11": _frozen(np.diag([-0.5, -0.5, -0.5, 1.5]).astype(complex)),   # 2 (|11><11| - I/4)
}

# Spatial averaging keeps 1/4 of the thermal hydrogen amplitude (the 5pi/12 and
# -pi/12 effective tips multiply to cos products of exactly 1/4 for a 4:1
# gyromagnetic ratio); readout normalization against the equilibrium spectrum
# absorbs that factor.
PP_CALIBRATION = 4.0
PULSE_PREP_TOLERANCE = 0.02


def ideal_deviation(kind: str, params: SpinSystemParams) -> np.ndarray:
    """Target deviation matrix for one of the documented state kinds (a
    shared read-only array except for the thermal kind)."""
    if kind == "thermal":
        return thermal_deviation(params)
    if kind in _IDEAL_DEVIATIONS:
        return _IDEAL_DEVIATIONS[kind]
    raise UnknownKind(f"unknown state kind {kind!r}")


# Spatial-averaging preparation of the |11> pseudo-pure state: composite
# 5pi/12 tip on H, J evolution split into two 1/4J delays, a composite -pi/12
# y tip, a crusher gradient, then pi flips on both spins to move the
# pseudo-pure population from |00> to |11>.
PSEUDO_PURE_11_EVENTS = (
    rf("H", np.pi / 4, _PX),
    rf("H", np.pi / 6, _PX),
    delay(0.25),
    delay(0.25),
    rf("H", np.pi / 6, _PY),
    rf("H", np.pi / 4, _PMY),
    gradient(),
    rf("H", np.pi, _PX),
    rf("C", np.pi, _PX),
)

# Pseudo-EPR gate: a -y half-pulse on H followed by the composite CNOT,
# carrying |11> onto the triplet Bell state (|01>+|10>)/sqrt(2).
PSEUDO_EPR_EVENTS = (rf("H", np.pi / 2, _PMY), *CNOT_EVENTS)

# The program of each kind with a pulse-level preparation.
_PREPARATIONS = {"pseudo_pure_11": PSEUDO_PURE_11_EVENTS,
                 "QC": PSEUDO_PURE_11_EVENTS + PSEUDO_EPR_EVENTS}


@functools.lru_cache(maxsize=64)
def _pulse_prepared(kind: str, params: SpinSystemParams, model: str, composed: bool):
    """The checked pulse-level deviation of ``kind``, or its state if
    ``composed``, a cached read-only constant; lru_cache keeps no exception,
    so a failure raises every call."""
    if composed:
        return compose_deviation(_pulse_prepared(kind, params, model, False))
    thermal = DeviationState(delta=thermal_deviation(params), epsilon=params.epsilon)
    compose_deviation(thermal)   # NotAState if epsilon admits no thermal state
    delta = _run(thermal.delta, _segments(_PREPARATIONS[kind], params, model))
    delta = PP_CALIBRATION * delta
    dist = trace_norm(delta - _IDEAL_DEVIATIONS[kind]) / 2
    if dist > PULSE_PREP_TOLERANCE:
        raise SequenceMismatch(f"pulse-level {kind} preparation misses target by {dist:.4f}")
    return DeviationState(delta=delta, epsilon=params.epsilon)


@functools.lru_cache(maxsize=64)
def _ideal_prepared(kind: str, epsilon: float, composed: bool):
    """As ``_pulse_prepared`` for the ideal kinds but thermal, keyed by
    epsilon alone: the T2* variants of a sweep study share one entry."""
    dev = DeviationState(delta=_IDEAL_DEVIATIONS[kind], epsilon=epsilon)
    return compose_deviation(dev) if composed else dev


def _prepared(kind: str, params: SpinSystemParams | None, level: str, model: str, composed: bool):
    """``prepare_deviation``, or ``prepare_state`` if ``composed``."""
    params = params or SpinSystemParams()
    if level not in ("deviation", "pulse"):
        raise ValueError(f"unknown level {level!r}")
    if kind == "CC" and level == "pulse":
        raise UnknownKind("CC has no pulse-level preparation; use level='deviation'")
    if level == "pulse" and kind in _PREPARATIONS:
        return _pulse_prepared(kind, params, model, composed)
    if kind in _IDEAL_DEVIATIONS:
        return _ideal_prepared(kind, params.epsilon, composed)
    dev = DeviationState(delta=ideal_deviation(kind, params), epsilon=params.epsilon)
    return compose_deviation(dev) if composed else dev


def prepare_deviation(kind: str, params: SpinSystemParams | None = None,
                      level: str = "deviation", model: str = "instantaneous") -> DeviationState:
    """The deviation of a documented initial state: the ideal target at
    deviation level; at pulse level the preparation program run on the
    thermal deviation and checked against the target (CC has no program).
    Every kind but thermal is a cached read-only constant."""
    return _prepared(kind, params, level, model, False)


def prepare_state(kind: str, params: SpinSystemParams | None = None,
                  level: str = "deviation", model: str = "instantaneous") -> DensityMatrix:
    """I/4 + epsilon * ``prepare_deviation(kind, params, level, model)``,
    cached as the deviation is; raises NotAState if epsilon is too large
    for it."""
    return _prepared(kind, params, level, model, True)


# --- pulse-level witness circuit ----------------------------------------------


@functools.lru_cache(maxsize=64)
def pulse_step_unitaries(params: SpinSystemParams, model: str = "instantaneous") -> np.ndarray:
    """The witness circuit steps realized with the experimental pulse
    sequences, as a cached read-only (3, 4, 4) stack U_i = CNOT_composite .
    step_i: step 1 is the CNOT alone, step 2 the composite z rotations on H
    then C, step 3 a direct y rf pulse on both spins.  It raises
    SequenceMismatch when the composite CNOT's fidelity to the ideal gate is
    below 1 - 1e-6 (instantaneous pulses) or 0.999 (finite pulses); lru_cache
    keeps no exception, so a bad calibration fails on every call.
    ``pulse_protocol_state`` applies one step; ``pulse_step_observables`` is
    its readout table."""
    u_cnot = sequence_propagator(CNOT_EVENTS, params, model)
    threshold = 1 - 1e-6 if model == "instantaneous" else 0.999
    fid = propagator_fidelity(u_cnot, CNOT)
    if fid < threshold:
        raise SequenceMismatch(f"composite CNOT fidelity {fid} below {threshold}")
    z_h = sequence_propagator(Z_ROTATION_EVENTS["H"], params, model)
    z_c = sequence_propagator(Z_ROTATION_EVENTS["C"], params, model)
    y = sequence_propagator([rf("both", np.pi / 2, _PY)], params, model)
    return _frozen(np.array([u_cnot, u_cnot @ (z_c @ z_h), u_cnot @ y]))


@functools.lru_cache(maxsize=64)
def pulse_step_observables(params: SpinSystemParams, model: str = "instantaneous") -> np.ndarray:
    """The cached read-only (16, 3) readout table of ``pulse_step_unitaries``,
    which ``circuit.run_protocol`` reads like the ideal ``STEP_OBSERVABLES``."""
    return _readout_table(pulse_step_unitaries(params, model))


def pulse_protocol_state(rho: DensityMatrix, i: int, params: SpinSystemParams,
                         model: str = "instantaneous") -> DensityMatrix:
    """One witness circuit step of ``pulse_step_unitaries``, xi_i =
    U_i rho U_i^dag."""
    return protocol_state(rho, i, pulse_step_unitaries(params, model))


# --- relaxation sweep ----------------------------------------------------------


def dynamics_sweep(state0: DeviationState | DensityMatrix, delta_t: float, n_steps: int,
                   params: SpinSystemParams) -> DynamicsSeries:
    """Relax for t_n = n * delta_t, n = 0..n_steps-1, and at each point run
    the witness protocol (three-readout Bell-diagonal form, normalized to the
    thermal amplitude) and the expansion-order correlation quantifiers.

    It runs on the relaxed (N, 4, 4) Pauli table R of delta at
    ``params.epsilon``: ``state0`` is a DeviationState at that epsilon
    (EpsilonMismatch otherwise), kept as the t = 0 member, or a
    DensityMatrix, whose relaxed table is divided by epsilon with the
    identity weight set to zero.  The deviations are composed from R once;
    the circuit readout of <O_1>..<O_3> and one batched SVD of the blocks
    T = R[:, 1:, 1:] read R itself; each check (deviations, positivity of
    I/4 + epsilon delta, readout bounds) runs once over the stack.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if not (delta_t > 0 and math.isfinite(delta_t)):
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
    eps = params.epsilon
    times = np.arange(n_steps) * delta_t
    if isinstance(state0, DensityMatrix):
        r = _relaxed_table(state0.matrix, times, params, 1.0) / eps
        r[:, 0, 0] = 0.0
        deltas = from_pauli_table(r)
    elif state0.epsilon != eps:
        raise EpsilonMismatch(f"deviation epsilon {state0.epsilon} vs params.epsilon {eps}")
    else:
        r = _relaxed_table(state0.delta, times, params, 1.0 / eps)
        deltas = from_pauli_table(r)
        deltas[0] = state0.delta
    deltas = validate_deviations(deltas, eps)
    validate_states(IDENTITY_4 / 4.0 + eps * deltas)   # a check only; no value is read from rho
    o = ProtocolReadout(o=eps * (r.reshape(n_steps, 16) @ STEP_PAULI_OBSERVABLES)).o
    _, w = witness_sum(o, normalization="thermal", epsilon=eps, include_o4=False)
    iqc = epsilon_correlations(r[:, 1:, 1:])
    return DynamicsSeries(
        times=times,
        witness_values=w,
        mutual_info=iqc[:, 0],
        quantum=iqc[:, 1],
        classical=iqc[:, 2],
        deviations=DeviationState.views(deltas, eps),
    )
