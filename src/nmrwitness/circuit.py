"""Gate-level witness protocol for the quantumness of two-qubit correlations.

The nonlinear witness is W = sum_{i<j} |<O_i><O_j>| over the four observables
O_i = sigma_i x sigma_i (i = 1..3) and O_4 = sum_i (z_i sigma_i x I +
w_i I x sigma_i).  Each correlation <O_i> can be read from a single local
x-magnetization after a global rotation and a CNOT: step 1 uses no rotation
(reads sigma_x sigma_x), step 2 rotates both qubits by pi/2 about z (reads
sigma_y sigma_y), step 3 rotates about y (reads sigma_z sigma_z).

The circuit is a set of constants: the step unitaries U_i (STEP_UNITARIES)
and the (16, 3) readout table of A_i = U_i^dag (sigma_x x I) U_i
(STEP_OBSERVABLES), built once.  The readout is the Heisenberg-picture
tr(m A_i); every A_i is traceless, so one read serves rho and the deviation
delta of rho = I/4 + epsilon delta.  ``protocol_state`` keeps the
Schrodinger picture on the unitaries, as an independent check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadIndex, EpsilonMismatch
from .pauli import AXES, SIGMA_X, on_a, su2
from .states import DensityMatrix, DeviationState, from_pauli_table

UNITARITY_TOL = 1e-12

# |<O_4>| <= |z| + |w| = 2; the correlation readouts are bounded by 1
_READOUT_BOUNDS = np.array([1.0, 1.0, 1.0, 2.0])
_READOUT_LIMITS = _READOUT_BOUNDS + 1e-9
_BOUNDS_LIST, _LIMITS_LIST = _READOUT_BOUNDS.tolist(), _READOUT_LIMITS.tolist()

# The pairs i < j of W, in the order (0, 1), (0, 2), ..., (2, 3), of all four
# readouts (include_o4) or of the three correlations.
_PAIRS = {True: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), False: ((0, 1), (0, 2), (1, 2))}

# Protocol step -> (rotation axis, angle) applied to both qubits before the
# CNOT.  The axis for step i is the one that carries sigma_i sigma_i into the
# sigma_x^a readout; note steps 2 and 3 use z and y respectively.
PROTOCOL_ROTATIONS = {1: (None, 0.0), 2: ("z", np.pi / 2), 3: ("y", np.pi / 2)}

# The readout observable sigma_x x I.
_SIGMA_X_A = on_a(SIGMA_X)


@dataclass(frozen=True)
class WitnessDirection:
    """Unit vectors z, w defining the local-magnetization observable O_4."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("z", "w"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.isfinite(v).all():
                raise ValueError(f"{name} has non-finite entries")
            if abs(v @ v - 1.0) > 1e-12:
                raise ValueError(f"{name} must be unit norm, |{name}|^2 = {v @ v}")
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def rotation(axis: str, angle: float) -> np.ndarray:
    """Single-qubit SU(2) rotation exp(-i * angle * sigma_axis / 2)."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if not np.isfinite(angle):
        raise ValueError("angle must be finite")
    return su2(angle, AXES[axis])


def _checked_unitary(u, label: str) -> np.ndarray:
    """u as a read-only complex array once |u u^dag - I| <= UNITARITY_TOL
    entrywise; ValueError naming ``label`` otherwise, also for a NaN or
    infinite entry, whose gap compares False."""
    u = np.array(u, dtype=complex)
    gap = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if not gap <= UNITARITY_TOL:
        raise ValueError(f"{label} is not unitary, |u u^dag - I| = {gap}")
    u.flags.writeable = False
    return u


def _readout_table(unitaries: np.ndarray) -> np.ndarray:
    """The read-only (16, 3) table of A_i = U_i^dag (sigma_x x I) U_i for a
    (3, 4, 4) step stack: tr(m A_i) is the flattened m times column i."""
    u = np.asarray(unitaries)
    table = (u.conj().swapaxes(-1, -2) @ _SIGMA_X_A @ u).swapaxes(-1, -2).reshape(3, 16).T
    table.flags.writeable = False
    return table


# Controlled-NOT with qubit a as control.
CNOT = _checked_unitary([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "CNOT(a->b)")

# U_i = CNOT (R_i x R_i) for steps i = 1, 2, 3, stacked (3, 4, 4), and the
# readout table of their observables A_i.  Constants: the tests check each
# U_i for unitarity once instead of every call.
STEP_UNITARIES = np.array([
    CNOT if axis is None else CNOT @ np.kron(rotation(axis, angle), rotation(axis, angle))
    for axis, angle in PROTOCOL_ROTATIONS.values()])
STEP_UNITARIES.flags.writeable = False
STEP_OBSERVABLES = _readout_table(STEP_UNITARIES)


def protocol_state(rho: DensityMatrix, i: int,
                   unitaries: np.ndarray = STEP_UNITARIES) -> DensityMatrix:
    """xi_i = U_i rho U_i^dag, the state ``step_readout`` reads at step i;
    ``unitaries`` is the (3, 4, 4) step stack whose readout table is
    ``witness``'s ``table``."""
    if i not in PROTOCOL_ROTATIONS:
        raise BadIndex(f"protocol step must be 1, 2 or 3, got {i}")
    u = unitaries[i - 1]
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def readout_sigma_x_a(xi: DensityMatrix) -> float:
    """x-magnetization of qubit a, tr(xi . sigma_x x I), in closed form: the
    four entries of xi that sigma_x x I picks, added in np.trace's order, so
    the bits are those of ``xi.expectation(on_a(SIGMA_X))``."""
    m = xi.matrix.tolist()
    return ((m[0][2] + m[1][3]) + (m[2][0] + m[3][1])).real


def _checked_readouts(o) -> np.ndarray:
    """Readouts <O_1>..<O_4> of one state, shape (4,), or the first k of a
    stack of states, shape (..., k), in units of rho, as a read-only float
    array; ValueError names the first readout over its bound or not a number.
    One state is checked on Python floats, which cost less than numpy calls
    on four numbers."""
    o = np.array(o, dtype=float)
    # "<=", so that a NaN, for which every comparison is False, fails
    if o.shape == (4,):
        for v, limit, bound in zip(o.tolist(), _LIMITS_LIST, _BOUNDS_LIST):
            if not abs(v) <= limit:
                raise ValueError(f"readout {v} exceeds its bound {bound}")
    else:
        within = np.abs(o) <= _READOUT_LIMITS[:o.shape[-1]]
        if not within.all():
            k = np.unravel_index(int(np.argmin(within)), within.shape)
            raise ValueError(f"readout {o[k]} exceeds its bound {_READOUT_BOUNDS[k[-1]]}")
    o.flags.writeable = False
    return o


def _o4(r: np.ndarray, dir: WitnessDirection) -> float:
    """<O_4> = z.a + w.b from one Pauli table."""
    return r[1:, 0] @ dir.z + r[0, 1:] @ dir.w


def sample_direction(seed: int) -> WitnessDirection:
    """Seed-deterministic direction, each vector uniform on the sphere."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(3)
    w = rng.standard_normal(3)
    return WitnessDirection(z=z / np.linalg.norm(z), w=w / np.linalg.norm(w))


def step_readout(m: np.ndarray, table: np.ndarray = STEP_OBSERVABLES) -> np.ndarray:
    """<O_1>..<O_3> = tr(m A_i) of one 4x4 matrix or of a stack (..., 4, 4):
    one product of the flattened (..., 16) matrices with the (16, 3)
    readout ``table`` of A_i = U_i^dag (sigma_x x I) U_i.  Reads rho and
    delta alike; checks nothing."""
    m = np.asarray(m)
    return (m.reshape(*m.shape[:-2], 16) @ table).real


# STEP_OBSERVABLES on the Pauli basis: row 4 mu + nu is tr((s_mu x s_nu) A_i)/4,
# so a flattened Pauli table R times it reads m = from_pauli_table(R).
STEP_PAULI_OBSERVABLES = step_readout(from_pauli_table(np.eye(16).reshape(16, 4, 4)))
STEP_PAULI_OBSERVABLES.flags.writeable = False


@dataclass(frozen=True)
class WitnessReport:
    """Witness value with the underlying observable expectations."""

    w: float
    o: np.ndarray
    mode: str
    normalization: str = "raw"
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "o": [float(v) for v in self.o],
            "W": float(self.w),
            "mode": self.mode,
            "seed": self.seed,
            "normalization": self.normalization,
        }


def witness_sum(
    o: np.ndarray,
    normalization: str = "raw",
    epsilon: float | None = None,
    include_o4: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized readouts and W = sum_{i<j} |o_i o_j| for one readout
    vector (4,) or a stack of them (..., 4); see ``witness`` for the
    options.  ValueError if a readout is NaN or infinite.

    Both paths scale and add the terms left to right, pair by pair, so they
    give the same bits: one vector with Python floats, which cost less than
    numpy calls on four numbers, and a stack one pair column at a time (a
    plain sum may group the terms differently)."""
    o = np.asarray(o, dtype=float)
    if normalization == "thermal":
        if epsilon is None:
            raise ValueError("thermal normalization needs epsilon")
        if not (epsilon > 0 and math.isfinite(epsilon)):
            raise ValueError(f"thermal normalization needs a positive finite epsilon, got {epsilon}")
        scale = float(2.0 * epsilon)
    elif normalization == "raw":
        scale = 1.0
    else:
        raise ValueError(f"unknown normalization {normalization!r}")

    if o.shape == (4,):
        v = [x / scale for x in o.tolist()]
        if not all(map(math.isfinite, v)):
            raise ValueError(f"readouts must be finite, got {v}")
        w = 0.0
        for i, j in _PAIRS[bool(include_o4)]:
            w += abs(v[i] * v[j])
        return np.array(v), np.float64(w)
    o = o / scale
    if not np.isfinite(o).all():
        raise ValueError("readouts must be finite")
    (i, j), *rest = _PAIRS[bool(include_o4)]
    w = np.abs(o[..., i] * o[..., j])
    for i, j in rest:
        w += np.abs(o[..., i] * o[..., j])
    return o, w


def witness(
    state: DensityMatrix | DeviationState,
    dir: WitnessDirection,
    mode: str = "circuit",
    normalization: str = "raw",
    epsilon: float | None = None,
    include_o4: bool = True,
    seed: int | None = None,
    table: np.ndarray = STEP_OBSERVABLES,
) -> WitnessReport:
    """Evaluate the nonlinear witness W >= 0.

    W is 0 on a Bell-diagonal state with at most one nonzero correlation
    and positive on the quantum-correlated targets, but it certifies
    neither way: the tests pin a state whose correlation matrix is off
    diagonal, with W = 0 at every direction tried and nonzero discord, and
    a classical z-basis mixture with zero discord whose W is positive
    through the O_4 terms.

    The state is read once: rho, or the deviation delta of a
    DeviationState, whose traceless readouts are epsilon times delta's.
    ``mode='circuit'`` reads <O_1>..<O_3> = tr(m A_i) with the readout
    ``table`` of a step stack (the ideal gates by default, or
    ``nmr.pulse_step_observables``) and checks each readout against its
    bound (ValueError); ``mode='direct'`` reads the diagonal of the Pauli
    table, ignores ``table`` and checks nothing.  The two correlation reads
    share no code, so comparing them checks the circuit; both modes take
    <O_4> = z.a + w.b from the Pauli table, which a state computes once
    (``state.pauli``) for all its directions and both modes.

    ``normalization='thermal'`` divides every expectation by the thermal
    hydrogen magnetization 2*epsilon (positive and finite) before forming
    the products, matching spectra normalized against the equilibrium
    reference.  A DeviationState carries its epsilon, so ``epsilon`` may be
    left out; a different one raises EpsilonMismatch.  A DensityMatrix
    needs ``epsilon`` for the thermal normalization.  With
    ``include_o4=False`` the O_4 cross terms are dropped, which is the
    three-measurement protocol actually run on Bell-diagonal states (where
    <O_4> vanishes identically).
    """
    if mode not in ("circuit", "direct"):
        raise ValueError(f"mode must be 'circuit' or 'direct', got {mode!r}")
    if isinstance(state, DeviationState):
        if epsilon is None:
            epsilon = state.epsilon
        elif epsilon != state.epsilon:
            raise EpsilonMismatch(f"epsilon {epsilon} vs the deviation's epsilon {state.epsilon}")
        m, scale = state.delta, float(state.epsilon)
    else:
        m, scale = state.matrix, 1.0
    r = state.pauli
    reads = step_readout(m, table) if mode == "circuit" else r.diagonal()[1:]
    o = [x * scale for x in reads.tolist()]
    o.append(float(_o4(r, dir)) * scale)
    if mode == "circuit":
        o = _checked_readouts(o)
    o, w = witness_sum(o, normalization, epsilon, include_o4)
    return WitnessReport(w=float(w), o=o, mode=mode, normalization=normalization, seed=seed)
