"""Two-qubit state representations: density matrices, high-temperature
deviation states, Bloch-coefficient specs, and classically correlated mixtures.

All types are immutable after construction and validate their invariants
eagerly, so anything downstream can assume it holds a physical state.  A
state computes its derived values once, on first read, and keeps them
read-only for every reader: ``pauli`` (the Pauli table) and, on a
DeviationState, ``rho`` (the checked state).

The validators pick their fast pass by shape: one 4x4 matrix is read as
Python complex numbers from a single ``tolist()``, which costs less than
numpy calls on sixteen entries; a stack is read by one fused numpy pass.
Either way only a pass that settles every check accepts at once, and
anything else falls through to the same per-condition checks and messages.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadDistribution, BadDocument, EpsilonMismatch, NotAState, is_real
from .pauli import IDENTITY_2, IDENTITY_4, SIGMA

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# Eigenvalues above this are accepted as nonnegative; states failing the bound
# are rejected rather than projected back onto the PSD cone.
PSD_TOL = -1e-10

DEFAULT_EPSILON = 1e-5

# The maximally mixed state I/4, the rho of a zero deviation.
_MIXED = IDENTITY_4 / 4.0

# s_mu x s_nu for mu, nu = 0..3 (s_0 = I), flattened mu-major to (16, 4, 4).
_PAULI_BASIS = np.array([np.kron(p, q) for p in (IDENTITY_2, *SIGMA)
                        for q in (IDENTITY_2, *SIGMA)])
# Row k is the transposed basis element k, flattened: one matmul with a
# flattened matrix gives all 16 traces.  The matmul, unlike an einsum over the
# (16, 4, 4) basis, leaves exact zeros where the traces cancel (a_z of the
# ideal QC state).
_TRACE_ROWS = _PAULI_BASIS.transpose(0, 2, 1).reshape(16, 16)


def _linear_reads(m: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of m_ij - conj(m_ji) for i <= j (the
    Hermiticity residuals; each one below the diagonal mirrors one above it)
    and of the trace, of one 4x4 complex matrix: 22 numbers, linear in the
    real and imaginary parts of m."""
    upper = (m - m.conj().T)[np.triu_indices(4)]
    tr = np.trace(m)
    return np.concatenate([upper.real, upper.imag, [tr.real, tr.imag]])


# _linear_reads as a (32, 22) matrix acting on the (..., 32) real view of a
# stack (row k is the reads of the matrix whose real view is the k-th unit
# vector), and the reads of a valid state, which differ from those of a valid
# deviation matrix (all zero) only in the real trace.
_CHECK_COLUMNS = np.array([_linear_reads(e.view(complex).reshape(4, 4)) for e in np.eye(32)])
_UNIT_TRACE = _linear_reads(_MIXED)

# Both parts of every linear read within half the smaller tolerance put the
# Hermiticity gap |m_ij - conj(m_ji)| and the trace error within 1/sqrt(2) of
# their tolerances, far beyond rounding: the per-condition checks would pass.
_LINEAR_TOL = min(HERMITICITY_TOL, TRACE_TOL) / 2

# Positivity certificate (Gershgorin).  eigvalsh reads the lower triangle, so
# it diagonalizes a Hermitian L whose off-diagonal entries each differ from
# m's by at most the Hermiticity gap.  Hence, with |m_ii| >= Re m_ii,
#   lambda_min(L) >= min_i (Re m_ii - sum_{j != i} |L_ij|)
#                 >= min_i (2 Re m_ii - sum_j |m_ij|) - 3 HERMITICITY_TOL,
# and a bound of PSD_TOL + 4 HERMITICITY_TOL leaves HERMITICITY_TOL for the
# rounding of eigvalsh and of the bound (about 1e-15 for a matrix that passes,
# whose entries are then at most about 1).
_CERTIFICATE_BOUND = PSD_TOL + 4 * HERMITICITY_TOL
_ONES = np.ones(4)

# Flat indices (4i + j, 4j + i) of m_ij and m_ji for i <= j.
_UPPER_PAIRS = tuple((4 * i + j, 4 * j + i) for i in range(4) for j in range(i, 4))


def _first_bad(bad: np.ndarray):
    """Index of the first flagged member of a stack (() for a single
    matrix), or None when no member is flagged."""
    if not bad.any():
        return None
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


def _where(k: tuple) -> str:
    k = tuple(int(i) for i in k)
    return f" (matrix {k[0] if len(k) == 1 else k} of the stack)" if k else ""


def _as_stack(m: np.ndarray, error: type, name: str) -> np.ndarray:
    """``m`` as a new complex (..., 4, 4) array, owned by the caller."""
    m = np.array(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise error(f"expected a 4x4 {name}, got shape {m.shape}")
    return m


def _within_tolerances(m: np.ndarray, unit_trace: bool, certify: bool = False) -> tuple:
    """The fast pass of both validators, chosen by shape: one 4x4 matrix on
    Python scalars, a stack by the fused numpy pass.  Returns (within,
    certified): ``within`` True means the per-condition checks pass (with
    trace 1 if ``unit_trace``, else 0); ``certified`` is the Gershgorin
    certificate of ``_positivity_certified`` if ``certify`` and ``within``
    (else False, and eigvalsh decides).  An empty stack fails both."""
    if m.shape == (4, 4):
        return _one_within_tolerances(m, float(unit_trace), certify)
    return _stack_within_tolerances(m, _UNIT_TRACE if unit_trace else 0.0, certify)


def _one_within_tolerances(m: np.ndarray, trace: float, certify: bool) -> tuple:
    """The fused pass on one matrix, read as Python complex numbers: the
    same reads against the same _LINEAR_TOL and the same certificate.  The
    trace adds as np.trace does, (m00 + m11) + (m22 + m33), so near the
    float limit it reads what the per-condition check reads.  Python floats
    print no warnings: a NaN fails every "<=" (inf - inf is one), and an
    abs() that overflows raises OverflowError, which leaves the matrix
    uncertified."""
    f = m.ravel().tolist()
    for p, q in _UPPER_PAIRS:
        a, b = f[p], f[q]
        # the real and imaginary parts of m_ij - conj(m_ji)
        if not (abs((a - b).real) <= _LINEAR_TOL and abs((a + b).imag) <= _LINEAR_TOL):
            return False, False
    tr = (f[0] + f[5]) + (f[10] + f[15])
    if not (abs(tr.real - trace) <= _LINEAR_TOL and abs(tr.imag) <= _LINEAR_TOL):
        return False, False
    if not certify:
        return True, False
    try:
        a = list(map(abs, f))
    except OverflowError:
        return True, False
    # A row reads NaN (inf - inf) only with a diagonal entry near the float
    # limit; a trace near 1 then puts another row far below the bound, and
    # min() returns one of the two
    low = min(2.0 * f[0].real - (a[0] + a[1] + a[2] + a[3]),
              2.0 * f[5].real - (a[4] + a[5] + a[6] + a[7]),
              2.0 * f[10].real - (a[8] + a[9] + a[10] + a[11]),
              2.0 * f[15].real - (a[12] + a[13] + a[14] + a[15]))
    return True, low >= _CERTIFICATE_BOUND


# The one numpy error state of a passing stack validation: without it, nan,
# inf or huge entries print RuntimeWarnings before the per-condition checks
# reject them.  It costs about 1 us to enter, which one matrix, read on
# Python scalars, does not pay.
@np.errstate(invalid="ignore", over="ignore")
def _stack_within_tolerances(m: np.ndarray, target, certify: bool) -> tuple:
    """The fused pass: one matmul reads every Hermiticity residual and the
    trace of each member of the stack against ``target`` (the reads of a
    valid member), and one reduction bounds them all."""
    if not m.size:
        return False, False
    reads = np.ascontiguousarray(m).view(np.float64).reshape(*m.shape[:-2], 32) @ _CHECK_COLUMNS
    within = bool(np.maximum.reduce(np.abs(reads - target), axis=None) <= _LINEAR_TOL)
    return within, within and certify and _positivity_certified(m)


def _positivity_certified(m: np.ndarray) -> bool:
    """Whether the Gershgorin bound min_i (2 Re m_ii - sum_j |m_ij|), taken
    over every member of a finite, Hermitian stack, proves it positive
    semidefinite to PSD_TOL (see _CERTIFICATE_BOUND).  Huge entries
    overflow the bound, which then fails."""
    bound = 2.0 * m.diagonal(0, -2, -1).real - np.abs(m) @ _ONES
    return m.size > 0 and np.minimum.reduce(bound, axis=None) >= _CERTIFICATE_BOUND


@np.errstate(invalid="ignore", over="ignore")
def _hermitian_checks(m: np.ndarray, error: type, name: str) -> np.ndarray:
    """Per-condition checks shared by both validators, run only when the
    fused pass fails: every member finite, then every member Hermitian.
    Returns the traces, which huge entries can overflow to inf or nan; every
    comparison with a tolerance fails on nan."""
    if (k := _first_bad(~np.isfinite(m).all(axis=(-2, -1)))) is not None:
        raise error(f"{name} has non-finite entries" + _where(k))
    herm = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    if (k := _first_bad(~(herm <= HERMITICITY_TOL))) is not None:
        raise error(f"{name} is not Hermitian" + _where(k))
    return np.trace(m, axis1=-2, axis2=-1)


def validate_states(m: np.ndarray) -> np.ndarray:
    """Check that every matrix of a (..., 4, 4) stack is a density matrix:
    finite, Hermitian, unit trace and positive semidefinite, each to the
    module tolerances.  Returns the stack as a new complex array; raises
    NotAState naming the first failing member.

    One fast pass settles the first three; a Gershgorin bound settles
    positivity of a near-diagonal state (such as I/4 + epsilon * delta)
    without an eigendecomposition, and eigvalsh runs only where it fails."""
    m = _as_stack(m, NotAState, "matrix")
    within, certified = _within_tolerances(m, unit_trace=True, certify=True)
    if not within:
        tr = _hermitian_checks(m, NotAState, "matrix")
        if (k := _first_bad(~((np.abs(tr.real - 1.0) <= TRACE_TOL) & (np.abs(tr.imag) <= TRACE_TOL)))) is not None:
            raise NotAState(f"trace is {tr[k]}, expected 1" + _where(k))
    if certified:
        return m
    low = np.linalg.eigvalsh(m).min(axis=-1)
    if (k := _first_bad(~(low >= PSD_TOL))) is not None:
        raise NotAState(f"negative eigenvalue {low[k]:.3e}" + _where(k))
    return m


def validate_deviations(d: np.ndarray, epsilon: float) -> np.ndarray:
    """Check a (..., 4, 4) stack of deviation matrices at one epsilon:
    epsilon positive and finite, every matrix finite, Hermitian and
    traceless to the module tolerances.  Returns the stack as a new complex
    array; raises ValueError naming the first failing member."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    d = _as_stack(d, ValueError, "deviation matrix")
    if not _within_tolerances(d, unit_trace=False)[0]:
        tr = _hermitian_checks(d, ValueError, "deviation matrix")
        if (k := _first_bad(~(np.abs(tr) <= TRACE_TOL))) is not None:
            raise ValueError(f"deviation matrix has trace {tr[k]}" + _where(k))
    return d


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = validate_states(self.matrix)
        if m.shape != (4, 4):
            raise NotAState(f"expected a 4x4 matrix, got shape {m.shape}")
        m.flags.writeable = False      # the validator's own copy
        object.__setattr__(self, "matrix", m)

    def expectation(self, observable: np.ndarray) -> float:
        return float(np.trace(self.matrix @ observable).real)

    @cached_property
    def pauli(self) -> np.ndarray:
        """The read-only ``pauli_table`` of the matrix, computed once."""
        return _frozen(pauli_table(self.matrix))


@dataclass(frozen=True)
class DeviationState:
    """High-temperature state rho = I/4 + epsilon * delta.

    ``delta`` is the traceless Hermitian deviation matrix carrying all the
    observable structure; ``epsilon`` is the magnetic-to-thermal energy ratio.
    ``pauli`` (the Pauli table of delta) and ``rho`` (the state) are each
    computed once, on first read.
    """

    delta: np.ndarray
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        d = validate_deviations(self.delta, self.epsilon)
        if d.shape != (4, 4):
            raise ValueError(f"expected a 4x4 deviation matrix, got shape {d.shape}")
        d.flags.writeable = False      # the validator's own copy
        object.__setattr__(self, "delta", d)

    @cached_property
    def pauli(self) -> np.ndarray:
        """The read-only ``pauli_table`` of delta, computed once."""
        return _frozen(pauli_table(self.delta))

    @cached_property
    def rho(self) -> DensityMatrix:
        """The checked state I/4 + epsilon * delta, composed once; NotAState
        on every read if epsilon is too large for delta."""
        return DensityMatrix(_MIXED + self.epsilon * self.delta)

    @classmethod
    def views(cls, stack: np.ndarray, epsilon: float) -> tuple["DeviationState", ...]:
        """One DeviationState per member of an (N, 4, 4) stack returned by
        ``validate_deviations`` at this epsilon, each a read-only view of it.
        The stack already passed the checks of ``__post_init__``, so they are
        not run again per member, and each member's two fields are written
        straight into its instance dict, where ``object.__setattr__`` would
        put them at more cost."""
        stack.flags.writeable = False
        devs = []
        for d in stack:
            dev = object.__new__(cls)
            fields = dev.__dict__
            fields["delta"] = d
            fields["epsilon"] = epsilon
            devs.append(dev)
        return tuple(devs)


@dataclass(frozen=True)
class BlochSpec:
    """Local Bloch vectors a, b and diagonal correlation coefficients c for
    rho = (I + sum_i a_i s_i x I + b_i I x s_i + c_i s_i x s_i) / 4."""

    a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b: np.ndarray = field(default_factory=lambda: np.zeros(3))
    c: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")
            v.flags.writeable = False
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ClassicalSpec:
    """Classically correlated mixture sum_ij p_ij |a_i><a_i| x |b_j><b_j|.

    Bases are encoded by Bloch angles (theta, phi) so orthonormality is
    structural.  ``probabilities`` is (p00, p01, p10, p11).
    """

    probabilities: np.ndarray
    basis_a: tuple = (0.0, 0.0)
    basis_b: tuple = (0.0, 0.0)

    def __post_init__(self):
        p = np.array(self.probabilities, dtype=float).reshape(-1)
        if p.shape != (4,):
            raise BadDistribution("need exactly four probabilities")
        if not np.isfinite(p).all():
            raise BadDistribution(f"non-finite probability in {p}")
        if np.any(p < 0):
            raise BadDistribution(f"negative probability in {p}")
        if abs(p.sum() - 1.0) > TRACE_TOL:
            raise BadDistribution(f"probabilities sum to {p.sum()}")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "basis_a", (float(self.basis_a[0]), float(self.basis_a[1])))
        object.__setattr__(self, "basis_b", (float(self.basis_b[0]), float(self.basis_b[1])))


def pauli_table(m: np.ndarray) -> np.ndarray:
    """Real (4, 4) table R[mu, nu] = tr(M s_mu x s_nu) of a Hermitian
    two-qubit operator (s_0 = I), for each matrix of a (..., 4, 4) stack:
    R[1:, 0] and R[0, 1:] are the local vectors of qubits a and b, R[1:, 1:]
    the correlation matrix."""
    m = np.asarray(m)
    if m.shape == (4, 4):
        return _TRACE_ROWS.dot(m.reshape(16)).real.reshape(4, 4)   # ndarray.dot costs less than @
    rows = _TRACE_ROWS @ m.reshape(*m.shape[:-2], 16, 1)
    return rows[..., 0].real.reshape(m.shape)


def from_pauli_table(r: np.ndarray) -> np.ndarray:
    """Inverse of ``pauli_table``: M = sum_{mu,nu} R[mu, nu] s_mu x s_nu / 4,
    for each table of a (..., 4, 4) stack."""
    r = np.asarray(r)
    flat = r.reshape(*r.shape[:-2], 1, 16) @ _PAULI_BASIS.reshape(16, 16)
    return flat.reshape(r.shape) / 4.0


def from_bloch(spec: BlochSpec) -> DensityMatrix:
    """Compose the density matrix for a diagonal-correlation Bloch spec.

    Raises NotAState if the coefficients do not describe a positive operator.
    """
    r = np.diag(np.concatenate(([1.0], spec.c)))
    r[1:, 0], r[0, 1:] = spec.a, spec.b
    with np.errstate(invalid="ignore", over="ignore"):
        m = from_pauli_table(r)    # huge coefficients overflow, quietly: the check rejects them
    return DensityMatrix(m)


def compose_deviation(dev: DeviationState) -> DensityMatrix:
    """rho = I/4 + epsilon * delta, the state ``dev.rho`` keeps; raises
    NotAState if epsilon is too large."""
    return dev.rho


def extract_deviation(rho: DensityMatrix, epsilon: float = DEFAULT_EPSILON) -> DeviationState:
    """delta = (rho - I/4) / epsilon, the exact inverse of compose_deviation.

    Dividing by epsilon amplifies float noise from rho (already validated to
    1e-12) beyond the deviation tolerances, so the rounding crumbs are
    projected out before the check.
    """
    delta = (rho.matrix - _MIXED) / epsilon
    delta = (delta + delta.conj().T) / 2.0
    delta -= delta.trace() / 4.0 * IDENTITY_4
    return DeviationState(delta=delta, epsilon=epsilon)


def basis_kets(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal qubit basis along the Bloch direction (theta, phi)."""
    up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    down = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    return up, down


def classical_state(spec: ClassicalSpec) -> DensityMatrix:
    """Build the classically correlated mixture described by ``spec``."""
    kets_a = basis_kets(*spec.basis_a)
    kets_b = basis_kets(*spec.basis_b)
    m = np.zeros((4, 4), dtype=complex)
    p = spec.probabilities.reshape(2, 2)
    for i in range(2):
        proj_a = np.outer(kets_a[i], kets_a[i].conj())
        for j in range(2):
            proj_b = np.outer(kets_b[j], kets_b[j].conj())
            m += p[i, j] * np.kron(proj_a, proj_b)
    return DensityMatrix(m)


def partial_trace(rho, keep: str = "a") -> np.ndarray:
    """Reduced 2x2 state of one qubit; ``keep`` is 'a' or 'b'."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    t = m.reshape(2, 2, 2, 2)
    if keep == "a":
        return np.einsum("ijkj->ik", t)
    if keep == "b":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def normalized_trace_distance(d1: DeviationState, d2: DeviationState) -> float:
    """tr|delta1 - delta2| / 2, the deviation-level state distance."""
    if d1.epsilon != d2.epsilon:
        raise EpsilonMismatch(f"epsilon {d1.epsilon} vs {d2.epsilon}")
    return trace_norm(d1.delta - d2.delta) / 2.0


# --- JSON wire formats -----------------------------------------------------
#
# Deviation form: {"epsilon": e, "delta_re": [[...]], "delta_im": [[...]]}
# Bloch shorthand: {"bloch": {"a": [...], "b": [...], "c": [...]}}


def _fields(doc, keys: tuple, where: str) -> list:
    """The values of ``keys`` in the JSON object ``doc``; BadDocument if doc
    is not an object or lacks one of them (the first missing key is named)."""
    if not isinstance(doc, dict):
        raise BadDocument(f"{where} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise BadDocument(f"{where} lacks the key {key!r}")
    return [doc[key] for key in keys]


def _number(value, key: str, where: str) -> float:
    """``value`` as a float; BadDocument naming ``key`` if it is not a real
    number: a string, a bool and a null are not, though float() would parse
    the first and read the second as 1.0."""
    try:
        if is_real(value):
            return float(value)
    except OverflowError:
        pass
    raise BadDocument(f"{where} key {key!r} must be a number, got {value!r}")


def _numbers(value, key: str, where: str) -> np.ndarray:
    """``value`` as a float array; BadDocument naming ``key`` unless every
    entry is a real number, at any depth: numpy would parse a string, read a
    bool as 1.0 and a null as NaN.  Its shape is checked by the type it is
    read into."""
    try:
        entries = np.array(value, dtype=object)
        if all(is_real(v) for v in entries.flat):
            return entries.astype(float)
    except (ValueError, OverflowError):
        pass
    raise BadDocument(f"{where} key {key!r} must be an array of numbers, got {value!r}")


def state_from_json(doc: dict) -> DeviationState:
    """Parse either wire form into a DeviationState: a Bloch document, checked
    as a state (NotAState), is the epsilon = 1/4 deviation 4 rho - I keeping
    it as ``rho``.  BadDocument names a missing or non-numeric key."""
    if isinstance(doc, dict) and "bloch" in doc:
        where = "bloch block"
        vectors = _fields(doc["bloch"], ("a", "b", "c"), where)
        a, b, c = (_numbers(v, key, where) for key, v in zip("abc", vectors))
        rho = from_bloch(BlochSpec(a=a, b=b, c=c))
        dev = DeviationState(delta=4.0 * rho.matrix - IDENTITY_4, epsilon=0.25)
        dev.__dict__["rho"] = rho    # its own bits: I/4 + delta/4 can round the diagonal
        return dev
    where = "state document"
    re, im, epsilon = _fields(doc, ("delta_re", "delta_im", "epsilon"), where)
    delta = _numbers(re, "delta_re", where) + 1j * _numbers(im, "delta_im", where)
    return DeviationState(delta=delta, epsilon=_number(epsilon, "epsilon", where))
