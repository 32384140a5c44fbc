"""Entropic correlation quantifiers for two-qubit states.

Total correlations are measured by the quantum mutual information; the
classical share is the maximum mutual information surviving a product
projective measurement, and the symmetric quantum discord is the gap.
Both the exact (bits) and the leading-order high-temperature expansion
(units of (epsilon^2/ln2) bit) are provided.  The expansion is closed form
in the singular values of the deviation's 3x3 correlation block T.  Only the
exact measurement optimization searches, all of it in ``symmetric_discord``: a
grid over both qubits' Bloch directions, one hemisphere each (n and -n give
the same projectors), followed by Nelder-Mead refinement from the best
distinct grid bases; its settings are module constants and it is fully
deterministic.  That refinement is the package's one use of scipy, imported
by ``minimize`` on its first call, so importing the package loads only numpy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OptimizerFailure
from .pauli import bloch_vector_to_op, direction
from .states import DensityMatrix, DeviationState, partial_trace, pauli_table

# Singular values of T within this fraction of s1 count as tied: deviations
# extracted at epsilon = 1e-5 carry about 1e-11 of rounding.
TIE_TOL = 1e-9
_TIE_AXES = np.eye(3)[[2, 0, 1]]  # z, x, y: the order the tie rule projects


@dataclass(frozen=True)
class MeasurementBasis:
    """Product projective measurement, one Bloch direction per qubit."""

    theta_a: float
    phi_a: float
    theta_b: float
    phi_b: float

    def direction_a(self) -> np.ndarray:
        return direction(self.theta_a, self.phi_a)

    def direction_b(self) -> np.ndarray:
        return direction(self.theta_b, self.phi_b)

    def projectors(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """Rank-1 projector pair (P_+, P_-) onto +/- the side's direction."""
        n = self.direction_a() if side == "a" else self.direction_b()
        ns = bloch_vector_to_op(n)
        eye = np.eye(2, dtype=complex)
        return (eye + ns) / 2, (eye - ns) / 2

    def angles(self) -> tuple[float, float, float, float]:
        return (self.theta_a, self.phi_a, self.theta_b, self.phi_b)


@dataclass(frozen=True)
class CorrelationReport:
    """Mutual information I, quantum discord Q, classical correlation C."""

    mutual_info: float
    quantum: float
    classical: float
    units: str
    argmax_basis: MeasurementBasis

    def to_json(self) -> dict:
        t_a, p_a, t_b, p_b = self.argmax_basis.angles()
        return {
            "I": self.mutual_info,
            "Q": self.quantum,
            "C": self.classical,
            "units": self.units,
            "argmax_basis": {"theta_a": t_a, "phi_a": p_a, "theta_b": t_b, "phi_b": p_b},
        }


# --- entropies --------------------------------------------------------------


def entropy(rho) -> float:
    """von Neumann entropy in bits; eigenvalues <= 0 contribute nothing."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    evals = np.linalg.eigvalsh(m)
    pos = evals[evals > 0]
    return float(-np.sum(pos * np.log2(pos)))


def mutual_information(rho: DensityMatrix) -> float:
    """I = S(rho_a) + S(rho_b) - S(rho_ab), in bits."""
    return entropy(partial_trace(rho, "a")) + entropy(partial_trace(rho, "b")) - entropy(rho)


# --- measurement maps -------------------------------------------------------


def measure_map_deviation(delta: np.ndarray, basis: MeasurementBasis) -> np.ndarray:
    """Two-sided product-projector map applied to a deviation matrix."""
    pa = basis.projectors("a")
    pb = basis.projectors("b")
    out = np.zeros((4, 4), dtype=complex)
    for qa in pa:
        for qb in pb:
            proj = np.kron(qa, qb)
            out += proj @ delta @ proj
    return out


def measure_map(rho: DensityMatrix, basis: MeasurementBasis) -> DensityMatrix:
    """chi = sum_ij (P_i x Q_j) rho (P_i x Q_j), diagonal in the product basis."""
    return DensityMatrix(measure_map_deviation(rho.matrix, basis))


# --- Pauli coefficients -----------------------------------------------------


def pauli_coefficients(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local vectors and full correlation matrix of a two-qubit operator:
    a_i = tr(M s_i x I), b_i = tr(M I x s_i), T_ij = tr(M s_i x s_j)."""
    r = pauli_table(mat)
    return r[1:, 0], r[0, 1:], r[1:, 1:]


# --- epsilon^2 expansion: closed form from T -------------------------------


def _epsilon_terms(t: np.ndarray):
    """Left singular vectors, singular values and the (..., 3) triples
    (I, Q, C) of a correlation block T or a (..., 3, 3) stack of them, from
    one batched SVD."""
    u, s, _ = np.linalg.svd(t)
    iqc = np.stack([np.sum(t * t, axis=(-2, -1)) / 2.0,
                    (s[..., 1] ** 2 + s[..., 2] ** 2) / 2.0,
                    s[..., 0] ** 2 / 2.0], axis=-1)
    return u, s, iqc


def epsilon_correlations(t: np.ndarray) -> np.ndarray:
    """Leading-order (I, Q, C) of ``discord_epsilon`` for each correlation
    block T = R[1:, 1:] of a deviation's Pauli table, given as a (..., 3, 3)
    stack, as a (..., 3) array in units of (epsilon^2/ln2) bit (no
    measurement basis)."""
    return _epsilon_terms(t)[2]


def discord_epsilon(dev: DeviationState) -> CorrelationReport:
    """Leading-order symmetric discord, in units of (epsilon^2/ln2) bit.

    The measured value at directions (na, nb) is (na.T.nb)^2/2, so with the
    singular values s1 >= s2 >= s3 of T: I = ||T||_F^2/2, C = s1^2/2 and
    Q = (s2^2 + s3^2)/2, along the leading singular-vector pair.  Tie rule:
    singular values within TIE_TOL * s1 of s1 are tied; na is the normalized
    projection onto the tied left subspace of the first of z, x, y that does
    not vanish, nb is along T^T na, and T = 0 reports the z basis.
    """
    t = dev.pauli[1:, 1:]
    u, s, (i, q, c) = _epsilon_terms(t)
    na = nb = _TIE_AXES[0]
    if s[0] > 0.0:
        tied = u[:, s >= s[0] * (1.0 - TIE_TOL)]
        for axis in _TIE_AXES:
            na = tied @ (tied.T @ axis)
            if np.linalg.norm(na) > TIE_TOL:
                break
        na = na / np.linalg.norm(na)
        nb = t.T @ na
        nb = nb / np.linalg.norm(nb)
    return CorrelationReport(
        mutual_info=float(i),
        quantum=float(q),
        classical=float(c),
        units="epsilon2-bits",
        argmax_basis=MeasurementBasis(*_canonical_angles(na), *_canonical_angles(nb)),
    )


# --- exact objective --------------------------------------------------------


def _xlog2x(p: np.ndarray) -> np.ndarray:
    p = np.maximum(p, 0.0)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def _exact_objective(a, b, t, na: np.ndarray, nb: np.ndarray):
    """Post-measurement mutual information for direction arrays.

    ``na`` has shape (..., 3) and likewise ``nb``; the measured state is
    diagonal with outcome probabilities p_st = (1 + s a.na + t b.nb +
    st na.T.nb)/4, so the value reduces to Shannon entropies of that table.
    """
    alpha = na @ a
    beta = nb @ b
    kappa = np.einsum("...i,ij,...j->...", na, t, nb)
    h_joint = np.zeros_like(kappa)
    for s in (1.0, -1.0):
        for u in (1.0, -1.0):
            h_joint -= _xlog2x((1.0 + s * alpha + u * beta + s * u * kappa) / 4.0)
    h_a = -_xlog2x((1.0 + alpha) / 2.0) - _xlog2x((1.0 - alpha) / 2.0)
    h_b = -_xlog2x((1.0 + beta) / 2.0) - _xlog2x((1.0 - beta) / 2.0)
    return h_a + h_b - h_joint


# --- grid + simplex search --------------------------------------------------

GRID_POINTS = 24
REFINE_STARTS = 5
START_SEPARATION = 0.3
_NELDER_MEAD = {"maxiter": 800, "xatol": 1e-9, "fatol": 1e-13}

# (theta, phi) cells of one qubit's search grid, shape (265, 2): the pole and
# the theta < pi/2 rows of the GRID_POINTS x GRID_POINTS full-sphere grid.
# Every other cell of the full grid is a repeat of the pole or the antipode of
# a kept cell, and n and -n give the same projectors, so each grid basis is
# scored once and each refinement start is a distinct basis.
GRID_ANGLES = np.array([(0.0, 0.0)] + [
    (th, ph) for th in np.linspace(0.0, np.pi, GRID_POINTS)[1:] if th < np.pi / 2
    for ph in np.linspace(0.0, 2.0 * np.pi, GRID_POINTS, endpoint=False)])
GRID_ANGLES.flags.writeable = False


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, **kwargs)


def _canonical_angles(n: np.ndarray) -> tuple[float, float]:
    """Map a unit direction to hemisphere-canonical angles (projector pairs
    are invariant under n -> -n)."""
    if n[2] < 0 or (abs(n[2]) < 1e-12 and (n[0] < 0 or (abs(n[0]) < 1e-12 and n[1] < 0))):
        n = -n
    th = float(np.arccos(np.clip(n[2], -1.0, 1.0)))
    ph = float(np.arctan2(n[1], n[0]) % (2.0 * np.pi))
    if th < 1e-12 or abs(th - np.pi) < 1e-12:
        ph = 0.0
    return th, ph


def symmetric_discord(rho: DensityMatrix) -> CorrelationReport:
    """Exact symmetric discord: Q = I - max_basis I(chi), in bits.

    The search scores every pair of GRID_ANGLES cells, refines the
    REFINE_STARTS best cells at least START_SEPARATION apart (in stable grid
    order) by Nelder-Mead, and answers with the best start that converged;
    among values within 1e-12 of it, the lexicographically smallest canonical
    angles.  No converged start raises OptimizerFailure.
    """
    a, b, t = pauli_coefficients(rho.matrix)
    total = mutual_information(rho)

    dirs = direction(*GRID_ANGLES.T).T
    table = _exact_objective(a, b, t, dirs[:, None, :], dirs[None, :, :])
    starts = []
    for idx in np.argsort(-table.ravel(), kind="stable"):
        p, q = divmod(int(idx), len(GRID_ANGLES))
        cand = np.concatenate((GRID_ANGLES[p], GRID_ANGLES[q]))
        if all(np.linalg.norm(cand - s) >= START_SEPARATION for s in starts):
            starts.append(cand)
            if len(starts) == REFINE_STARTS:
                break

    def negative_value(x):
        return -float(_exact_objective(a, b, t, direction(x[0], x[1]), direction(x[2], x[3])))

    best = []
    for x0 in starts:
        res = minimize(negative_value, x0, method="Nelder-Mead", options=_NELDER_MEAD)
        if res.success:
            angles = (*_canonical_angles(direction(res.x[0], res.x[1])),
                      *_canonical_angles(direction(res.x[2], res.x[3])))
            best.append((-res.fun, angles))
    if not best:
        raise OptimizerFailure("no Nelder-Mead start converged within budget")
    top = max(v for v, _ in best)
    basis = MeasurementBasis(*min(angles for v, angles in best if v >= top - 1e-12))

    # Evaluate the reported classical share through the full measurement map
    # so the answer does not depend on the fast objective used in the search.
    classical = mutual_information(measure_map(rho, basis))
    return CorrelationReport(
        mutual_info=total,
        quantum=total - classical,
        classical=classical,
        units="bits",
        argmax_basis=basis,
    )
