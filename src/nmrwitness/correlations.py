"""Entropic correlation quantifiers for two-qubit states.

Total correlations are measured by the quantum mutual information; the
classical share is the maximum mutual information surviving a product
projective measurement, and the symmetric quantum discord is the gap.
Both the exact (bits) and the leading-order high-temperature expansion
(units of (epsilon^2/ln2) bit) are provided.  The expansion is closed form
in the singular values of the deviation's 3x3 correlation block T.  Only the
exact measurement optimization searches: a coarse grid over the four Bloch
angles followed by Nelder-Mead refinement from the best grid cells; it is
fully deterministic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import OptimizerFailure, check_config, is_finite, is_int
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
class OptimizerConfig:
    """Grid-then-refine settings for the exact measurement-basis search."""

    grid_points: int = 24
    refine_starts: int = 5
    maxiter: int = 800
    xatol: float = 1e-9
    fatol: float = 1e-13
    start_separation: float = 0.3

    def __post_init__(self):
        """Counts integers of at least 1, the rest finite and nonnegative;
        each failure raises BadConfig naming the field."""
        for key, v in vars(self).items():
            if key in ("grid_points", "refine_starts", "maxiter"):
                check_config(is_int(v) and v >= 1, f"optimizer.{key}", v, "an integer of at least 1")
            else:
                check_config(is_finite(v) and v >= 0, f"optimizer.{key}", v, "a finite nonnegative number")


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

    def csv_row(self, state_id: str) -> str:
        t_a, p_a, t_b, p_b = self.argmax_basis.angles()
        vals = [self.mutual_info, self.quantum, self.classical]
        nums = ",".join(f"{v:.12g}" for v in vals)
        angs = ",".join(f"{v:.12g}" for v in (t_a, p_a, t_b, p_b))
        return f"{state_id},{nums},{self.units},{angs}"


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


def _epsilon_terms(delta: np.ndarray):
    """T, its left singular vectors and singular values, and the (..., 3)
    triples (I, Q, C) for a deviation matrix or a (..., 4, 4) stack of them,
    from one batched SVD."""
    t = pauli_table(delta)[..., 1:, 1:]
    u, s, _ = np.linalg.svd(t)
    iqc = np.stack([np.sum(t * t, axis=(-2, -1)) / 2.0,
                    (s[..., 1] ** 2 + s[..., 2] ** 2) / 2.0,
                    s[..., 0] ** 2 / 2.0], axis=-1)
    return t, u, s, iqc


def epsilon_correlations(delta: np.ndarray) -> np.ndarray:
    """Leading-order (I, Q, C) of ``discord_epsilon`` for each deviation
    matrix of a (..., 4, 4) stack, as a (..., 3) array in units of
    (epsilon^2/ln2) bit (no measurement basis)."""
    return _epsilon_terms(delta)[3]


def mutual_information_epsilon(dev: DeviationState) -> float:
    """Leading-order mutual information ||T||_F^2 / 2, in units of
    (epsilon^2/ln2) bit; the local terms of the deviation cancel."""
    return float(epsilon_correlations(dev.delta)[0])


def discord_epsilon(dev: DeviationState) -> CorrelationReport:
    """Leading-order symmetric discord, in units of (epsilon^2/ln2) bit.

    The measured value at directions (na, nb) is (na.T.nb)^2/2, so with the
    singular values s1 >= s2 >= s3 of T: I = ||T||_F^2/2, C = s1^2/2 and
    Q = (s2^2 + s3^2)/2, along the leading singular-vector pair.  Tie rule:
    singular values within TIE_TOL * s1 of s1 are tied; na is the normalized
    projection onto the tied left subspace of the first of z, x, y that does
    not vanish, nb is along T^T na, and T = 0 reports the z basis.
    """
    t, u, s, (i, q, c) = _epsilon_terms(dev.delta)
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


def _grid_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.linspace(0.0, np.pi, n)
    phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return thetas, phis


def _grid_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All grid directions, theta-major, plus the flat (theta, phi) table."""
    thetas, phis = _grid_angles(n)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    dirs = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    return dirs, np.stack([tt, pp], axis=-1)


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


def _maximize(value_on_grid, value_at, opt: OptimizerConfig) -> tuple[float, MeasurementBasis]:
    """Shared grid-then-Nelder-Mead driver; the answer is the best of the
    starts that converged.

    ``value_on_grid(na, nb)`` evaluates broadcast direction arrays;
    ``value_at(angles)`` evaluates one (theta_a, phi_a, theta_b, phi_b).
    """
    dirs, angs = _grid_directions(opt.grid_points)
    table = value_on_grid(dirs[:, None, :], dirs[None, :, :])
    flat = table.ravel()
    order = np.argsort(-flat, kind="stable")

    n_side = dirs.shape[0]
    starts = []
    for idx in order:
        p, q = divmod(int(idx), n_side)
        cand = np.array([angs[p, 0], angs[p, 1], angs[q, 0], angs[q, 1]])
        if all(np.linalg.norm(cand - s) >= opt.start_separation for s in starts):
            starts.append(cand)
        if len(starts) >= opt.refine_starts:
            break

    best = []
    for x0 in starts:
        res = minimize(
            lambda x: -value_at(x),
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": opt.maxiter,
                "xatol": opt.xatol,
                "fatol": opt.fatol,
            },
        )
        if not res.success:
            continue
        t_a, p_a = _canonical_angles(direction(res.x[0], res.x[1]))
        t_b, p_b = _canonical_angles(direction(res.x[2], res.x[3]))
        best.append((-res.fun, (t_a, p_a, t_b, p_b)))
    if not best:
        raise OptimizerFailure("no Nelder-Mead start converged within budget")

    # Deterministic tie-break: among near-equal optima report the basis with
    # the lexicographically smallest canonical angles.
    top = max(v for v, _ in best)
    ties = sorted(angles for v, angles in best if v >= top - 1e-12)
    angles = ties[0]
    return float(value_at(np.array(angles))), MeasurementBasis(*angles)


def symmetric_discord(rho: DensityMatrix, opt: OptimizerConfig | None = None) -> CorrelationReport:
    """Exact symmetric discord: Q = I - max_basis I(chi), in bits."""
    opt = opt or OptimizerConfig()
    a, b, t = pauli_coefficients(rho.matrix)
    total = mutual_information(rho)

    def on_grid(na, nb):
        return _exact_objective(a, b, t, na, nb)

    def at(x):
        na = direction(x[0], x[1])
        nb = direction(x[2], x[3])
        return float(_exact_objective(a, b, t, na, nb))

    _, basis = _maximize(on_grid, at, opt)
    # Evaluate the reported classical share through the full measurement map
    # so the answer does not depend on the fast objective used in the search.
    chi = measure_map(rho, basis)
    classical = mutual_information(chi)
    return CorrelationReport(
        mutual_info=total,
        quantum=total - classical,
        classical=classical,
        units="bits",
        argmax_basis=basis,
    )
