"""Brute-force oracles used by the test suite.

Everything here evaluates the projective-measurement map from first
principles: explicit spinors for each grid direction, explicit projector
sandwiches, explicit partial traces.  No code is shared with the production
optimizer, which works from Pauli coefficients; the Bell-diagonal
correlations are the closed form of the literature.  Likewise the relaxation
oracle is the explicit Kraus sum of the channel, while the production
``relax`` is an affine map on the Pauli table, and the pulse-program oracle
runs the per-event propagators one at a time in extended precision, while
the production kernel applies folded float segments.  The noise-model
oracle is the preparation-noise draw written with ``np.kron`` and
``np.eye``, which the production code no longer calls.  The direct read of
the correlations that the witness circuit must reproduce is tr(rho s_i x
s_i) with Pauli matrices written out here, not the production Pauli table,
and the Pauli-basis readout table is tr((s_mu x s_nu) A_i) / 4 of explicit
Kronecker products and observables A_i = U_i^dag (s_x x I) U_i.
"""

import numpy as np

# sigma_x, sigma_y, sigma_z, written out here rather than imported
_SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def pauli_pair_expectation(rho, i: int) -> float:
    """<s_i x s_i> of a DensityMatrix for i in 1..3, the direct read
    tr(rho s_i x s_i) of one explicit Kronecker product."""
    s = _SIGMA[i - 1]
    return rho.expectation(np.kron(s, s))


def pauli_readout_table(unitaries: np.ndarray) -> np.ndarray:
    """(16, 3) table whose row 4 mu + nu, column i is tr((s_mu x s_nu) A_i) / 4
    for A_i = U_i^dag (s_x x I) U_i of a (3, 4, 4) step stack (s_0 = I)."""
    paulis = (np.eye(2, dtype=complex), *_SIGMA)
    readout = np.kron(_SIGMA[0], np.eye(2))
    table = np.zeros((16, 3))
    for i, u in enumerate(unitaries):
        a = u.conj().T @ readout @ u
        for mu, p in enumerate(paulis):
            for nu, q in enumerate(paulis):
                table[4 * mu + nu, i] = np.trace(np.kron(p, q) @ a).real / 4
    return table


def spinor_pair(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    up = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    down = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    return up, down


def projector_sandwich(mat: np.ndarray, angles) -> np.ndarray:
    """sum_st (P_s x Q_t) mat (P_s x Q_t) with explicit rank-1 projectors."""
    ta, pa, tb, pb = angles
    out = np.zeros((4, 4), dtype=complex)
    for u in spinor_pair(ta, pa):
        pu = np.outer(u, u.conj())
        for v in spinor_pair(tb, pb):
            pv = np.outer(v, v.conj())
            proj = np.kron(pu, pv)
            out += proj @ mat @ proj
    return out


def _partial_traces(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = mat.reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def _entropy_bits(mat: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(mat)
    pos = evals[evals > 0]
    return float(-np.sum(pos * np.log2(pos)))


def measured_info_exact(rho: np.ndarray, angles) -> float:
    """Mutual information of the post-measurement state at one basis."""
    chi = projector_sandwich(rho, angles)
    chi_a, chi_b = _partial_traces(chi)
    return _entropy_bits(chi_a) + _entropy_bits(chi_b) - _entropy_bits(chi)


def measured_info_expansion(delta: np.ndarray, angles) -> float:
    """Expansion-order value 2 tr(Dchi^2) - tr(Dchi_a^2) - tr(Dchi_b^2)."""
    chi = projector_sandwich(delta, angles)
    chi_a, chi_b = _partial_traces(chi)
    return float((2 * np.trace(chi @ chi) - np.trace(chi_a @ chi_a)
                  - np.trace(chi_b @ chi_b)).real)


# --- vectorized full grids ----------------------------------------------------


def _spinor_grid(n: int, half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Spinor pairs for every (theta, phi) grid direction, theta-major.

    Returns (U, angles) with U of shape (n_dirs, 2 outcomes, 2 components).
    With ``half`` only the upper-hemisphere rows theta < pi/2 are kept; every
    dropped direction is the antipode of a kept one, and a projector pair is
    unchanged under n -> -n, so the searched set of bases is identical.
    """
    thetas = np.linspace(0.0, np.pi, n)
    if half:
        thetas = thetas[: n // 2]
    phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    up = np.stack([np.cos(tt / 2), np.exp(1j * pp) * np.sin(tt / 2)], axis=-1)
    down = np.stack([np.sin(tt / 2), -np.exp(1j * pp) * np.cos(tt / 2)], axis=-1)
    return np.stack([up, down], axis=1), np.stack([tt, pp], axis=-1)


def _xlog2x(p: np.ndarray) -> np.ndarray:
    from scipy.special import xlogy

    p = np.maximum(p, 0.0)
    return xlogy(p, p) / np.log(2.0)


def _entropy_along(d: np.ndarray, axis) -> np.ndarray:
    return -_xlog2x(d).sum(axis=axis)


def grid_search(mat: np.ndarray, kind: str, n: int = 64, block: int = 256):
    """Exhaustive basis search on the n^4 angle grid.

    For every pair of grid directions the four outcome expectations
    d_st = <u_s v_t| mat |u_s v_t> are computed from explicit spinors; the
    measured state is diagonal with exactly those entries, which gives the
    mutual information ('exact', mat is a density matrix) or the
    expansion-order value ('expansion', mat is a deviation matrix) without
    forming the 4x4 measured matrix per point.  Antipodal directions define
    the same projector pair, so each side enumerates half the sphere.

    Returns (best value, best angles (theta_a, phi_a, theta_b, phi_b)).
    """
    spinors, angles = _spinor_grid(n, half=True)
    m4 = mat.reshape(2, 2, 2, 2)
    n_dirs = spinors.shape[0]
    right = np.einsum("qtj,qtl->qtjl", spinors.conj(), spinors).reshape(n_dirs * 2, 4)

    # Marginal terms depend on a single side, so they are computed once.
    marg_a, marg_b = _partial_traces(mat)
    pa = np.einsum("psi,ij,psj->ps", spinors.conj(), marg_a, spinors).real
    pb = np.einsum("qtj,jk,qtk->qt", spinors.conj(), marg_b, spinors).real
    if kind == "exact":
        side_a = _entropy_along(pa, 1)
        side_b = _entropy_along(pb, 1)
    elif kind == "expansion":
        side_a = (pa**2).sum(axis=1)
        side_b = (pb**2).sum(axis=1)
    else:
        raise ValueError(kind)

    best_val, best_pq = -np.inf, (0, 0)
    for s0 in range(0, n_dirs, block):
        s1 = min(n_dirs, s0 + block)
        ub = spinors[s0:s1]
        left = np.einsum("psi,ijkl,psk->psjl", ub.conj(), m4, ub).reshape(-1, 4)
        d = (left @ right.T).real.reshape(s1 - s0, 2, n_dirs, 2)
        # Summing the four outcome slices is much faster than a strided
        # reduction over axes (1, 3).
        if kind == "expansion":
            d2 = d**2
            joint = d2[:, 0, :, 0] + d2[:, 0, :, 1] + d2[:, 1, :, 0] + d2[:, 1, :, 1]
            vals = 2 * joint - side_a[s0:s1, None] - side_b[None, :]
        else:
            x = _xlog2x(d)
            h_joint = -(x[:, 0, :, 0] + x[:, 0, :, 1] + x[:, 1, :, 0] + x[:, 1, :, 1])
            vals = side_a[s0:s1, None] + side_b[None, :] - h_joint
        flat = np.argmax(vals)
        p_loc, q = divmod(int(flat), n_dirs)
        if vals[p_loc, q] > best_val:
            best_val = float(vals[p_loc, q])
            best_pq = (s0 + p_loc, q)
    p, q = best_pq
    return best_val, (angles[p, 0], angles[p, 1], angles[q, 0], angles[q, 1])


# --- Bell-diagonal closed form ------------------------------------------------

# Correlation signs (<xx>, <yy>, <zz>) of the Bell states Phi+, Phi-, Psi+, Psi-.
_BELL_SIGNS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


def _h2(p: float) -> float:
    """Binary entropy in bits."""
    return float(-sum(x * np.log2(x) for x in (p, 1.0 - p) if x > 0))


def bell_diagonal_correlations(c) -> tuple[float, float, float]:
    """(I, C, Q) in bits of the Bell-diagonal state (I + sum_i c_i s_i x s_i)/4,
    in closed form (Luo, PRA 77, 042303 (2008)).  Its eigenvalues are the
    Bell-state weights (1 + s.c)/4 and both marginals are I/2, so
    I = 2 - S(rho).  Measuring qubit a along na and b along nb gives two
    uniform bits with correlation na.diag(c).nb, at most c = max|c_i| in
    magnitude, so C = 1 - H2((1 + c)/2), and Q = I - C."""
    c = np.asarray(c, dtype=float)
    weights = (1.0 + _BELL_SIGNS @ c) / 4.0
    mutual = 2.0 + float(sum(w * np.log2(w) for w in weights if w > 0))
    classical = 1.0 - _h2((1.0 + np.max(np.abs(c))) / 2.0)
    return mutual, classical, mutual - classical


# --- relaxation channel -------------------------------------------------------


def relax_kraus_set(t: float, t1: float, t2s: float, z_eq: float) -> list:
    """Kraus operators of one qubit's T1/T2* relaxation for a time t:
    generalized amplitude damping with decay probability 1 - exp(-t/T1)
    toward the |0> population (1 + z_eq)/2, then the pure dephasing at rate
    1/T2* - 1/(2 T1) that brings the transverse decay rate to 1/T2*."""
    gamma = 1.0 - np.exp(-t / t1)
    p = (1.0 + z_eq) / 2.0
    k, g = np.sqrt(1.0 - gamma), np.sqrt(gamma)
    damping = [
        np.sqrt(p) * np.array([[1, 0], [0, k]], dtype=complex),
        np.sqrt(p) * np.array([[0, g], [0, 0]], dtype=complex),
        np.sqrt(1 - p) * np.array([[k, 0], [0, 1]], dtype=complex),
        np.sqrt(1 - p) * np.array([[0, 0], [g, 0]], dtype=complex),
    ]
    lam = np.exp(-t * (1.0 / t2s - 1.0 / (2.0 * t1)))
    dephasing = [np.sqrt((1 + lam) / 2) * np.eye(2), np.sqrt((1 - lam) / 2) * np.diag([1.0, -1.0])]
    return [d @ a for d in dephasing for a in damping]


def relax_kraus(rho: np.ndarray, t: float, qubit_a: tuple, qubit_b: tuple) -> np.ndarray:
    """Two-qubit relaxation as the Kraus sum over all products K_a x K_b;
    ``qubit_a`` and ``qubit_b`` are (T1, T2*, z_eq) triples."""
    out = np.zeros((4, 4), dtype=complex)
    for ka in relax_kraus_set(t, *qubit_a):
        for kb in relax_kraus_set(t, *qubit_b):
            k = np.kron(ka, kb)
            out += k @ rho @ k.conj().T
    return out


def relax_kraus_mixed_term(t: float, qubit_a: tuple, qubit_b: tuple, epsilon: float,
                           digits: int = 50) -> np.ndarray:
    """(K(I/4) - I/4) / epsilon for the Kraus sum K of ``relax_kraus``: the
    part of the relaxed deviation that the maximally mixed part of
    I/4 + epsilon delta contributes.  The Kraus operators of
    ``relax_kraus_set`` are built from the float parameters, taken as exact,
    and everything is evaluated in ``digits``-digit arithmetic (mpmath) and
    rounded to float64 once at the end; in float arithmetic the difference
    cancels to about 1e-11 at epsilon = 1e-5.  On I/4 = I/2 x I/2 the sum
    over all products K_a x K_b is the product of the one-qubit sums."""
    import mpmath

    def kraus_set(t, t1, t2s, z_eq):
        t, t1, t2s, z_eq = (mpmath.mpf(v) for v in (t, t1, t2s, z_eq))
        gamma = 1 - mpmath.exp(-t / t1)
        p = (1 + z_eq) / 2
        k, g = mpmath.sqrt(1 - gamma), mpmath.sqrt(gamma)
        damping = [
            mpmath.sqrt(p) * mpmath.matrix([[1, 0], [0, k]]),
            mpmath.sqrt(p) * mpmath.matrix([[0, g], [0, 0]]),
            mpmath.sqrt(1 - p) * mpmath.matrix([[k, 0], [0, 1]]),
            mpmath.sqrt(1 - p) * mpmath.matrix([[0, 0], [g, 0]]),
        ]
        lam = mpmath.exp(-t * (1 / t2s - 1 / (2 * t1)))
        dephasing = [mpmath.sqrt((1 + lam) / 2) * mpmath.eye(2),
                     mpmath.sqrt((1 - lam) / 2) * mpmath.diag([1, -1])]
        return [d * a for d in dephasing for a in damping]   # all real

    with mpmath.workdps(digits):
        a, b = (sum((k * k.T for k in kraus_set(t, *q)), mpmath.zeros(2, 2)) / 2
                for q in (qubit_a, qubit_b))
        eps = mpmath.mpf(epsilon)
        return np.array([[float((a[i // 2, j // 2] * b[i % 2, j % 2] - (i == j) / mpmath.mpf(4)) / eps)
                          for j in range(4)] for i in range(4)])


# --- pulse programs ---------------------------------------------------------------


def run_pulse_program_extended(m: np.ndarray, steps: list, digits: int = 50) -> np.ndarray:
    """The 4x4 matrix m after a pulse program, with every product evaluated
    in ``digits``-digit arithmetic (mpmath) and rounded to complex128 once at
    the end.  ``steps`` lists, in time order, each event's float propagator
    (a 4x4 unitary, taken as exact) or None for a gradient, which keeps the
    diagonal."""
    import mpmath

    with mpmath.workdps(digits):
        out = mpmath.matrix(np.asarray(m).tolist())
        for u in steps:
            if u is None:
                out = mpmath.diag([out[i, i] for i in range(4)])
            else:
                u = mpmath.matrix(np.asarray(u).tolist())
                out = u * out * u.transpose_conj()
        return np.array([[complex(out[i, j]) for j in range(4)] for i in range(4)])


# --- preparation noise -----------------------------------------------------------

_SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def _small_rotation(rng: np.random.Generator, level: float) -> np.ndarray:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.normal(0.0, level)
    n_sigma = axis[0] * _SIGMA[0] + axis[1] * _SIGMA[1] + axis[2] * _SIGMA[2]
    return np.cos(angle / 2) * np.eye(2, dtype=complex) - 1j * np.sin(angle / 2) * n_sigma


def perturb_deviation_kron(delta: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """The noisy deviation matrix of ``harness.perturb_deviation`` as it was
    written with ``np.kron`` and ``np.eye``: the rotation u_a x u_b of two
    small random su(2) rotations (axis, then angle, qubit a first), then a
    random traceless Hermitian term of relative size level / 4, drawn in
    that order from ``rng``."""
    u = np.kron(_small_rotation(rng, level), _small_rotation(rng, level))
    out = u @ delta @ u.conj().T
    out = (out + out.conj().T) / 2.0
    scale = np.linalg.norm(delta)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    h -= np.trace(h) / 4 * np.eye(4)
    return out + (level / 4.0) * scale * (h / np.linalg.norm(h))


# --- state validators ------------------------------------------------------------
#
# The per-condition validators as they stood before the fused pass: each
# condition is its own reduction, in the order finite, Hermitian, trace and
# (for states) the smallest eigenvalue from eigvalsh.  The production
# validators must accept and reject exactly the same inputs, with the same
# exception type and message.


def _first_bad(bad: np.ndarray):
    if not bad.any():
        return None
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


def _where(k: tuple) -> str:
    k = tuple(int(i) for i in k)
    return f" (matrix {k[0] if len(k) == 1 else k} of the stack)" if k else ""


def _hermitian_stack(m, error: type, name: str, herm_tol: float):
    m = np.array(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise error(f"expected a 4x4 {name}, got shape {m.shape}")
    if (k := _first_bad(~np.isfinite(m).all(axis=(-2, -1)))) is not None:
        raise error(f"{name} has non-finite entries" + _where(k))
    herm = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    if (k := _first_bad(~(herm <= herm_tol))) is not None:
        raise error(f"{name} is not Hermitian" + _where(k))
    return m, np.trace(m, axis1=-2, axis2=-1)


def validate_states_reference(m, error: type, herm_tol: float, trace_tol: float,
                              psd_tol: float) -> np.ndarray:
    m, tr = _hermitian_stack(m, error, "matrix", herm_tol)
    if (k := _first_bad(~((np.abs(tr.real - 1.0) <= trace_tol) & (np.abs(tr.imag) <= trace_tol)))) is not None:
        raise error(f"trace is {tr[k]}, expected 1" + _where(k))
    low = np.linalg.eigvalsh(m).min(axis=-1)
    if (k := _first_bad(~(low >= psd_tol))) is not None:
        raise error(f"negative eigenvalue {low[k]:.3e}" + _where(k))
    return m


def validate_deviations_reference(d, epsilon: float, herm_tol: float,
                                  trace_tol: float) -> np.ndarray:
    if not (epsilon > 0 and np.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    d, tr = _hermitian_stack(d, ValueError, "deviation matrix", herm_tol)
    if (k := _first_bad(~(np.abs(tr) <= trace_tol))) is not None:
        raise ValueError(f"deviation matrix has trace {tr[k]}" + _where(k))
    return d
