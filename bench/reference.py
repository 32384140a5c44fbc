"""Reference computations and output checks for the benchmark.

Nothing here imports from ``nmrwitness``: the Pauli matrices, partial traces,
entropies, relaxation maps and witness sums are written out again from their
definitions, so a check cannot pass because it shares a bug with the program.

Each ``check_*`` function takes the inputs of one item and the program's
outputs as plain numbers and arrays, and returns a list of messages, one per
violated property; an empty list means the item is correct.
"""

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([_I2, _X, _Y, _Z])
# PAIR[m, n] = sigma_m (x) sigma_n, qubit a first, sigma_0 = identity.
PAIR = np.array([[np.kron(PAULI[m], PAULI[n]) for n in range(4)] for m in range(4)])

# Tolerances.  Each sits one to two orders of magnitude above the largest gap
# measured on correct outputs (see bench/README.md) and far below the
# smallest corruption the self-tests inject (1e-4).
SWEEP_TOL = 1e-9             # W, I, Q, C of a relaxation step (values of order 1-6)
SWEEP_DELTA_TOL = 1e-9       # entries of the deviation matrix at each step
MONOTONE_TOL = 1e-9
BELL_C_TOL = 1e-12           # bits
EXACT_TOL = 1e-11            # bits: I, re-evaluated C, Q = I - C
GRID_MARGIN = 1e-6
EPS2_TOL = 1e-11             # epsilon^2 units (values of order 1)
READOUT_TOL = 1e-9           # in units of the thermal scale 2 epsilon
PREP_TARGET_DISTANCE = 0.02
DISTANCE_TOL = 1e-9


# --- state algebra --------------------------------------------------------


def pauli_table(m: np.ndarray) -> np.ndarray:
    """R[m, n] = tr(M sigma_m (x) sigma_n), real for Hermitian M."""
    return np.einsum("ij,mnji->mn", m, PAIR).real


def from_table(r: np.ndarray) -> np.ndarray:
    """Inverse of ``pauli_table``: M = sum R[m, n] sigma_m (x) sigma_n / 4."""
    return np.einsum("mn,mnij->ij", r, PAIR) / 4.0


def partial_traces(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(m).reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


def entropy_bits(m: np.ndarray) -> float:
    p = np.linalg.eigvalsh(m)
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log2(p)))


def mutual_information(rho: np.ndarray) -> float:
    ra, rb = partial_traces(rho)
    return entropy_bits(ra) + entropy_bits(rb) - entropy_bits(rho)


def binary_entropy(p: float) -> float:
    return float(-sum(q * np.log2(q) for q in (p, 1.0 - p) if q > 0))


def trace_distance(d1: np.ndarray, d2: np.ndarray) -> float:
    """tr|d1 - d2| / 2 for Hermitian d1, d2."""
    return float(np.abs(np.linalg.eigvalsh(d1 - d2)).sum() / 2.0)


def unit(theta: float, phi: float) -> np.ndarray:
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def measured_state(rho: np.ndarray, angles) -> np.ndarray:
    """sum_st (P_s x Q_t) rho (P_s x Q_t) for the product measurement along
    the two Bloch directions (theta_a, phi_a, theta_b, phi_b)."""
    ta, pa, tb, pb = angles
    ops_a = [(_I2 + s * np.einsum("i,ijk->jk", unit(ta, pa), PAULI[1:])) / 2 for s in (1, -1)]
    ops_b = [(_I2 + s * np.einsum("i,ijk->jk", unit(tb, pb), PAULI[1:])) / 2 for s in (1, -1)]
    out = np.zeros((4, 4), dtype=complex)
    for p in ops_a:
        for q in ops_b:
            proj = np.kron(p, q)
            out += proj @ rho @ proj
    return out


def half_sphere_grid_best(rho: np.ndarray, n_theta: int = 10, n_phi: int = 20) -> float:
    """Best post-measurement mutual information over a coarse grid of
    direction pairs, each direction on the upper half sphere (projector
    pairs do not change under n -> -n).  Uses the outcome table
    p_st = (1 + s a.na + t b.nb + st na.T.nb) / 4."""
    r = pauli_table(rho)
    a, b, t = r[1:, 0], r[0, 1:], r[1:, 1:]
    th, ph = np.meshgrid(np.linspace(0, np.pi / 2, n_theta), np.linspace(0, 2 * np.pi, n_phi, endpoint=False),
                         indexing="ij")
    dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1).reshape(-1, 3)
    alpha = (dirs @ a)[:, None]
    beta = (dirs @ b)[None, :]
    kappa = dirs @ t @ dirs.T

    def h(p):
        p = np.clip(p, 1e-300, 1.0)
        return -p * np.log2(p)

    joint = sum(h((1 + s * alpha + u * beta + s * u * kappa) / 4) for s in (1, -1) for u in (1, -1))
    ha = h((1 + alpha) / 2) + h((1 - alpha) / 2)
    hb = h((1 + beta) / 2) + h((1 - beta) / 2)
    return float(np.max(ha + hb - joint))


def epsilon2_triple(delta: np.ndarray) -> tuple[float, float, float]:
    """Closed-form leading-order (I, Q, C) of a deviation matrix, in units of
    (epsilon^2/ln2) bit: I = |T|_F^2/2, C = s1(T)^2/2, Q = I - C."""
    t = pauli_table(delta)[1:, 1:]
    i = float(np.sum(t * t) / 2.0)
    c = float(np.linalg.svd(t, compute_uv=False)[0] ** 2 / 2.0)
    return i, i - c, c


def witness_sum(o) -> float:
    """W = sum_{i<j} |o_i o_j|."""
    o = list(o)
    return float(sum(abs(o[i] * o[j]) for i in range(len(o)) for j in range(i + 1, len(o))))


# --- ideal targets -----------------------------------------------------------


def qc_deviation() -> np.ndarray:
    return (2 * PAIR[1, 1] + 2 * PAIR[2, 2] - 2 * PAIR[3, 3]) / 4.0


def pseudo_pure_11_deviation() -> np.ndarray:
    ket = np.zeros(4)
    ket[3] = 1.0
    return 2.0 * (np.outer(ket, ket) - np.eye(4) / 4.0)


TARGETS = {"QC": qc_deviation, "pseudo_pure_11": pseudo_pure_11_deviation}


# --- relaxation ---------------------------------------------------------------


def qubit_relax_map(t: float, t1: float, t2s: float, z_eq: float) -> np.ndarray:
    """Affine map on (1, x, y, z) of one qubit: transverse decay exp(-t/T2*),
    longitudinal recovery toward z_eq at rate 1/T1."""
    g = 1.0 - np.exp(-t / t1)
    e2 = np.exp(-t / t2s)
    return np.array([[1, 0, 0, 0], [0, e2, 0, 0], [0, 0, e2, 0], [g * z_eq, 0, 0, 1 - g]])


def sweep_reference(p: dict) -> dict:
    """W, I, Q, C and deviation matrices of the relaxed QC state at
    t_n = n dt.  ``p`` holds epsilon, gamma_ratio, t1_h, t1_c, t2s_h, t2s_c,
    dt and n_steps."""
    eps = p["epsilon"]
    r0 = pauli_table(np.eye(4) / 4.0 + eps * qc_deviation())
    out = {k: [] for k in ("W", "I", "Q", "C", "delta")}
    for n in range(p["n_steps"]):
        t = n * p["dt"]
        ma = qubit_relax_map(t, p["t1_h"], p["t2s_h"], 2 * eps)
        mb = qubit_relax_map(t, p["t1_c"], p["t2s_c"], 2 * eps / p["gamma_ratio"])
        r = ma @ r0 @ mb.T
        d = r.copy()
        d[0, 0] = 0.0
        delta = from_table(d / eps)
        i, q, c = epsilon2_triple(delta)
        out["W"].append(witness_sum(np.diag(r)[1:] / (2 * eps)))
        out["I"].append(i)
        out["Q"].append(q)
        out["C"].append(c)
        out["delta"].append(delta)
    return {k: np.array(v) for k, v in out.items()}


# --- checks ---------------------------------------------------------------------


def _gap(name, got, want, tol, msgs):
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not gap <= tol:
        msgs.append(f"{name}: gap {gap:.3e} > {tol:.0e}")
    return gap


def check_sweep(p: dict, out: dict) -> list:
    """``out`` holds the program's times, W, I, Q, C and delta arrays."""
    msgs = []
    ref = sweep_reference(p)
    _gap("times", out["times"], np.arange(p["n_steps"]) * p["dt"], 1e-15, msgs)
    for name in ("W", "I", "Q", "C"):
        _gap(name, out[name], ref[name], SWEEP_TOL, msgs)
    _gap("delta", out["delta"], ref["delta"], SWEEP_DELTA_TOL, msgs)
    for name in ("W", "Q"):
        rise = float(np.max(np.diff(out[name]), initial=-np.inf))
        if rise > MONOTONE_TOL:
            msgs.append(f"{name} increases by {rise:.3e}")
    _gap("t=0 (W, I, Q, C)", [out[k][0] for k in ("W", "I", "Q", "C")], [3.0, 6.0, 4.0, 2.0],
         SWEEP_TOL, msgs)
    return msgs


def check_custom(doc: dict, out: dict) -> list:
    """``doc`` is the state document; ``out`` holds the exact triple I, Q, C
    with its argmax angles, the epsilon^2 triple (None for Bloch documents),
    the raw circuit and direct readouts o and W, and the written CSV row."""
    msgs = []
    if "bloch" in doc:
        c = np.array(doc["bloch"]["c"], dtype=float)
        rho = (PAIR[0, 0] + sum(c[i] * PAIR[i + 1, i + 1] for i in range(3))) / 4.0
        want_c = 1.0 - binary_entropy((1.0 + np.max(np.abs(c))) / 2.0)
        _gap("Bell-diagonal C", out["C"], want_c, BELL_C_TOL, msgs)
        if out["eps"] is not None:
            msgs.append("Bloch document reported epsilon^2 correlations")
    else:
        delta = np.array(doc["delta_re"]) + 1j * np.array(doc["delta_im"])
        rho = np.eye(4) / 4.0 + doc["epsilon"] * delta
        if out["eps"] is None:
            msgs.append("deviation document lacks epsilon^2 correlations")
        else:
            _gap("epsilon^2 (I, Q, C)", out["eps"], epsilon2_triple(delta), EPS2_TOL, msgs)
    _gap("I", out["I"], mutual_information(rho), EXACT_TOL, msgs)
    _gap("C at argmax", out["C"], mutual_information(measured_state(rho, out["angles"])), EXACT_TOL, msgs)
    _gap("Q = I - C", out["Q"], out["I"] - out["C"], EXACT_TOL, msgs)
    grid = half_sphere_grid_best(rho)
    if not out["C"] >= grid - GRID_MARGIN:
        msgs.append(f"C {out['C']:.9f} below the coarse grid best {grid:.9f}")
    if not out["Q"] >= -1e-9:
        msgs.append(f"negative discord {out['Q']:.3e}")
    corr = np.diag(pauli_table(rho))[1:]
    for mode in ("circuit", "direct"):
        o = np.asarray(out[mode + "_o"])
        _gap(f"{mode} O1..O3", o[:3], corr, READOUT_TOL, msgs)
        _gap(f"{mode} W", out[mode + "_W"], witness_sum(o), READOUT_TOL, msgs)
    row = out["csv_row"].split(",")
    _gap("custom.csv I, Q, C", [float(v) for v in row[1:4]], [out["I"], out["Q"], out["C"]],
         1e-11 * max(1.0, abs(out["I"])), msgs)
    return msgs


def check_readout(item: dict, out: dict) -> list:
    """``item`` holds the state kind, epsilon and the witness directions;
    ``out`` holds the prepared noise-free deviation, the noisy state rho that
    was read, the pulse-level readouts (raw), the circuit- and direct-mode
    readouts and W per direction (thermal normalization) and the reported
    distance of the noisy deviation from the ideal target."""
    msgs = []
    eps = item["epsilon"]
    scale = 2.0 * eps
    rho = np.asarray(out["rho"])
    r = pauli_table(rho)
    corr, a, b = np.diag(r)[1:], r[1:, 0], r[0, 1:]
    _gap("pulse-level O1..O3", np.asarray(out["pulse_o"]) / scale, corr / scale, READOUT_TOL, msgs)
    for k, (z, w) in enumerate(item["directions"]):
        want = np.append(corr, z @ a + w @ b) / scale
        for mode in ("circuit", "direct"):
            o, big_w = out[mode][k]
            _gap(f"{mode} O1..O4 (direction {k})", o, want, READOUT_TOL, msgs)
            _gap(f"{mode} W (direction {k})", big_w, witness_sum(want), READOUT_TOL, msgs)
    target = TARGETS[item["kind"]]()
    prep = trace_distance(np.asarray(out["clean_delta"]), target)
    if not prep <= PREP_TARGET_DISTANCE:
        msgs.append(f"noise-free {item['kind']} misses its target by {prep:.4f}")
    noisy_delta = (rho - np.eye(4) / 4.0) / eps
    _gap("distance to target", out["distance"], trace_distance(noisy_delta, target), DISTANCE_TOL, msgs)
    return msgs
