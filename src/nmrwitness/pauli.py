"""Pauli matrices and two-qubit operator helpers.

Index convention: sigma_1 = x, sigma_2 = y, sigma_3 = z.  Basis ordering is
|00>, |01>, |10>, |11> with qubit a (hydrogen) first.
"""

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

SIGMA = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Unit Bloch vectors of the named rotation axes.
AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def on_a(op: np.ndarray) -> np.ndarray:
    """Embed a single-qubit operator on qubit a."""
    return np.kron(op, IDENTITY_2)


def on_b(op: np.ndarray) -> np.ndarray:
    """Embed a single-qubit operator on qubit b."""
    return np.kron(IDENTITY_2, op)


def bloch_vector_to_op(n: np.ndarray) -> np.ndarray:
    """n . sigma for a real 3-vector n."""
    n = np.asarray(n, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


# (I, sigma_x, sigma_y, sigma_z) entries of each 2x2 position, row-major, as
# Python complex numbers.
_SU2_TERMS = tuple(zip(*(m.ravel().tolist() for m in (IDENTITY_2, *SIGMA))))


def su2_entries(angle: float, n) -> list:
    """The entries u00, u01, u10, u11 of ``su2(angle, n)`` as Python complex
    numbers, which cost less than numpy calls on four entries.  Each is
    cos(angle/2) I - (1j sin(angle/2)) ((n_x s_x + n_y s_y) + n_z s_z) with
    the products and sums of the elementwise matrix expression, signed zeros
    included, so the bits are those of that expression."""
    c, s = float(np.cos(angle / 2)), float(np.sin(angle / 2))
    js = 1j * s
    nx, ny, nz = map(float, n)
    return [c * i - js * ((nx * x + ny * y) + nz * z) for i, x, y, z in _SU2_TERMS]


def su2(angle: float, n) -> np.ndarray:
    """Single-qubit rotation exp(-i * angle * n.sigma / 2) about the unit
    Bloch vector n, in closed form: cos(angle/2) I - i sin(angle/2) n.sigma."""
    return np.array(su2_entries(angle, n)).reshape(2, 2)


def direction(theta: float, phi: float) -> np.ndarray:
    """Unit Bloch vector at polar angle theta, azimuth phi."""
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
