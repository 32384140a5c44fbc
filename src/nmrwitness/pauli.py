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


def pauli_pair(i: int) -> np.ndarray:
    """sigma_i (x) sigma_i for i in 1..3."""
    return np.kron(SIGMA[i - 1], SIGMA[i - 1])


def bloch_vector_to_op(n: np.ndarray) -> np.ndarray:
    """n . sigma for a real 3-vector n."""
    n = np.asarray(n, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def su2(angle: float, n) -> np.ndarray:
    """Single-qubit rotation exp(-i * angle * n.sigma / 2) about the unit
    Bloch vector n, in closed form: cos(angle/2) I - i sin(angle/2) n.sigma."""
    return np.cos(angle / 2) * IDENTITY_2 - 1j * np.sin(angle / 2) * bloch_vector_to_op(n)


def direction(theta: float, phi: float) -> np.ndarray:
    """Unit Bloch vector at polar angle theta, azimuth phi."""
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
