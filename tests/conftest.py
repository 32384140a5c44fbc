import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from nmrwitness import DensityMatrix


def random_density_matrix(rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-distributed random two-qubit state."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_traceless_hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    return h - np.trace(h).real / 4 * np.eye(4)


def bell_phi_plus() -> DensityMatrix:
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def triplet() -> DensityMatrix:
    v = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


def ket_projector(*amplitudes) -> np.ndarray:
    v = np.array(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


@pytest.fixture
def no_start_converges(monkeypatch):
    """Every Nelder-Mead start of the exact discord search reports failure."""
    import nmrwitness.correlations as correlations

    def never_converges(fun, x0, **kwargs):
        return OptimizeResult(x=x0, fun=fun(x0), success=False)

    monkeypatch.setattr(correlations, "minimize", never_converges)
