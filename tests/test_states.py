import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrwitness import (
    BlochSpec,
    ClassicalSpec,
    DensityMatrix,
    DeviationState,
    bloch_decompose,
    classical_state,
    compose_deviation,
    extract_deviation,
    from_bloch,
    from_pauli_table,
    normalized_trace_distance,
    partial_trace,
    pauli_table,
    state_from_json,
    state_to_json,
)
from nmrwitness.errors import BadDistribution, EpsilonMismatch, NotAState
from nmrwitness.states import validate_deviations, validate_states
from nmrwitness.pauli import IDENTITY_4, SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import ket_projector, random_traceless_hermitian, random_density_matrix, triplet


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NotAState):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex))

    def test_rejects_non_finite_entry(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 2] = np.nan
        with pytest.raises(NotAState):
            DensityMatrix(m)

    def test_matrix_is_immutable(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


def _corrupt(m: np.ndarray, fault: str) -> np.ndarray:
    """One matrix with a single fault the validators must catch."""
    m = np.array(m, dtype=complex)
    if fault == "non_hermitian":
        m[0, 1] += 1e-9
    elif fault == "trace":
        m += 1e-11 / 4 * np.eye(4)
    elif fault == "negative_eigenvalue":
        evals, vecs = np.linalg.eigh(m)
        evals[0] = -1e-9
        m = vecs @ np.diag(evals) @ vecs.conj().T
        m += (1.0 - np.trace(m).real) / 3 * (np.eye(4) - vecs[:, :1] @ vecs[:, :1].conj().T)
    elif fault == "nan":
        m[2, 3] = np.nan
    return m


class TestStackValidation:
    N = 7

    @pytest.mark.parametrize("fault, message", [
        ("non_hermitian", "not Hermitian"), ("trace", "trace is"),
        ("negative_eigenvalue", "negative eigenvalue"), ("nan", "non-finite"),
    ])
    def test_one_bad_state_in_the_middle(self, rng, fault, message):
        stack = np.array([random_density_matrix(rng).matrix for _ in range(self.N)])
        validate_states(stack)
        stack[3] = _corrupt(stack[3], fault)
        with pytest.raises(NotAState, match=rf"{message}.*\(matrix 3 of the stack\)"):
            validate_states(stack)
        with pytest.raises(NotAState):
            DensityMatrix(stack[3])

    @pytest.mark.parametrize("fault, message", [
        ("non_hermitian", "not Hermitian"), ("trace", "has trace"), ("nan", "non-finite"),
    ])
    def test_one_bad_deviation_in_the_middle(self, rng, fault, message):
        stack = np.array([random_traceless_hermitian(rng) for _ in range(self.N)])
        validate_deviations(stack, 1e-5)
        stack[3] = _corrupt(stack[3], fault)
        with pytest.raises(ValueError, match=rf"{message}.*\(matrix 3 of the stack\)"):
            validate_deviations(stack, 1e-5)
        with pytest.raises(ValueError):
            DeviationState(delta=stack[3])

    def test_nested_stack_names_the_member(self, rng):
        stack = np.array([[random_density_matrix(rng).matrix for _ in range(3)] for _ in range(4)])
        stack[2, 1] = _corrupt(stack[2, 1], "trace")
        with pytest.raises(NotAState, match=r"\(2, 1\) of the stack"):
            validate_states(stack)


class TestFromBloch:
    def test_zero_spec_is_maximally_mixed(self):
        rho = from_bloch(BlochSpec())
        assert np.allclose(rho.matrix, IDENTITY_4 / 4)

    def test_c_11m1_is_pure_triplet(self):
        rho = from_bloch(BlochSpec(c=np.array([1.0, 1.0, -1.0])))
        # eigendecomposition oracle: rank one, and the eigenvector is
        # (|01> + |10>)/sqrt(2)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(sorted(evals), [0, 0, 0, 1], atol=1e-12)
        assert np.allclose(rho.matrix, triplet().matrix, atol=1e-12)

    def test_overlong_c_rejected(self):
        # eigenvalues (1 +/- 1.5)/4, one negative
        with pytest.raises(NotAState):
            from_bloch(BlochSpec(c=np.array([1.5, 0.0, 0.0])))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BlochSpec(a=np.array([np.nan, 0, 0]))


class TestBlochDecompose:
    def test_maximally_mixed_all_zero(self):
        spec, corr = bloch_decompose(DensityMatrix(IDENTITY_4 / 4))
        assert np.allclose(spec.a, 0) and np.allclose(spec.b, 0)
        assert np.allclose(corr, 0)

    def test_round_trip(self):
        spec = BlochSpec(c=np.array([1.0, 1.0, -1.0]))
        out, _ = bloch_decompose(from_bloch(spec))
        assert np.allclose(out.c, spec.c, atol=1e-12)
        assert np.allclose(out.a, 0, atol=1e-12) and np.allclose(out.b, 0, atol=1e-12)

    def test_product_ket_00(self):
        rho = DensityMatrix(ket_projector(1, 0, 0, 0))
        spec, corr = bloch_decompose(rho)
        # direct trace computation: <sz x I> = <I x sz> = <sz x sz> = 1
        assert np.allclose(spec.a, [0, 0, 1], atol=1e-12)
        assert np.allclose(spec.b, [0, 0, 1], atol=1e-12)
        assert np.allclose(spec.c, [0, 0, 1], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_round_trip_random_diagonal_specs(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1, 1, size=3)
        try:
            rho = from_bloch(BlochSpec(c=c))
        except NotAState:
            return
        out, _ = bloch_decompose(rho)
        assert np.allclose(out.c, c, atol=1e-12)

    def test_pauli_table_matches_traces_and_inverts(self, rng):
        # direct trace oracle for all 16 entries of a state with every entry nonzero
        m = random_density_matrix(rng).matrix
        ops = (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)
        want = [[np.trace(m @ np.kron(p, q)).real for q in ops] for p in ops]
        assert np.allclose(pauli_table(m), want, atol=1e-14)
        assert np.allclose(from_pauli_table(pauli_table(m)), m, atol=1e-14)


class TestDeviation:
    def test_zero_deviation_is_maximally_mixed(self):
        rho = compose_deviation(DeviationState(delta=np.zeros((4, 4))))
        assert np.allclose(rho.matrix, IDENTITY_4 / 4)

    def test_quantum_correlated_target_coefficients(self):
        delta = (2 * np.kron(SIGMA_X, SIGMA_X) + 2 * np.kron(SIGMA_Y, SIGMA_Y)
                 - 2 * np.kron(SIGMA_Z, SIGMA_Z)) / 4
        rho = compose_deviation(DeviationState(delta=delta, epsilon=1e-5))
        spec, _ = bloch_decompose(rho)
        assert np.allclose(spec.c, [2e-5, 2e-5, -2e-5], atol=1e-18)

    def test_classical_correlated_target_coefficients(self):
        rho = compose_deviation(DeviationState(delta=-np.kron(SIGMA_Z, SIGMA_Z), epsilon=1e-5))
        spec, _ = bloch_decompose(rho)
        assert np.allclose(spec.c, [0, 0, -4e-5], atol=1e-18)

    def test_compose_extract_inverse_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            delta = random_traceless_hermitian(rng)
            eps = 0.2 / max(1e-9, np.abs(np.linalg.eigvalsh(delta)).max())
            dev = DeviationState(delta=delta, epsilon=eps)
            back = extract_deviation(compose_deviation(dev), eps)
            assert np.allclose(back.delta, delta, atol=1e-10)

    def test_oversized_epsilon_rejected(self):
        with pytest.raises(NotAState):
            compose_deviation(DeviationState(delta=np.kron(SIGMA_Z, SIGMA_Z), epsilon=0.5))

    def test_traceless_enforced(self):
        with pytest.raises(ValueError):
            DeviationState(delta=np.eye(4))

    def test_non_finite_rejected(self):
        delta = np.zeros((4, 4), dtype=complex)
        delta[0, 0] = np.nan
        with pytest.raises(ValueError):
            DeviationState(delta=delta)
        for eps in (np.inf, np.nan):
            with pytest.raises(ValueError):
                DeviationState(delta=np.zeros((4, 4)), epsilon=eps)


class TestClassicalState:
    def test_point_mass_computational(self):
        rho = classical_state(ClassicalSpec(probabilities=[1, 0, 0, 0]))
        assert np.allclose(rho.matrix, ket_projector(1, 0, 0, 0), atol=1e-12)

    def test_even_mixture_computational(self):
        rho = classical_state(ClassicalSpec(probabilities=[0.5, 0, 0, 0.5]))
        expect = (ket_projector(1, 0, 0, 0) + ket_projector(0, 0, 0, 1)) / 2
        assert np.allclose(rho.matrix, expect, atol=1e-12)
        spec, _ = bloch_decompose(rho)
        assert np.allclose(spec.c, [0, 0, 1], atol=1e-12)

    def test_even_mixture_x_bases(self):
        x_basis = (np.pi / 2, 0.0)
        rho = classical_state(
            ClassicalSpec(probabilities=[0.5, 0, 0, 0.5], basis_a=x_basis, basis_b=x_basis)
        )
        # basis rotation oracle: build the same mixture from |+>, |-> kets
        plus = ket_projector(1 / np.sqrt(2), 1 / np.sqrt(2))
        minus = ket_projector(1 / np.sqrt(2), -1 / np.sqrt(2))
        expect = (np.kron(plus, plus) + np.kron(minus, minus)) / 2
        assert np.allclose(rho.matrix, expect, atol=1e-12)
        spec, _ = bloch_decompose(rho)
        assert np.allclose(spec.c, [1, 0, 0], atol=1e-12)

    def test_bad_distribution(self):
        with pytest.raises(BadDistribution):
            ClassicalSpec(probabilities=[0.7, 0.7, -0.2, -0.2])
        with pytest.raises(BadDistribution):
            ClassicalSpec(probabilities=[0.3, 0.3, 0.3, 0.3])
        with pytest.raises(BadDistribution):
            ClassicalSpec(probabilities=[np.nan, 0.5, 0.25, 0.25])


class TestPartialTrace:
    def test_triplet_marginals_maximally_mixed(self):
        for side in ("a", "b"):
            assert np.allclose(partial_trace(triplet(), side), np.eye(2) / 2, atol=1e-12)

    def test_ket_01_keep_a(self):
        rho = DensityMatrix(ket_projector(0, 1, 0, 0))
        assert np.allclose(partial_trace(rho, "a"), [[1, 0], [0, 0]], atol=1e-12)

    def test_local_x_polarization(self):
        rho = from_bloch(BlochSpec(a=np.array([0.3, 0, 0])))
        assert np.allclose(partial_trace(rho, "a"), (np.eye(2) + 0.3 * SIGMA_X) / 2, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31))
    def test_trace_preserved(self, seed):
        rho = random_density_matrix(np.random.default_rng(seed))
        for side in ("a", "b"):
            assert abs(np.trace(partial_trace(rho, side)).real - 1) < 1e-12


class TestNormalizedTraceDistance:
    def test_identical_states(self):
        d = DeviationState(delta=np.kron(SIGMA_Z, SIGMA_Z))
        assert normalized_trace_distance(d, d) == 0

    def test_opposite_zz(self):
        d1 = DeviationState(delta=np.kron(SIGMA_Z, SIGMA_Z))
        d2 = DeviationState(delta=-np.kron(SIGMA_Z, SIGMA_Z))
        # difference has eigenvalues +/-2, each twice
        assert abs(normalized_trace_distance(d1, d2) - 4.0) < 1e-12

    def test_epsilon_mismatch(self):
        d1 = DeviationState(delta=np.zeros((4, 4)), epsilon=1e-5)
        d2 = DeviationState(delta=np.zeros((4, 4)), epsilon=1e-4)
        with pytest.raises(EpsilonMismatch):
            normalized_trace_distance(d1, d2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31))
    def test_symmetry_and_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        devs = [DeviationState(delta=random_traceless_hermitian(rng)) for _ in range(3)]
        d01 = normalized_trace_distance(devs[0], devs[1])
        d10 = normalized_trace_distance(devs[1], devs[0])
        d12 = normalized_trace_distance(devs[1], devs[2])
        d02 = normalized_trace_distance(devs[0], devs[2])
        assert abs(d01 - d10) < 1e-12
        assert d02 <= d01 + d12 + 1e-12


class TestJsonForms:
    def test_deviation_round_trip(self, rng):
        dev = DeviationState(delta=random_traceless_hermitian(rng), epsilon=3e-4)
        doc = json.loads(json.dumps(state_to_json(dev)))
        back = state_from_json(doc)
        assert isinstance(back, DeviationState)
        assert back.epsilon == dev.epsilon
        assert np.allclose(back.delta, dev.delta, atol=1e-15)

    def test_bloch_shorthand(self):
        doc = {"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}
        rho = state_from_json(doc)
        assert isinstance(rho, DensityMatrix)
        assert np.allclose(rho.matrix, triplet().matrix, atol=1e-12)

    def test_bloch_spec_serializes(self):
        spec = BlochSpec(c=np.array([0.1, 0.2, -0.3]))
        doc = state_to_json(spec)
        assert doc["bloch"]["c"] == [0.1, 0.2, -0.3]
