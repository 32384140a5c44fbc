import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrwitness import (
    BlochSpec,
    ClassicalSpec,
    DensityMatrix,
    DeviationState,
    classical_state,
    compose_deviation,
    extract_deviation,
    from_bloch,
    from_pauli_table,
    normalized_trace_distance,
    partial_trace,
    pauli_table,
    state_from_json,
)
from nmrwitness import prepare_state, states
from nmrwitness.errors import BadDistribution, EpsilonMismatch, NotAState
from nmrwitness.states import validate_deviations, validate_states
from nmrwitness.pauli import IDENTITY_4, SIGMA_X, SIGMA_Y, SIGMA_Z

import oracles
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

    @pytest.mark.parametrize("diagonal, message", [
        ([1e308, -1e308, 0.5, 0.5], "negative eigenvalue"),     # overflows the Gershgorin bound
        ([1e308, 1e308, -1e308, -1e308], "trace is"),           # the trace overflows to nan
    ])
    def test_rejects_huge_entries_without_warnings(self, diagonal, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAState, match=message):
                DensityMatrix(np.diag(diagonal).astype(complex))

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
    """Local Bloch vectors and correlations read off ``pauli_table``."""

    def test_maximally_mixed_all_zero(self):
        r = pauli_table(DensityMatrix(IDENTITY_4 / 4).matrix)
        assert np.allclose(r[1:, 0], 0) and np.allclose(r[0, 1:], 0)
        assert np.allclose(r[1:, 1:], 0)

    def test_round_trip(self):
        spec = BlochSpec(c=np.array([1.0, 1.0, -1.0]))
        r = pauli_table(from_bloch(spec).matrix)
        assert np.allclose(r.diagonal()[1:], spec.c, atol=1e-12)
        assert np.allclose(r[1:, 0], 0, atol=1e-12) and np.allclose(r[0, 1:], 0, atol=1e-12)

    def test_product_ket_00(self):
        rho = DensityMatrix(ket_projector(1, 0, 0, 0))
        r = pauli_table(rho.matrix)
        # direct trace computation: <sz x I> = <I x sz> = <sz x sz> = 1
        assert np.allclose(r[1:, 0], [0, 0, 1], atol=1e-12)
        assert np.allclose(r[0, 1:], [0, 0, 1], atol=1e-12)
        assert np.allclose(r.diagonal()[1:], [0, 0, 1], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_round_trip_random_diagonal_specs(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1, 1, size=3)
        try:
            rho = from_bloch(BlochSpec(c=c))
        except NotAState:
            return
        assert np.allclose(pauli_table(rho.matrix).diagonal()[1:], c, atol=1e-12)

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
        c = pauli_table(rho.matrix).diagonal()[1:]
        assert np.allclose(c, [2e-5, 2e-5, -2e-5], atol=1e-18)

    def test_classical_correlated_target_coefficients(self):
        rho = compose_deviation(DeviationState(delta=-np.kron(SIGMA_Z, SIGMA_Z), epsilon=1e-5))
        c = pauli_table(rho.matrix).diagonal()[1:]
        assert np.allclose(c, [0, 0, -4e-5], atol=1e-18)

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

    def test_overflowing_trace_rejected_without_warnings(self):
        # the trace of this delta overflows to nan, which must fail the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="deviation matrix has trace"):
                DeviationState(delta=np.diag([1e308, 1e308, -1e308, -1e308]))

    def test_pauli_table_is_read_only_and_kept(self, rng):
        """``pauli`` equals pauli_table bit for bit, is read-only and is
        computed once, on a DensityMatrix, a DeviationState and the views of
        a validated stack."""
        devs = [DeviationState(delta=random_traceless_hermitian(rng), epsilon=0.05) for _ in range(5)]
        stack = states.validate_deviations(np.array([d.delta for d in devs]), 0.05)
        for state, m in ([(d, d.delta) for d in devs]
                         + [(v, v.delta) for v in DeviationState.views(stack, 0.05)]
                         + [(compose_deviation(d), compose_deviation(d).matrix) for d in devs]):
            table = state.pauli
            assert table.tobytes() == pauli_table(m).tobytes() and table.shape == (4, 4)
            assert not table.flags.writeable and state.pauli is table
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

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
        assert np.allclose(pauli_table(rho.matrix).diagonal()[1:], [0, 0, 1], atol=1e-12)

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
        assert np.allclose(pauli_table(rho.matrix).diagonal()[1:], [1, 0, 0], atol=1e-12)

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
        doc = json.loads(json.dumps({"epsilon": dev.epsilon, "delta_re": dev.delta.real.tolist(),
                                     "delta_im": dev.delta.imag.tolist()}))
        back = state_from_json(doc)
        assert isinstance(back, DeviationState)
        assert back.epsilon == dev.epsilon
        assert np.allclose(back.delta, dev.delta, atol=1e-15)

    def test_bloch_shorthand(self):
        doc = {"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}
        rho = state_from_json(doc)
        assert isinstance(rho, DensityMatrix)
        assert np.allclose(rho.matrix, triplet().matrix, atol=1e-12)


def _outcome(fn, *args):
    """What a validator does with ``args``: ("ok", dtype, shape, bytes) of the
    returned array, or ("raise", exception type, message), and the warnings
    it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValueError as exc:
            result = ("raise", type(exc), str(exc))
        else:
            result = ("ok", out.dtype, out.shape, out.tobytes())
    return result, [(w.category, str(w.message)) for w in caught]


# The reference copies run quiet: the validators print no numpy warning
# when huge entries overflow their reductions.
@np.errstate(invalid="ignore", over="ignore")
def _reference_states(m):
    return oracles.validate_states_reference(m, NotAState, states.HERMITICITY_TOL,
                                             states.TRACE_TOL, states.PSD_TOL)


@np.errstate(invalid="ignore", over="ignore")
def _reference_deviations(d, epsilon):
    return oracles.validate_deviations_reference(d, epsilon, states.HERMITICITY_TOL,
                                                 states.TRACE_TOL)


# Faults for the equivalence tests: gross ones, and ones on either side of a
# tolerance, between the fused pass's margin and the tolerance itself.
STATE_FAULTS = ("non_hermitian", "trace", "negative_eigenvalue", "nan", "inf",
                "gap_0.6", "gap_1.1", "trace_0.6", "trace_1.1", "imag_trace",
                "eig_at_psd_tol", "huge")
DEVIATION_FAULTS = ("non_hermitian", "trace", "nan", "inf", "gap_0.6", "gap_1.1",
                    "trace_0.6", "trace_1.1", "imag_trace", "huge")


# The tests apply "huge" faults last (eigh cannot build a fault on a matrix
# that holds them); a second one on the same matrix may overflow to inf, which
# is a fault all the same.
@np.errstate(over="ignore", invalid="ignore")
def _fault(m: np.ndarray, fault: str, rng: np.random.Generator) -> np.ndarray:
    m = np.array(m, dtype=complex)
    if fault in ("non_hermitian", "trace", "negative_eigenvalue", "nan"):
        return _corrupt(m, fault)
    if fault == "inf":
        m[1, 2] = [np.inf, -np.inf, complex(0.0, np.inf)][rng.integers(3)]
    elif fault.startswith("gap_"):
        m[0, 3] += float(fault[4:]) * states.HERMITICITY_TOL
    elif fault.startswith("trace_"):
        m += float(fault[6:]) * states.TRACE_TOL / 4 * np.eye(4)
    elif fault == "imag_trace":
        m[2, 2] += 1.5j * states.TRACE_TOL
    elif fault == "huge":
        # finite entries near the float limit whose sums overflow: a Hermitian
        # or an anti-Hermitian off-diagonal pair, or one sign added to the
        # whole diagonal.  (A mixed-sign diagonal is left out for the sake of
        # stacks: its trace is inf, nan or zero depending on the order of
        # summation, and the fused pass adds in another order than np.trace.
        # One matrix adds as np.trace does; test_one_matrix_agrees_near_the_
        # float_limit covers it.)
        big = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(307.7, 308.2)
        i, j = rng.choice(4, 2, replace=False)
        if rng.integers(3):
            m[i, j], m[j, i] = big, big * rng.choice([-1.0, 1.0])
        else:
            m += big * np.eye(4)
    elif fault == "eig_at_psd_tol":
        evals, vecs = np.linalg.eigh(m)
        evals[0] = states.PSD_TOL + rng.uniform(-1e-11, 1e-11)
        evals[1:] += (1.0 - evals.sum()) / 3
        m = vecs @ np.diag(evals) @ vecs.conj().T
    return m


def _base_states(rng: np.random.Generator, shape: tuple, family: str) -> np.ndarray:
    """Valid density matrices: near the maximally mixed state as NMR states
    are, Ginibre states, or pure states."""
    out = np.empty(shape + (4, 4), dtype=complex)
    for k in np.ndindex(*shape):
        if family == "nmr":
            delta = random_traceless_hermitian(rng)
            out[k] = IDENTITY_4 / 4 + 1e-5 * delta / np.abs(np.linalg.eigvalsh(delta)).max()
        elif family == "ginibre":
            out[k] = random_density_matrix(rng).matrix
        else:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            out[k] = np.outer(v, v.conj()) / np.vdot(v, v).real
    return out


STACK_SHAPES = [(), (1,), (5,), (2, 3)]


class TestFusedValidators:
    """The fused validators against the per-condition reference copies in
    tests/oracles.py: same inputs accepted, with the same array returned,
    and the same rejected, with the same exception type and message (which
    names the first failing member of a stack)."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(STACK_SHAPES),
           st.sampled_from(["nmr", "ginibre", "pure"]),
           st.lists(st.tuples(st.integers(0, 5), st.sampled_from(STATE_FAULTS)), max_size=3))
    def test_states_match_reference(self, seed, shape, family, faults):
        rng = np.random.default_rng(seed)
        m = _base_states(rng, shape, family)
        members = list(np.ndindex(*shape))
        for k, fault in sorted(faults, key=lambda kf: kf[1] == "huge"):
            member = members[k % len(members)]
            m[member] = _fault(m[member], fault, rng)
        want = _outcome(_reference_states, m)
        assert _outcome(validate_states, m) == want
        if not shape:
            assert _outcome(lambda x: DensityMatrix(x).matrix, m) == want

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(STACK_SHAPES),
           st.lists(st.tuples(st.integers(0, 5), st.sampled_from(DEVIATION_FAULTS)), max_size=3),
           st.sampled_from([1e-5, 0.3, 0.0, -1e-5, np.nan, np.inf]))
    def test_deviations_match_reference(self, seed, shape, faults, epsilon):
        rng = np.random.default_rng(seed)
        d = np.empty(shape + (4, 4), dtype=complex)
        for k in np.ndindex(*shape):
            d[k] = random_traceless_hermitian(rng)
        members = list(np.ndindex(*shape))
        for k, fault in sorted(faults, key=lambda kf: kf[1] == "huge"):
            member = members[k % len(members)]
            d[member] = _fault(d[member], fault, rng)
        assert _outcome(validate_deviations, d, epsilon) == _outcome(_reference_deviations, d, epsilon)

    @pytest.mark.parametrize("shape", [(), (1,)])
    def test_every_fault_meets_both_passes(self, shape):
        """Each fault on its own, on one matrix (the scalar pass) and on a
        stack of one (the fused pass), over every base family."""
        rng = np.random.default_rng(21)
        for fault in STATE_FAULTS:
            for family in ("nmr", "ginibre", "pure"):
                for _ in range(4):
                    m = _fault(_base_states(rng, (), family), fault, rng).reshape(shape + (4, 4))
                    assert _outcome(validate_states, m) == _outcome(_reference_states, m), fault
        for fault in DEVIATION_FAULTS:
            for _ in range(12):
                d = _fault(random_traceless_hermitian(rng), fault, rng).reshape(shape + (4, 4))
                assert (_outcome(validate_deviations, d, 1e-5)
                        == _outcome(_reference_deviations, d, 1e-5)), fault

    def test_one_matrix_agrees_near_the_float_limit(self):
        """+big and -big on two diagonal entries of a traceless deviation:
        its trace is what is left of the small entries, or inf or nan.  One
        matrix reads it in np.trace's order, as the reference does."""
        rng = np.random.default_rng(14)
        accepted = 0
        for _ in range(2000):
            d = np.array(random_traceless_hermitian(rng), dtype=complex)
            big = 10.0 ** rng.uniform(307.5, 308.2)
            i, j = rng.choice(4, 2, replace=False)
            d[i, i] += big
            d[j, j] -= big
            want = _outcome(_reference_deviations, d, 1e-5)
            assert _outcome(validate_deviations, d, 1e-5) == want
            accepted += want[0][0] == "ok"
        assert 0 < accepted < 2000, accepted

    @pytest.mark.parametrize("shape", [(), (4,), (3, 3), (4, 5), (5, 4, 3), (0, 4, 4), (2, 0, 4, 4)])
    def test_shapes_match_reference(self, shape):
        m = np.full(shape, 0.25, dtype=complex)
        assert _outcome(validate_states, m) == _outcome(_reference_states, m)
        assert _outcome(validate_deviations, m, 1e-5) == _outcome(_reference_deviations, m, 1e-5)

    def test_returns_a_new_array(self):
        m, d = IDENTITY_4 / 4, np.zeros((4, 4), dtype=complex)
        assert validate_states(m) is not m and validate_deviations(d, 1e-5) is not d

    def test_density_matrix_freezes_the_validated_copy(self):
        m = np.eye(4, dtype=complex) / 4
        rho = DensityMatrix(m)
        m[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.25 and not rho.matrix.flags.writeable


class TestPositivityCertificate:
    @staticmethod
    def _near_psd_tol(rng: np.random.Generator) -> np.ndarray:
        """A unit-trace Hermitian matrix whose smallest eigenvalue lies within
        1e-9 of PSD_TOL (signed offsets, log-uniform down to 1e-14), of one of
        three shapes: diagonal, or one where the Gershgorin bound equals the
        smallest eigenvalue (c I + b (I - s s^H) with unit-modulus s, or a 2x2
        block a I + b sigma in a diagonal rest).  Then a Hermitian jitter and
        an anti-Hermitian nudge of Hermiticity gap up to HERMITICITY_TOL."""
        low = states.PSD_TOL + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-14, -9)
        kind = rng.integers(3)
        if kind == 0:
            rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
            m = np.diag(np.concatenate(([low], rest))).astype(complex)
        elif kind == 1:
            s = np.exp(2j * np.pi * rng.uniform(size=4))
            b = (0.25 - low) / 3
            m = 0.25 * IDENTITY_4 + b * (IDENTITY_4 - np.outer(s, s.conj()))
        else:
            a = rng.uniform(0.05, 0.45)
            rest = rng.dirichlet(np.ones(2)) * (1.0 - 2 * a)
            m = np.diag([a, a, *rest]).astype(complex)
            m[0, 1] = (a - low) * np.exp(2j * np.pi * rng.uniform())
            m[1, 0] = np.conj(m[0, 1])
            perm = rng.permutation(4)
            m = m[perm][:, perm]
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m += 10.0 ** rng.uniform(-17, -12) * (g + g.conj().T) * (1 - IDENTITY_4)
        nudge = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        nudge = (nudge - nudge.conj().T) * (1 - IDENTITY_4)
        return m + nudge * (states.HERMITICITY_TOL / 2 / np.abs(nudge).max() * rng.uniform() ** 3)

    def test_never_certifies_below_psd_tol(self):
        """The certificate never passes a state whose eigvalsh minimum is
        below PSD_TOL, and the validator agrees with the reference on every
        state, including those close to the bound on either side."""
        rng = np.random.default_rng(8)
        certified = close = rejected = 0
        for _ in range(4000):
            m = self._near_psd_tol(rng)
            cert = states._positivity_certified(m)
            low = np.linalg.eigvalsh(m).min()
            assert not (cert and low < states.PSD_TOL), (low, m)
            certified += cert
            close += cert and low < states.PSD_TOL + 1e-11
            rejected += low < states.PSD_TOL
            assert _outcome(validate_states, m) == _outcome(_reference_states, m)
        # both sides of the bound are well represented, and so is its edge
        assert certified > 500 and rejected > 500 and close > 20, (certified, close, rejected)

    def _count_eigvalsh(self, monkeypatch) -> list:
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_nmr_state_is_certified_and_bell_state_falls_back(self, monkeypatch):
        qc = prepare_state("QC").matrix
        # (|0+> + |1->)/sqrt(2): every entry is +-1/4, so every Gershgorin
        # row is 1/2 - 1 < 0.  (A Bell state of the computational basis has
        # rows of exactly 0 and is certified.)
        bell = ket_projector(0.5, 0.5, 0.5, -0.5)
        calls = self._count_eigvalsh(monkeypatch)
        validate_states(qc)
        DensityMatrix(qc)
        validate_states(np.array([qc] * 6))
        validate_states(ket_projector(1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)))
        assert calls == []
        validate_states(bell)
        assert calls == [(4, 4)]
        validate_states(np.array([qc, bell]))
        assert calls == [(4, 4), (2, 4, 4)]

    @pytest.mark.parametrize("shape", [(), (1,)])
    @pytest.mark.parametrize("row", range(4))
    def test_each_row_of_the_bound_counts(self, monkeypatch, shape, row):
        """A 2x2 block [[0.4, c], [c, 0.1]] in a diagonal rest: the bound of
        the block's light row, 0.1 - c, is negative while the other rows
        pass.  At c = 0.15 the state is positive, so eigvalsh must settle
        it; at c = 0.25 it is not, and must be rejected."""
        calls = self._count_eigvalsh(monkeypatch)
        for c in (0.15, 0.25):
            m = np.diag([0.4, 0.1, 0.25, 0.25]).astype(complex)
            m[0, 1] = m[1, 0] = c
            perm = np.roll(np.arange(4), row - 1)     # the light row lands on ``row``
            m = m[np.ix_(perm, perm)].reshape(shape + (4, 4))
            calls.clear()
            got = _outcome(validate_states, m)
            assert calls == [shape + (4, 4)]
            assert got == _outcome(_reference_states, m)
