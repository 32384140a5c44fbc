import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nmrwitness import (
    BlochSpec,
    ClassicalSpec,
    DensityMatrix,
    DeviationState,
    WitnessDirection,
    classical_state,
    from_bloch,
    partial_trace,
    pauli_table,
    prepare_deviation,
    prepare_state,
    protocol_state,
    readout_sigma_x_a,
    rotation,
    sample_direction,
    symmetric_discord,
    witness,
)
from nmrwitness.circuit import (
    CNOT,
    PROTOCOL_ROTATIONS,
    STEP_OBSERVABLES,
    STEP_PAULI_OBSERVABLES,
    STEP_UNITARIES,
    _checked_readouts,
    _checked_unitary,
    witness_range,
    witness_sum,
)
from nmrwitness import states
from nmrwitness.errors import BadIndex, EpsilonMismatch
from nmrwitness.harness import DEFAULT_NOISE_LEVEL, perturb_deviation
from nmrwitness.nmr import (
    SpinSystemParams,
    pulse_protocol_state,
    pulse_step_observables,
    pulse_step_unitaries,
)
from nmrwitness.pauli import IDENTITY_2, IDENTITY_4, SIGMA_X, SIGMA_Y, SIGMA_Z, on_a, su2
from nmrwitness.states import compose_deviation

from conftest import ket_projector, random_density_matrix, random_traceless_hermitian, triplet
from oracles import (
    bell_diagonal_correlations,
    pauli_pair_expectation,
    pauli_readout_table,
    pauli_table_matmul,
    witness_matmul,
)


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.allclose(rotation("y", 0.0), IDENTITY_2)

    def test_matches_matrix_exponential(self):
        # independent oracle: scipy expm
        for axis, sigma in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
            for angle in (0.3, np.pi / 2, -1.7, 2 * np.pi):
                assert np.allclose(rotation(axis, angle), expm(-1j * angle * sigma / 2), atol=1e-12)

    def test_su2_closed_form_matches_matrix_exponential(self):
        # expm serves only as the oracle here; the package builds every
        # single-qubit rotation with the closed form.
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            angle = rng.uniform(-2 * np.pi, 2 * np.pi)
            n_sigma = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
            assert np.max(np.abs(su2(angle, n) - expm(-1j * angle * n_sigma / 2))) <= 1e-15

    def test_y_half_turn_conjugates_z_to_x(self):
        r = rotation("y", np.pi / 2)
        assert np.allclose(r @ SIGMA_Z @ r.conj().T, SIGMA_X, atol=1e-12)

    def test_z_half_turn_conjugates_x_to_y(self):
        r = rotation("z", np.pi / 2)
        assert np.allclose(r @ SIGMA_X @ r.conj().T, SIGMA_Y, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            rotation("w", 0.1)


class TestGates:
    def test_checked_unitary_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            _checked_unitary(np.diag([1.0, 0.5, 1.0, 1.0]), "scaled")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_checked_unitary_rejects_non_finite(self, bad):
        # max|u u^dag - I| is NaN here, and NaN > tol is False
        u = IDENTITY_4.copy()
        u[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="nonfinite is not unitary"):
            _checked_unitary(u, "nonfinite")

    @given(st.sampled_from(["x", "y", "z"]), st.floats(-10, 10))
    def test_checked_unitary_accepts_pair_rotations(self, axis, angle):
        r = rotation(axis, angle)
        u = _checked_unitary(np.kron(r, r), "pair rotation")
        assert np.array_equal(u, np.kron(r, r)) and not u.flags.writeable

    def test_cnot_flips_target_on_excited_control(self):
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(CNOT @ ket10, [0, 0, 0, 1])

    def test_cnot_conjugation_identity(self):
        # matrix product oracle for the readout identity
        lhs = CNOT @ np.kron(SIGMA_X, IDENTITY_2) @ CNOT
        assert np.allclose(lhs, np.kron(SIGMA_X, SIGMA_X), atol=1e-12)

    def test_cnot_involution(self):
        assert np.array_equal(CNOT @ CNOT, IDENTITY_4)
        with pytest.raises(ValueError):
            CNOT[0, 0] = 0.0

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_step_unitaries_are_the_protocol_gates(self, i):
        u = STEP_UNITARIES[i - 1]
        assert np.max(np.abs(u @ u.conj().T - IDENTITY_4)) <= 1e-15
        axis, angle = PROTOCOL_ROTATIONS[i]
        # the gates written out: CNOT as a permutation, R x R from expm
        cnot = np.eye(4)[[0, 1, 3, 2]]
        r = IDENTITY_2 if axis is None else expm(-1j * angle * {"y": SIGMA_Y, "z": SIGMA_Z}[axis] / 2)
        assert np.max(np.abs(u - cnot @ np.kron(r, r))) <= 1e-15
        with pytest.raises(ValueError):
            STEP_UNITARIES[i - 1, 0, 0] = 0.0


class TestProtocol:
    def test_identity_on_maximally_mixed(self):
        rho = DensityMatrix(IDENTITY_4 / 4)
        assert np.allclose(protocol_state(rho, 1).matrix, IDENTITY_4 / 4)

    def test_triplet_step_one_reads_xx(self):
        xi = protocol_state(triplet(), 1)
        assert abs(readout_sigma_x_a(xi) - 1.0) < 1e-12

    def test_zz_state_step_three(self):
        rho = from_bloch(BlochSpec(c=np.array([0.0, 0.0, -1.0])))
        xi = protocol_state(rho, 3)
        assert abs(readout_sigma_x_a(xi) - (-1.0)) < 1e-12

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            protocol_state(triplet(), 4)

    def test_trace_preserved(self, rng):
        rho = random_density_matrix(rng)
        for i in (1, 2, 3):
            assert abs(np.trace(protocol_state(rho, i).matrix).real - 1) < 1e-12

    def test_circuit_equals_direct_correlations(self):
        # the load-bearing identity: step i reads tr(rho s_i s_i)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            rho = random_density_matrix(rng)
            for i in (1, 2, 3):
                via_circuit = readout_sigma_x_a(protocol_state(rho, i))
                direct = pauli_pair_expectation(rho, i)
                worst = max(worst, abs(via_circuit - direct))
        assert worst <= 1e-10


def _step_stack(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(step unitaries, readout table) of the ideal gates or a pulse model."""
    if name == "ideal":
        return STEP_UNITARIES, STEP_OBSERVABLES
    return pulse_step_unitaries(SpinSystemParams(), name), pulse_step_observables(SpinSystemParams(), name)


class TestLinearReadout:
    """witness reads tr(m A_i) from the constant readout table of
    A_i = U_i^dag (sigma_x x I) U_i; the Schrodinger-picture protocol_state
    + readout_sigma_x_a on the step unitaries is its check."""

    @pytest.mark.parametrize("stack", ["ideal", "instantaneous", "finite"])
    def test_matches_the_post_circuit_states(self, stack, rng):
        u, table = _step_stack(stack)
        for _ in range(50):
            rho = random_density_matrix(rng)
            got = witness(rho, sample_direction(1), table=table).o[:3]
            want = [readout_sigma_x_a(protocol_state(rho, i, u)) for i in (1, 2, 3)]
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("stack", ["ideal", "instantaneous", "finite"])
    def test_readout_tables_are_read_only_constants(self, stack):
        _, table = _step_stack(stack)
        assert table.shape == (16, 3)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        assert _step_stack(stack)[1] is table

    @pytest.mark.parametrize("stack", ["ideal", "instantaneous", "finite"])
    @pytest.mark.parametrize("epsilon", [1e-5, 0.05])
    def test_deviation_reads_epsilon_times_delta(self, stack, epsilon, rng):
        u, table = _step_stack(stack)
        direction = sample_direction(3)
        for _ in range(20):
            delta = random_traceless_hermitian(rng) / 16
            a, b = partial_trace(delta, "a"), partial_trace(delta, "b")
            o4 = sum(direction.z[k] * np.trace(a @ s).real + direction.w[k] * np.trace(b @ s).real
                     for k, s in enumerate((SIGMA_X, SIGMA_Y, SIGMA_Z)))
            want = epsilon * np.array([np.trace(v @ delta @ v.conj().T @ np.kron(SIGMA_X, IDENTITY_2)).real
                                       for v in u] + [o4])
            got = witness(DeviationState(delta=delta, epsilon=epsilon), direction, table=table).o
            assert np.max(np.abs(got - want)) <= 1e-15 * epsilon

    def test_pauli_basis_table_matches_the_oracle(self):
        assert STEP_PAULI_OBSERVABLES.shape == (16, 3)
        with pytest.raises(ValueError):
            STEP_PAULI_OBSERVABLES[0, 0] = 0.0
        assert np.max(np.abs(STEP_PAULI_OBSERVABLES - pauli_readout_table(STEP_UNITARIES))) <= 1e-15

    def test_pauli_basis_table_reads_the_pauli_table(self, rng):
        # the sweep reads its relaxed Pauli tables without composing m
        for _ in range(20):
            m = random_traceless_hermitian(rng)
            got = pauli_table(m).reshape(16) @ STEP_PAULI_OBSERVABLES
            want = [np.trace(v @ m @ v.conj().T @ np.kron(SIGMA_X, IDENTITY_2)).real
                    for v in STEP_UNITARIES]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(m))

    @pytest.mark.parametrize("model", ["instantaneous", "finite"])
    def test_witness_circuit_mode_reads_the_given_table(self, model, rng):
        table = pulse_step_observables(SpinSystemParams(), model)
        for k in range(10):
            direction = sample_direction(k)
            for state in (random_density_matrix(rng),
                          DeviationState(delta=random_traceless_hermitian(rng) / 16, epsilon=0.05)):
                got = witness(state, direction, "circuit", table=table).o
                assert got.tobytes() == witness(state, direction, table=table).o.tobytes()
                if model == "finite":    # off the ideal gates by about 1e-3
                    assert not np.array_equal(got, witness(state, direction, "circuit").o)

    def test_readout_bounds_are_checked(self):
        assert _checked_readouts([1.0, -1.0, 0.5, 2.0]).tolist() == [1.0, -1.0, 0.5, 2.0]
        with pytest.raises(ValueError, match="exceeds its bound 1.0"):
            _checked_readouts([0.0, 1.1, 0.0, 0.0])
        with pytest.raises(ValueError, match="exceeds its bound 2.0"):
            _checked_readouts([0.0, 0.0, 0.0, -2.5])
        with pytest.raises(ValueError, match="exceeds its bound 1.0"):
            _checked_readouts(np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 1.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_readout_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"readout {bad} exceeds its bound 1.0"):
            _checked_readouts([bad, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"readout {bad} exceeds its bound 2.0"):
            _checked_readouts([0.0, 0.0, 0.0, bad])
        stack = np.full((3, 2, 3), 0.5)
        stack[2, 1, 0] = bad
        with pytest.raises(ValueError, match=f"readout {bad} exceeds its bound 1.0"):
            _checked_readouts(stack)


class TestReadout:
    def test_maximally_mixed_reads_zero(self):
        assert abs(readout_sigma_x_a(DensityMatrix(IDENTITY_4 / 4))) < 1e-12

    @pytest.mark.parametrize("model", ["instantaneous", "finite"])
    def test_closed_form_equals_the_expectation_bitwise(self, model):
        """On noisy pulse-level states after each pulse-level circuit step."""
        params, rng = SpinSystemParams(), np.random.default_rng(5)
        sigma_x_a = on_a(SIGMA_X)
        for k in range(50):
            dev = prepare_deviation(("QC", "pseudo_pure_11")[k % 2], params, level="pulse", model=model)
            rho = compose_deviation(perturb_deviation(dev, DEFAULT_NOISE_LEVEL, rng))
            for i in (1, 2, 3):
                xi = pulse_protocol_state(rho, i, params, model)
                got = readout_sigma_x_a(xi)
                assert type(got) is float and got == xi.expectation(sigma_x_a)

    def test_plus_state_reads_one(self):
        plus = ket_projector(1 / np.sqrt(2), 1 / np.sqrt(2))
        rho = DensityMatrix(np.kron(plus, IDENTITY_2 / 2))
        assert abs(readout_sigma_x_a(rho) - 1.0) < 1e-12


class TestLocalMagnetizations:
    """The local Bloch vectors that O_4 reads, a = R[1:, 0] and b = R[0, 1:]
    of the Pauli table."""

    def test_bell_diagonal_zero(self):
        r = pauli_table(triplet().matrix)
        assert np.allclose(r[1:, 0], 0, atol=1e-12) and np.allclose(r[0, 1:], 0, atol=1e-12)

    def test_ket_00(self):
        r = pauli_table(ket_projector(1, 0, 0, 0))
        assert np.allclose(r[1:, 0], [0, 0, 1], atol=1e-12)
        assert np.allclose(r[0, 1:], [0, 0, 1], atol=1e-12)

    def test_thermal_ratio(self):
        params = SpinSystemParams()
        r = pauli_table(prepare_state("thermal", params).matrix)
        a, b = r[1:, 0], r[0, 1:]
        assert abs(a[2] / b[2] - params.gamma_ratio) < 1e-9
        assert np.allclose(a[:2], 0, atol=1e-15) and np.allclose(b[:2], 0, atol=1e-15)


class TestSampleDirection:
    @given(st.integers(0, 2**31))
    def test_unit_norm(self, seed):
        d = sample_direction(seed)
        assert abs(d.z @ d.z - 1) <= 1e-12 and abs(d.w @ d.w - 1) <= 1e-12

    def test_deterministic(self):
        d1, d2 = sample_direction(99), sample_direction(99)
        assert np.array_equal(d1.z, d2.z) and np.array_equal(d1.w, d2.w)

    def test_no_collisions_across_seeds(self):
        seen = {tuple(np.round(sample_direction(s).z, 12)) for s in range(1000)}
        assert len(seen) == 1000

    def test_direction_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            WitnessDirection(z=[np.nan, 0, 0], w=[0, 0, 1])
        with pytest.raises(ValueError, match="non-finite"):
            WitnessDirection(z=[0, 0, 1], w=[np.inf, 0, 0])


class TestWitness:
    def test_triplet_value_three(self):
        for seed in (0, 1, 2):
            rep = witness(triplet(), sample_direction(seed))
            assert abs(rep.w - 3.0) < 1e-9

    def test_classical_bell_diagonal_zero(self):
        rho = from_bloch(BlochSpec(c=np.array([0.0, 0.0, -0.9])))
        rep = witness(rho, sample_direction(5))
        assert rep.w < 1e-12

    def test_one_sided_for_product_ket(self):
        # |00><00| with z = w = z-hat: |<O3><O4>| = 1 * 2
        rho = DensityMatrix(ket_projector(1, 0, 0, 0))
        d = type(sample_direction(0))(z=np.array([0.0, 0.0, 1.0]), w=np.array([0.0, 0.0, 1.0]))
        rep = witness(rho, d)
        assert abs(rep.w - 2.0) < 1e-12

    def test_modes_agree(self, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            d = sample_direction(3)
            wc = witness(rho, d, mode="circuit")
            wd = witness(rho, d, mode="direct")
            assert abs(wc.w - wd.w) <= 1e-10
            assert np.max(np.abs(wc.o - wd.o)) <= 1e-10

    def test_bell_diagonal_direction_independent(self):
        rho = from_bloch(BlochSpec(c=np.array([0.5, -0.4, 0.3])))
        rep = witness(rho, sample_direction(0))
        w_min, w_max = witness_range(rho, rep)
        assert w_max - w_min <= 1e-12 and abs(rep.w - w_min) <= 1e-12

    def test_balanced_classical_shared_pauli_basis_zero(self):
        # uniform-marginal mixtures in a shared Pauli eigenbasis are
        # Bell-diagonal with a single correlation coefficient, so W = 0
        bases = {"z": (0.0, 0.0), "x": (np.pi / 2, 0.0), "y": (np.pi / 2, np.pi / 2)}
        for axis, angles in bases.items():
            for alpha in (0.0, 0.17, 0.33, 0.5):
                spec = ClassicalSpec(
                    probabilities=[alpha, 0.5 - alpha, 0.5 - alpha, alpha],
                    basis_a=angles, basis_b=angles,
                )
                for seed in (0, 11):
                    rep = witness(classical_state(spec), sample_direction(seed))
                    assert rep.w <= 1e-12, (axis, alpha)

    def test_zero_witness_with_nonzero_discord(self):
        # W does not certify classicality: a Bell-diagonal state after a local
        # z rotation has only off-diagonal correlations, which no O_i reads
        rho = DensityMatrix(IDENTITY_4 / 4
                            + 0.4 * (np.kron(SIGMA_X, SIGMA_Y) + np.kron(SIGMA_Y, SIGMA_X)) / 4)
        # at every direction: the largest W over all of them is 0
        assert witness_range(rho, witness(rho, sample_direction(0)))[1] <= 1e-12
        assert abs(symmetric_discord(rho).quantum - 0.1468) <= 1e-4

    def test_positive_witness_on_classical_state(self):
        # nor does W > 0 certify quantumness: a z-basis mixture without
        # uniform marginals reads W > 0 through the O_4 terms alone
        rho = classical_state(ClassicalSpec(probabilities=[0.5, 0.2, 0.2, 0.1]))
        rep = witness(rho, sample_direction(0))
        assert abs(rep.w - 0.1211) <= 1e-4
        w3 = witness(rho, sample_direction(0), include_o4=False).w
        assert w3 <= 1e-12 and w3 == witness_range(rho, rep)[0]
        assert abs(symmetric_discord(rho).quantum) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2**31), st.booleans(),
           st.sampled_from(["raw", "thermal"]), st.sampled_from(["circuit", "direct"]))
    def test_range_holds_every_direction(self, state_seed, dir_seed, deviation, normalization,
                                         mode):
        # W_min <= W <= W_max at a sampled direction, and W_max is reached
        # at z = a/|a|, w = b/|b|, read in direct mode
        rng = np.random.default_rng(state_seed)
        if deviation:
            state = DeviationState(delta=random_traceless_hermitian(rng) / 16, epsilon=0.05)
        else:
            state = random_density_matrix(rng)
        epsilon = None if deviation else 0.05
        rep = witness(state, sample_direction(dir_seed), mode, normalization, epsilon)
        w_min, w_max = witness_range(state, rep, epsilon)
        assert w_min * (1 - 1e-12) <= rep.w <= w_max * (1 + 1e-12)
        a, b = state.pauli[1:, 0], state.pauli[0, 1:]
        top = WitnessDirection(z=a / np.linalg.norm(a), w=b / np.linalg.norm(b))
        assert abs(witness(state, top, "direct", normalization, epsilon).w - w_max) \
            <= 1e-12 * w_max

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_nonnegative(self, state_seed, dir_seed):
        rho = random_density_matrix(np.random.default_rng(state_seed))
        assert witness(rho, sample_direction(dir_seed)).w >= 0

    def test_thermal_normalization(self):
        rho = from_bloch(BlochSpec(c=np.array([2e-5, 2e-5, -2e-5])))
        rep = witness(rho, sample_direction(1), normalization="thermal", epsilon=1e-5)
        assert abs(rep.w - 3.0) < 1e-9
        assert np.allclose(rep.o[:3], [1, 1, -1], atol=1e-9)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, np.nan, np.inf])
    def test_thermal_epsilon_must_be_positive_finite(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            witness_sum([1e-5, 1e-5, -1e-5, 0.0], normalization="thermal", epsilon=epsilon)

    @pytest.mark.parametrize("mode", ["circuit", "direct"])
    @pytest.mark.parametrize("include_o4", [True, False])
    def test_deviation_carries_its_epsilon(self, mode, include_o4, rng):
        for dev in (prepare_deviation("QC", SpinSystemParams()),
                    DeviationState(delta=random_traceless_hermitian(rng) / 16, epsilon=0.05)):
            for seed in range(5):
                d = sample_direction(seed)
                got = witness(dev, d, mode, "thermal", include_o4=include_o4)
                want = witness(dev, d, mode, "thermal", dev.epsilon, include_o4)
                assert got.o.tobytes() == want.o.tobytes() and got.w == want.w

    def test_deviation_rejects_another_epsilon(self):
        # the ideal QC deviation at 1e-5 reads W = 3 in thermal units; read
        # at 1e-3 it would give 3e-4 with no sign of the mix-up
        dev = prepare_deviation("QC", SpinSystemParams(epsilon=1e-5))
        assert abs(witness(dev, sample_direction(0), normalization="thermal").w - 3.0) < 1e-9
        for normalization in ("thermal", "raw"):
            for mode in ("circuit", "direct"):
                with pytest.raises(EpsilonMismatch, match="1e-05"):
                    witness(dev, sample_direction(0), mode, normalization, epsilon=1e-3)

    @pytest.mark.parametrize("stack", ["ideal", "instantaneous", "finite"])
    def test_matches_the_matmul_oracle_bitwise(self, stack, rng):
        """o and W, as bytes, equal those of the witness written with @
        products and a numpy pair sum, on states and deviations, in both
        modes and both normalizations; so do the Pauli table and the step
        states that the one-matrix ndarray.dot paths compute."""
        u, table = _step_stack(stack)
        params = SpinSystemParams()
        devs = [prepare_deviation(kind, params, level="pulse", model=model)
                for kind in ("QC", "pseudo_pure_11") for model in ("instantaneous", "finite")]
        devs += [DeviationState(delta=random_traceless_hermitian(rng) / 16, epsilon=0.05)
                 for _ in range(20)]
        for k, dev in enumerate(devs):
            d = sample_direction(k)
            for state, m, units in ((dev, dev.delta, dev.epsilon), (dev.rho, dev.rho.matrix, 1.0)):
                assert state.pauli.tobytes() == pauli_table_matmul(m).tobytes()
                for mode, normalization, include_o4 in itertools.product(
                        ("circuit", "direct"), ("raw", "thermal"), (True, False)):
                    rep = witness(state, d, mode, normalization, dev.epsilon, include_o4, table=table)
                    o, w = witness_matmul(m, units, d.z, d.w, mode, table, normalization,
                                          dev.epsilon, include_o4)
                    assert rep.o.tobytes() == o.tobytes()
                    assert type(rep.w) is float and np.float64(rep.w).tobytes() == w.tobytes()
            for i, v in enumerate(u, start=1):
                want = v @ dev.rho.matrix @ v.conj().T
                assert protocol_state(dev.rho, i, u).matrix.tobytes() == want.tobytes()

    @staticmethod
    def _pair_loop(o: np.ndarray, include_o4: bool):
        """W as a nested loop over the pairs i < j, adding left to right."""
        n_obs = 4 if include_o4 else 3
        w = np.zeros(o.shape[:-1])
        for i in range(n_obs):
            for j in range(i + 1, n_obs):
                w = w + np.abs(o[..., i] * o[..., j])
        return w

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from([(4,), (1, 4), (9, 4), (2, 3, 4)]),
           st.booleans())
    def test_witness_sum_bitwise_equals_pair_loop(self, seed, shape, include_o4):
        rng = np.random.default_rng(seed)
        # magnitudes over many decades, so the order of the additions shows
        o = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, size=shape)
        want = self._pair_loop(o, include_o4)
        _, got = witness_sum(o, include_o4=include_o4)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(["raw", "thermal"]), st.booleans())
    def test_witness_sum_vector_path_bitwise_equals_stack_path(self, seed, normalization, include_o4):
        rng = np.random.default_rng(seed)
        o = rng.standard_normal(4) * 10.0 ** rng.integers(-9, 9, size=4)
        epsilon = 10.0 ** rng.uniform(-6, 0)
        o_vec, w_vec = witness_sum(o, normalization, epsilon, include_o4)
        o_stack, w_stack = witness_sum(o[None], normalization, epsilon, include_o4)
        assert type(w_vec) is np.float64 and w_vec.tobytes() == w_stack[0].tobytes()
        assert o_vec.tobytes() == o_stack[0].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape, include_o4", [
        ((4,), True), ((4,), False), ((5, 4), True), ((2, 3, 4), False), ((7, 3), False)])
    def test_witness_sum_rejects_non_finite_readouts(self, bad, shape, include_o4):
        o = np.full(shape, 0.25)
        o[..., -1] = bad    # <O_4>, or <O_3> of a three-readout stack
        with pytest.raises(ValueError, match="readouts must be finite"):
            witness_sum(o, include_o4=include_o4)
        with pytest.raises(ValueError, match="readouts must be finite"):
            witness_sum(o, "thermal", 1e-5, include_o4)

    def test_nan_is_not_a_witness(self):
        with pytest.raises(ValueError, match="readouts must be finite"):
            witness_sum([np.nan, 0.1, 0.2, 0.3])

    def test_pauli_table_is_computed_once_per_state(self, monkeypatch, rng):
        calls = []
        pauli_table = states.pauli_table

        def counted(m):
            calls.append(np.shape(m))
            return pauli_table(m)

        monkeypatch.setattr(states, "pauli_table", counted)
        for state in (random_density_matrix(rng),
                      DeviationState(delta=random_traceless_hermitian(rng) / 16, epsilon=0.05)):
            calls.clear()
            for seed in range(3):
                for mode in ("circuit", "direct"):
                    witness(state, sample_direction(seed), mode, "thermal", epsilon=0.05)
            assert calls == [(4, 4)]

    def test_report_json_fields(self):
        rep = witness(triplet(), sample_direction(4), seed=4)
        doc = rep.to_json()
        assert set(doc) == {"o", "W", "mode", "seed", "normalization"}
        assert doc["seed"] == 4 and doc["normalization"] == "raw"

    @pytest.mark.parametrize("state", [triplet(), DeviationState(
        delta=np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y) - np.kron(SIGMA_Z, SIGMA_Z),
        epsilon=0.25)])
    def test_circuit_mode_checks_the_readout_bounds(self, state):
        # a table scaled by 1.5 reads |<O_i>| = 1.5 on the triplet (and
        # on the deviation whose state is the triplet), beyond the bound 1
        with pytest.raises(ValueError, match="exceeds its bound 1.0"):
            witness(state, sample_direction(0), "circuit", table=1.5 * STEP_OBSERVABLES)
        assert witness(state, sample_direction(0), "direct", table=1.5 * STEP_OBSERVABLES).w > 0

    def test_protocol_readout_bundle(self):
        out = witness(triplet(), sample_direction(2), table=STEP_OBSERVABLES)
        assert np.allclose(out.o[:3], [1, 1, -1], atol=1e-12)


class TestBellDiagonalClass:
    """On the Bell-diagonal class, a = b = 0 and T = diag(c), W is a closed
    form in c, and it is exactly 0 where the discord is 0."""

    @staticmethod
    def pair_sum(c) -> float:
        return abs(c[0] * c[1]) + abs(c[0] * c[2]) + abs(c[1] * c[2])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_witness_is_the_pair_sum_of_c(self, state_seed, dir_seed):
        # c of a Bell-diagonal state: its Bell-state weights times their
        # correlation signs (<xx>, <yy>, <zz>)
        weights = np.random.default_rng(state_seed).dirichlet(np.ones(4))
        c = weights @ np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
        rho = from_bloch(BlochSpec(c=c))
        for mode in ("circuit", "direct"):
            assert abs(witness(rho, sample_direction(dir_seed), mode).w - self.pair_sum(c)) <= 1e-12

    def test_witness_is_zero_exactly_where_the_discord_is(self):
        # every c of a grid with |c1| + |c2| + |c3| <= 0.9, so every one a state
        grid = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
        directions = [sample_direction(seed) for seed in range(3)]
        for c in itertools.product(grid, repeat=3):
            at_most_one = sum(ci != 0.0 for ci in c) <= 1
            assert (abs(bell_diagonal_correlations(c)[2]) <= 1e-12) == at_most_one, c
            rho = from_bloch(BlochSpec(c=c))
            for mode, d in itertools.product(("circuit", "direct"), directions):
                assert (witness(rho, d, mode).w == 0.0) == at_most_one, (c, mode)

    def test_witness_and_discord_rise_along_the_werner_family(self):
        # c1 = c2 = c3 = -c, from the maximally mixed state to the singlet
        cs = (0.1, 0.3, 0.6, 0.9)
        q = [bell_diagonal_correlations([-c] * 3)[2] for c in cs]
        assert np.allclose(q, [0.0132, 0.1038, 0.3651, 0.7832], rtol=0, atol=1e-4)
        assert np.all(np.diff(q) > 0)
        for mode in ("circuit", "direct"):
            w = [witness(from_bloch(BlochSpec(c=[-c] * 3)), sample_direction(0), mode).w
                 for c in cs]
            assert np.allclose(w, [0.03, 0.27, 1.08, 2.43], rtol=0, atol=1e-12)
            assert np.all(np.diff(w) > 0)
