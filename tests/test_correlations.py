import itertools

import numpy as np
import pytest

from nmrwitness import (
    ClassicalSpec,
    DensityMatrix,
    DeviationState,
    MeasurementBasis,
    classical_state,
    compose_deviation,
    discord_epsilon,
    entropy,
    extract_deviation,
    measure_map,
    measure_map_deviation,
    mutual_information,
    sample_direction,
    symmetric_discord,
    witness,
)
from nmrwitness import correlations, states
from nmrwitness.correlations import _exact_objective, pauli_coefficients
from nmrwitness.errors import OptimizerFailure
from nmrwitness.pauli import IDENTITY_4, SIGMA_X, SIGMA_Y, SIGMA_Z, direction

from conftest import (
    bell_phi_plus,
    ket_projector,
    random_density_matrix,
    random_traceless_hermitian,
    triplet,
)
from oracles import bell_diagonal_correlations, grid_search, measured_info_exact, measured_info_expansion

QC_DELTA = (2 * np.kron(SIGMA_X, SIGMA_X) + 2 * np.kron(SIGMA_Y, SIGMA_Y)
            - 2 * np.kron(SIGMA_Z, SIGMA_Z)) / 4
CC_DELTA = -np.kron(SIGMA_Z, SIGMA_Z).astype(complex)
Z_BASIS = MeasurementBasis(0.0, 0.0, 0.0, 0.0)


def random_basis(rng) -> MeasurementBasis:
    t = rng.uniform(0, np.pi, size=2)
    p = rng.uniform(0, 2 * np.pi, size=2)
    return MeasurementBasis(t[0], p[0], t[1], p[1])


class TestEntropies:
    def test_pure_state_zero(self):
        assert abs(entropy(bell_phi_plus())) < 1e-12

    def test_maximally_mixed_two_bits(self):
        assert abs(entropy(DensityMatrix(IDENTITY_4 / 4)) - 2.0) < 1e-12

    def test_even_classical_mixture_one_bit(self):
        rho = classical_state(ClassicalSpec(probabilities=[0.5, 0, 0, 0.5]))
        assert abs(entropy(rho) - 1.0) < 1e-12

    def test_mutual_information_product_state(self):
        rho = DensityMatrix(np.kron(ket_projector(1, 0), np.eye(2) / 2))
        assert abs(mutual_information(rho)) < 1e-12

    def test_mutual_information_bell(self):
        assert abs(mutual_information(bell_phi_plus()) - 2.0) < 1e-12

    def test_mutual_information_classical_mixture(self):
        rho = classical_state(ClassicalSpec(probabilities=[0.5, 0, 0, 0.5]))
        assert abs(mutual_information(rho) - 1.0) < 1e-12


class TestMeasureMap:
    def test_diagonal_fixed_point(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.allclose(measure_map(rho, Z_BASIS).matrix, rho.matrix, atol=1e-12)

    def test_triplet_zz(self):
        chi = measure_map(triplet(), Z_BASIS)
        expect = (ket_projector(0, 1, 0, 0) + ket_projector(0, 0, 1, 0)) / 2
        assert np.allclose(chi.matrix, expect, atol=1e-12)

    def test_maximally_mixed_invariant(self, rng):
        rho = DensityMatrix(IDENTITY_4 / 4)
        chi = measure_map(rho, random_basis(rng))
        assert np.allclose(chi.matrix, IDENTITY_4 / 4, atol=1e-12)

    def test_trace_preserved(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            chi = measure_map(rho, random_basis(rng))
            assert abs(np.trace(chi.matrix).real - 1) < 1e-12

    def test_matches_explicit_projector_oracle(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            basis = random_basis(rng)
            chi = measure_map(rho, basis)
            from oracles import projector_sandwich

            assert np.allclose(chi.matrix, projector_sandwich(rho.matrix, basis.angles()),
                               atol=1e-12)


class TestFastObjectives:
    """The exact optimizer and the epsilon^2 closed form work from Pauli
    coefficients; pin both routes to the definitional projector-sandwich
    evaluation."""

    def test_exact_objective_matches_measured_entropy(self, rng):
        for _ in range(25):
            rho = random_density_matrix(rng)
            a, b, t = pauli_coefficients(rho.matrix)
            basis = random_basis(rng)
            na, nb = basis.direction_a(), basis.direction_b()
            fast = float(_exact_objective(a, b, t, na, nb))
            slow = measured_info_exact(rho.matrix, basis.angles())
            assert abs(fast - slow) < 1e-10

    def test_epsilon_objective_matches_measured_traces(self, rng):
        for _ in range(25):
            delta = random_traceless_hermitian(rng)
            rep = discord_epsilon(DeviationState(delta=delta))
            slow = measured_info_expansion(delta, rep.argmax_basis.angles())
            assert abs(rep.classical - slow) < 1e-10
            via_module = discord_epsilon(
                DeviationState(delta=measure_map_deviation(delta, rep.argmax_basis))).mutual_info
            assert abs(rep.classical - via_module) < 1e-10
            for _ in range(200):
                other = measured_info_expansion(delta, random_basis(rng).angles())
                assert other <= rep.classical + 1e-10


class TestExpansionValues:
    def test_zero_deviation(self):
        assert discord_epsilon(DeviationState(delta=np.zeros((4, 4)))).mutual_info == 0

    def test_quantum_correlated_six(self):
        assert abs(discord_epsilon(DeviationState(delta=QC_DELTA)).mutual_info - 6.0) < 1e-12

    def test_classical_correlated_eight(self):
        assert abs(discord_epsilon(DeviationState(delta=CC_DELTA)).mutual_info - 8.0) < 1e-12

    def test_mim_qc_measured_zz(self):
        chi = measure_map_deviation(QC_DELTA, Z_BASIS)
        assert np.allclose(chi, -2 / 4 * np.kron(SIGMA_Z, SIGMA_Z), atol=1e-12)
        assert abs(discord_epsilon(DeviationState(delta=chi)).mutual_info - 2.0) < 1e-12

    def test_mim_cc_fixed_point(self):
        chi = measure_map_deviation(CC_DELTA, Z_BASIS)
        assert np.allclose(chi, CC_DELTA, atol=1e-12)
        assert abs(discord_epsilon(DeviationState(delta=chi)).mutual_info - 8.0) < 1e-12


class TestDiscordEpsilon:
    def test_quantum_correlated(self):
        rep = discord_epsilon(DeviationState(delta=QC_DELTA))
        assert abs(rep.mutual_info - 6.0) < 1e-9
        assert abs(rep.quantum - 4.0) < 1e-9
        assert abs(rep.classical - 2.0) < 1e-9
        assert rep.units == "epsilon2-bits"

    def test_classical_correlated(self):
        rep = discord_epsilon(DeviationState(delta=CC_DELTA))
        assert abs(rep.mutual_info - 8.0) < 1e-9
        assert abs(rep.quantum) < 1e-9
        assert abs(rep.classical - 8.0) < 1e-9
        # optimum is the shared z basis
        assert abs(rep.argmax_basis.theta_a) < 1e-6
        assert abs(rep.argmax_basis.theta_b) < 1e-6

    def test_thermal_product_form_uncorrelated(self):
        from nmrwitness.nmr import SpinSystemParams, thermal_deviation

        dev = DeviationState(delta=thermal_deviation(SpinSystemParams()))
        rep = discord_epsilon(dev)
        # T = 0 reports a zero triple in the z basis
        assert (rep.mutual_info, rep.quantum, rep.classical) == (0.0, 0.0, 0.0)
        assert rep.argmax_basis == Z_BASIS

    def test_deterministic_argmax(self):
        r1 = discord_epsilon(DeviationState(delta=QC_DELTA))
        r2 = discord_epsilon(DeviationState(delta=QC_DELTA))
        assert r1.argmax_basis == r2.argmax_basis

    def test_reads_the_pauli_table_the_state_keeps(self, monkeypatch, rng):
        # fig2 reads a state's witness and then its discord_epsilon
        delta = random_traceless_hermitian(rng) / 16
        want = discord_epsilon(DeviationState(delta=delta, epsilon=0.05))
        calls = []
        pauli_table = states.pauli_table

        def counted(m):
            calls.append(np.shape(m))
            return pauli_table(m)

        for module in (states, correlations):
            monkeypatch.setattr(module, "pauli_table", counted)
        dev = DeviationState(delta=delta, epsilon=0.05)
        witness(dev, sample_direction(0))
        got = discord_epsilon(dev)
        assert calls == [(4, 4)]
        assert got.to_json() == want.to_json()
        assert (got.quantum, got.classical, got.mutual_info) == (want.quantum, want.classical, want.mutual_info)

    def test_tie_rule_quantum_correlated_z_basis(self):
        # T = diag(2, 2, -2): every direction ties, z is taken.  The extracted
        # deviation ties only up to its ~1e-11 rounding.
        from nmrwitness.nmr import SpinSystemParams, prepare_state

        params = SpinSystemParams()
        extracted = extract_deviation(prepare_state("QC", params), params.epsilon)
        for dev in (DeviationState(delta=QC_DELTA), extracted):
            rep = discord_epsilon(dev)
            assert rep.argmax_basis == Z_BASIS
            assert abs(rep.classical - 2.0) < 1e-9

    def test_tie_rule_fallback_axes(self):
        xx, yy, zz = (np.kron(s, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        half_pi = np.pi / 2
        # tied x-y plane: z projects to zero, x is taken
        rep = discord_epsilon(DeviationState(delta=(2 * xx + 2 * yy + zz) / 4))
        assert rep.argmax_basis == MeasurementBasis(half_pi, 0.0, half_pi, 0.0)
        # single leading y axis: z and x project to zero, y is taken
        rep = discord_epsilon(DeviationState(delta=(-3 * yy + zz) / 4))
        assert rep.argmax_basis == MeasurementBasis(half_pi, half_pi, half_pi, half_pi)

    def test_quantum_never_negative(self, rng):
        deltas = [random_traceless_hermitian(rng) for _ in range(50)]
        for _ in range(20):
            spec = ClassicalSpec(probabilities=rng.dirichlet(np.ones(4)),
                                 basis_a=(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)))
            deltas.append(extract_deviation(classical_state(spec), 1.0).delta)
        for delta in deltas:
            rep = discord_epsilon(DeviationState(delta=delta))
            assert rep.quantum >= 0.0
            assert abs(rep.quantum + rep.classical - rep.mutual_info) < 1e-12


class TestSymmetricDiscord:
    def test_classical_mixture(self):
        rho = classical_state(ClassicalSpec(probabilities=[0.5, 0, 0, 0.5]))
        rep = symmetric_discord(rho)
        assert abs(rep.quantum) < 1e-9
        assert abs(rep.classical - 1.0) < 1e-9
        # optimum sits on the z axis for both qubits
        assert abs(rep.argmax_basis.theta_a) < 1e-6
        assert abs(rep.argmax_basis.theta_b) < 1e-6

    def test_bell_state(self):
        rep = symmetric_discord(bell_phi_plus())
        assert abs(rep.mutual_info - 2.0) < 1e-9
        assert abs(rep.quantum - 1.0) < 1e-9
        assert abs(rep.classical - 1.0) < 1e-9
        assert rep.units == "bits"

    def test_maximally_mixed(self):
        rep = symmetric_discord(DensityMatrix(IDENTITY_4 / 4))
        assert abs(rep.quantum) < 1e-9 and abs(rep.classical) < 1e-9

    def test_bell_diagonal_closed_form(self, rng):
        # six Bell-diagonal states, each Bell-state weight at least 0.02
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        for _ in range(6):
            weights = rng.dirichlet(np.ones(4))
            while weights.min() < 0.02:
                weights = rng.dirichlet(np.ones(4))
            c = weights @ np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])
            rho = DensityMatrix((IDENTITY_4 + sum(ci * np.kron(s, s) for ci, s in zip(c, paulis))) / 4)
            mutual, classical, quantum = bell_diagonal_correlations(c)
            rep = symmetric_discord(rho)
            assert abs(rep.mutual_info - mutual) <= 1e-12
            assert abs(rep.classical - classical) <= 1e-12
            assert abs(rep.quantum - quantum) <= 1e-12

    def test_optimizer_failure_on_tiny_budget(self, no_start_converges):
        with pytest.raises(OptimizerFailure):
            symmetric_discord(bell_phi_plus())

    def test_only_converged_starts_are_chosen(self, rng, monkeypatch):
        import nmrwitness.correlations as correlations

        rho = random_density_matrix(rng)
        want = symmetric_discord(rho)
        real = correlations.minimize
        fake_x = np.array([1.0, 2.0, 0.5, 4.0])
        calls = []

        def first_start_fails_with_the_best_value(fun, x0, **kwargs):
            calls.append(x0)
            res = real(fun, x0, **kwargs)
            if len(calls) == 1:
                res.x, res.fun, res.success = fake_x, -10.0, False
            return res

        monkeypatch.setattr(correlations, "minimize", first_start_fails_with_the_best_value)
        got = symmetric_discord(rho)
        assert len(calls) == correlations.REFINE_STARTS
        fake_angles = (*correlations._canonical_angles(direction(*fake_x[:2])),
                       *correlations._canonical_angles(direction(*fake_x[2:])))
        assert got.argmax_basis.angles() != fake_angles
        assert abs(got.classical - want.classical) < 1e-9

    def test_every_start_is_a_distinct_basis(self, rng, monkeypatch):
        import nmrwitness.correlations as correlations

        real = correlations.minimize
        starts = []

        def recording(fun, x0, **kwargs):
            starts.append(np.array(x0))
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(correlations, "minimize", recording)

        def canonical(theta, phi):
            return direction(*correlations._canonical_angles(direction(theta, phi)))

        for _ in range(4):
            starts.clear()
            symmetric_discord(random_density_matrix(rng))
            assert len(starts) == correlations.REFINE_STARTS
            # Compared as vectors: a canonical phi near 0 and one near 2 pi
            # are the same direction.
            bases = [np.concatenate((canonical(*x[:2]), canonical(*x[2:]))) for x in starts]
            for i, j in itertools.combinations(range(len(bases)), 2):
                assert not np.allclose(bases[i], bases[j], atol=1e-9)

    def test_grid_holds_each_full_sphere_basis_once(self):
        import nmrwitness.correlations as correlations

        n = correlations.GRID_POINTS
        thetas = np.linspace(0.0, np.pi, n)
        phis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        full = np.array([direction(th, ph) for th in thetas for ph in phis])
        kept = np.array([direction(th, ph) for th, ph in correlations.GRID_ANGLES])
        # every full-grid direction is +/- a kept one, and no two kept ones are
        assert np.all(np.abs(np.abs(full @ kept.T).max(axis=1) - 1.0) < 1e-15)
        assert (np.abs(kept @ kept.T) - np.eye(len(kept))).max() < 1.0 - 1e-6

    def test_report_serialization(self):
        rep = symmetric_discord(bell_phi_plus())
        doc = rep.to_json()
        assert doc["units"] == "bits"


class TestInvariants:
    def test_additivity_at_optimum(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng)
            rep = symmetric_discord(rho)
            assert abs(rep.quantum + rep.classical - rep.mutual_info) < 1e-9
            assert rep.quantum > -1e-9 and rep.classical > -1e-9
            dev = extract_deviation(rho, epsilon=1.0)
            rep_eps = discord_epsilon(dev)
            assert abs(rep_eps.quantum + rep_eps.classical - rep_eps.mutual_info) < 1e-9
            assert rep_eps.quantum > -1e-9

    def test_measurement_never_increases_mutual_information(self, rng):
        for _ in range(30):
            rho = random_density_matrix(rng)
            total = mutual_information(rho)
            chi = measure_map(rho, random_basis(rng))
            assert mutual_information(chi) <= total + 1e-9

    def test_zero_discord_for_classical_states(self, rng):
        for _ in range(6):
            p = rng.dirichlet(np.ones(4))
            spec = ClassicalSpec(
                probabilities=p,
                basis_a=(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
                basis_b=(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
            )
            rho = classical_state(spec)
            assert symmetric_discord(rho).quantum <= 1e-6
            assert discord_epsilon(extract_deviation(rho, 1.0)).quantum <= 1e-6

    def test_local_unitary_invariance(self, rng):
        from scipy.stats import unitary_group

        gen = unitary_group(dim=2, seed=11)
        for _ in range(4):
            rho = random_density_matrix(rng)
            u = np.kron(gen.rvs(), gen.rvs())
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            q0 = symmetric_discord(rho).quantum
            q1 = symmetric_discord(rotated).quantum
            assert abs(q0 - q1) < 1e-6

    def test_epsilon_expansion_consistency(self):
        ln2 = np.log(2)
        i_eps = discord_epsilon(DeviationState(delta=QC_DELTA)).mutual_info
        diffs = []
        eps_values = [1e-2, 1e-3, 1e-4]
        for eps in eps_values:
            rho = compose_deviation(DeviationState(delta=QC_DELTA, epsilon=eps))
            exact_scaled = mutual_information(rho) / (eps**2 / ln2)
            diffs.append(abs(exact_scaled - i_eps))
        assert diffs[0] > diffs[1] > diffs[2]
        slope = np.polyfit(np.log(eps_values), np.log(diffs), 1)[0]
        assert slope >= 0.9


class TestOptimizerVsGridOracle:
    def test_exact_refined_beats_dense_grid(self, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            grid_best, _ = grid_search(rho.matrix, "exact", n=64)
            refined = symmetric_discord(rho).classical
            assert refined >= grid_best - 1e-6

    def test_expansion_refined_beats_dense_grid(self, rng):
        for _ in range(50):
            delta = random_traceless_hermitian(rng)
            grid_best, _ = grid_search(delta, "expansion", n=64)
            refined = discord_epsilon(DeviationState(delta=delta)).classical
            assert refined >= grid_best - 1e-6
