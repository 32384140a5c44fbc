import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nmrwitness import (
    BlochSpec,
    DensityMatrix,
    DeviationState,
    extract_deviation,
    from_bloch,
    normalized_trace_distance,
    pauli_table,
    prepare_state,
    protocol_state,
    readout_sigma_x_a,
    relax,
    rotation,
    sample_direction,
    witness,
)
from nmrwitness.errors import (
    BadConfig,
    BadIndex,
    EpsilonMismatch,
    NotAState,
    SequenceMismatch,
    UnknownKind,
)
from nmrwitness.nmr import (
    CNOT_EVENTS,
    PP_CALIBRATION,
    PSEUDO_EPR_EVENTS,
    PSEUDO_PURE_11_EVENTS,
    Z_ROTATION_EVENTS,
    PulseEvent,
    SpinSystemParams,
    _relax_maps,
    apply_sequence,
    delay,
    dynamics_sweep,
    free_evolution_propagator,
    gradient,
    ideal_deviation,
    prepare_deviation,
    propagator_fidelity,
    pulse_protocol_state,
    pulse_step_observables,
    pulse_step_unitaries,
    relaxation_fixed_point,
    rf,
    rf_propagator,
    sequence_propagator,
    thermal_deviation,
)
from nmrwitness.circuit import CNOT
from nmrwitness.pauli import IDENTITY_2, IDENTITY_4, SIGMA_X, SIGMA_Y, SIGMA_Z, on_a, on_b

from conftest import ket_projector, random_density_matrix, triplet
from oracles import (
    pauli_pair_expectation,
    relax_kraus,
    relax_kraus_mixed_term,
    run_pulse_program_extended,
)

PARAMS = SpinSystemParams()


class TestParams:
    def test_defaults_are_the_measured_values(self):
        assert PARAMS.j_coupling == 215.1
        assert (PARAMS.t1_h, PARAMS.t1_c) == (2.5, 7.0)
        assert (PARAMS.t2s_h, PARAMS.t2s_c) == (0.31, 0.12)
        assert (PARAMS.pulse_pi2_h, PARAMS.pulse_pi2_c) == (7.4e-6, 9.6e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpinSystemParams(j_coupling=0.0)

    def test_rejects_transverse_slower_than_longitudinal(self):
        with pytest.raises(ValueError):
            SpinSystemParams(t2s_h=10.0, t1_h=1.0)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SpinSystemParams)])
    @pytest.mark.parametrize("value", ["x", True, None, float("nan"), float("inf"), 10**400])
    def test_checks_the_type_of_each_field(self, field, value):
        with pytest.raises(BadConfig, match=rf"^config params\.{field} must be"):
            SpinSystemParams(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SpinSystemParams)])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_checks_the_range_of_each_field(self, field, value):
        with pytest.raises(BadConfig, match=rf"^config params\.{field} must be a positive"):
            SpinSystemParams(**{field: value})

    def test_accepts_integers(self):
        params = SpinSystemParams(j_coupling=215, t1_h=3)
        assert (params.j_coupling, params.t1_h) == (215, 3)


class TestPulseEvent:
    def test_angle_range(self):
        with pytest.raises(ValueError):
            PulseEvent(kind="rf", angle=0.0)
        with pytest.raises(ValueError):
            PulseEvent(kind="rf", angle=7.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PulseEvent(kind="loop")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_phase(self, value):
        with pytest.raises(ValueError, match="phase and j_units must be finite"):
            rf("H", np.pi / 2, value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_delay(self, value):
        with pytest.raises(ValueError, match="phase and j_units must be finite"):
            delay(value)


class TestFreeEvolution:
    """J-coupling delays, run as one-event programs through apply_sequence."""

    def test_zero_time_identity(self):
        rho = triplet()
        assert np.allclose(apply_sequence(rho, [delay(0.0)], PARAMS).matrix, rho.matrix)

    def test_propagator_matches_matrix_exponential(self):
        # direct matrix exponential oracle for U = exp(-i 2 pi J tau IzIz)
        iziz = np.kron(SIGMA_Z, SIGMA_Z) / 4
        for tau in (1 / (2 * PARAMS.j_coupling), 3 / (2 * PARAMS.j_coupling), 1e-3):
            expected = expm(-1j * 2 * np.pi * PARAMS.j_coupling * tau * iziz)
            assert np.allclose(free_evolution_propagator(tau, PARAMS), expected, atol=1e-12)

    def test_half_j_conditional_phase(self):
        plus0 = DensityMatrix(np.kron(ket_projector(1, 1) / 2, ket_projector(1, 0)))
        out = apply_sequence(plus0, [delay(0.5)], PARAMS)
        u = expm(-1j * (np.pi / 2) * np.kron(SIGMA_Z, SIGMA_Z) / 2)
        expected = u @ plus0.matrix @ u.conj().T
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_maximally_mixed_invariant(self):
        rho = DensityMatrix(IDENTITY_4 / 4)
        assert np.allclose(apply_sequence(rho, [delay(0.123 * PARAMS.j_coupling)], PARAMS).matrix,
                           rho.matrix)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            apply_sequence(triplet(), [delay(-1.0)], PARAMS)

    def test_on_resonance_drift_is_the_j_coupling(self):
        params = SpinSystemParams(j_coupling=123.4)
        h = 2 * np.pi * params.j_coupling * np.kron(SIGMA_Z, SIGMA_Z) / 4
        for tau in (1e-3, 0.01):
            assert np.allclose(free_evolution_propagator(tau, params),
                               expm(-1j * h * tau), atol=1e-12)


class TestRfPulse:
    def test_full_turn_is_identity_up_to_phase(self):
        u = rf_propagator(rf("H", 2 * np.pi, 0.0), PARAMS)
        assert propagator_fidelity(u, IDENTITY_4) > 1 - 1e-12

    def test_y_half_pulse_makes_plus(self):
        rho = DensityMatrix(np.kron(ket_projector(1, 0), ket_projector(1, 0)))
        out = apply_sequence(rho, [rf("H", np.pi / 2, np.pi / 2)], PARAMS)
        assert np.allclose(partial_a := np.einsum("ijkj->ik", out.matrix.reshape(2, 2, 2, 2)),
                           ket_projector(1, 1) / 2, atol=1e-12)

    def test_finite_pulse_close_to_instantaneous(self):
        # J * duration ~ 1.6e-3, so coupling during the pulse is negligible
        ev = rf("H", np.pi / 2, 0.0)
        fid = propagator_fidelity(rf_propagator(ev, PARAMS, "finite"),
                                  rf_propagator(ev, PARAMS, "instantaneous"))
        assert fid >= 0.9999

    def test_finite_pulse_matches_full_hamiltonian_exponential(self):
        # independent oracle: scipy expm of the full rotating-frame Hamiltonian,
        # over every rf event the programs and the witness steps play
        h_j = 2 * np.pi * PARAMS.j_coupling * np.kron(SIGMA_Z, SIGMA_Z) / 4
        programs = (CNOT_EVENTS, *Z_ROTATION_EVENTS.values(), PSEUDO_PURE_11_EVENTS,
                    PSEUDO_EPR_EVENTS, [rf("both", np.pi / 2, np.pi / 2)])
        events = [ev for program in programs for ev in program if ev.kind == "rf"]
        assert {ev.channel for ev in events} == {"H", "C", "both"}
        for ev in events:
            expected = IDENTITY_4
            for channel in ("H", "C") if ev.channel == "both" else (ev.channel,):
                pi2 = PARAMS.pulse_pi2_h if channel == "H" else PARAMS.pulse_pi2_c
                t_p = pi2 * ev.angle / (np.pi / 2)
                h_rf = (ev.angle / t_p) * (np.cos(ev.phase) * SIGMA_X + np.sin(ev.phase) * SIGMA_Y) / 2
                h = (on_a(h_rf) if channel == "H" else on_b(h_rf)) + h_j
                expected = expm(-1j * t_p * h) @ expected
            u = rf_propagator(ev, PARAMS, "finite")
            assert np.allclose(u, expected, rtol=0, atol=1e-12)
            assert np.allclose(u.conj().T @ u, IDENTITY_4, rtol=0, atol=1e-12)


class TestCompositeGates:
    def test_z_rotation_fixes_z_eigenstate(self):
        rho = DensityMatrix(np.kron(ket_projector(1, 0), IDENTITY_2 / 2))
        out = apply_sequence(rho, Z_ROTATION_EVENTS["H"], PARAMS)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_z_rotation_conjugates_x_to_y(self):
        u = sequence_propagator(Z_ROTATION_EVENTS["H"], PARAMS)
        lhs = u @ on_a(SIGMA_X) @ u.conj().T
        assert np.allclose(lhs, on_a(SIGMA_Y), atol=1e-12)

    def test_z_rotation_matches_ideal_gate(self):
        ideal = on_a(rotation("z", np.pi / 2))
        u = sequence_propagator(Z_ROTATION_EVENTS["H"], PARAMS)
        assert propagator_fidelity(u, ideal) >= 1 - 1e-9
        u_fin = sequence_propagator(Z_ROTATION_EVENTS["H"], PARAMS, "finite")
        assert propagator_fidelity(u_fin, ideal) >= 0.999

    def test_z_rotation_on_both_channels_reproduces_yy_readout(self):
        rho = from_bloch(BlochSpec(c=np.array([0.2, -0.7, 0.4])))
        xi = apply_sequence(rho, Z_ROTATION_EVENTS["H"] + Z_ROTATION_EVENTS["C"] + CNOT_EVENTS, PARAMS)
        assert abs(readout_sigma_x_a(xi) - pauli_pair_expectation(rho, 2)) < 1e-10

    def test_cnot_flips_target(self):
        rho = DensityMatrix(ket_projector(0, 0, 1, 0))
        out = apply_sequence(rho, CNOT_EVENTS, PARAMS)
        assert np.allclose(out.matrix, ket_projector(0, 0, 0, 1), atol=1e-10)

    def test_cnot_propagator_fidelity(self):
        u = sequence_propagator(CNOT_EVENTS, PARAMS)
        assert propagator_fidelity(u, CNOT) >= 1 - 1e-6
        u_fin = sequence_propagator(CNOT_EVENTS, PARAMS, "finite")
        assert propagator_fidelity(u_fin, CNOT) >= 0.999

    def test_cnot_twice_is_identity_up_to_phase(self):
        u = sequence_propagator(CNOT_EVENTS, PARAMS)
        assert propagator_fidelity(u @ u, IDENTITY_4) >= 1 - 1e-9

    def test_sequence_mismatch_on_bad_calibration(self):
        bad = SpinSystemParams(pulse_pi2_h=2e-3, pulse_pi2_c=2e-3)
        with pytest.raises(SequenceMismatch, match="composite CNOT fidelity"):
            pulse_step_unitaries(bad, "finite")


class TestCachedPropagators:
    MODELS = ("instantaneous", "finite")

    @pytest.mark.parametrize("model", MODELS)
    def test_folded_sequence_matches_per_pulse_application(self, model):
        events = PSEUDO_PURE_11_EVENTS + PSEUDO_EPR_EVENTS
        m = prepare_state("thermal", PARAMS).matrix
        for ev in events:
            if ev.kind == "gradient":
                m = np.diag(np.diag(m))
                continue
            if ev.kind == "rf":
                u = rf_propagator(ev, PARAMS, model)
            else:
                u = free_evolution_propagator(ev.j_units / PARAMS.j_coupling, PARAMS)
            m = u @ m @ u.conj().T
        folded = apply_sequence(prepare_state("thermal", PARAMS), events, PARAMS, model)
        assert np.max(np.abs(folded.matrix - m)) <= 1e-14

    @pytest.mark.parametrize("model", MODELS)
    def test_cached_propagators_are_read_only(self, model):
        for u in (sequence_propagator(CNOT_EVENTS, PARAMS, model),
                  sequence_propagator(Z_ROTATION_EVENTS["C"], PARAMS, model),
                  pulse_step_unitaries(PARAMS, model), pulse_step_observables(PARAMS, model)):
            with pytest.raises(ValueError):
                u[..., 0, 0] = 0.0
        # a repeated call returns the same cached product
        assert pulse_step_unitaries(PARAMS, model) is pulse_step_unitaries(PARAMS, model)
        assert pulse_step_observables(PARAMS, model) is pulse_step_observables(PARAMS, model)
        dev = prepare_deviation("QC", PARAMS, level="pulse", model=model)
        assert prepare_deviation("QC", PARAMS, level="pulse", model=model) is dev

    def test_sequence_propagator_rejects_gradient(self):
        with pytest.raises(ValueError, match="gradient"):
            sequence_propagator(PSEUDO_PURE_11_EVENTS, PARAMS)

    @pytest.mark.parametrize("model", MODELS)
    def test_pulse_step_unitaries_are_unitary(self, model):
        steps = pulse_step_unitaries(PARAMS, model)
        assert steps.shape == (3, 4, 4)
        for u in steps:
            assert np.max(np.abs(u @ u.conj().T - IDENTITY_4)) <= 1e-12

    def test_pulse_protocol_state_is_one_step_of_the_stack(self):
        rho = from_bloch(BlochSpec(c=np.array([0.3, 0.5, -0.2])))
        steps = pulse_step_unitaries(PARAMS)
        for i in (1, 2, 3):
            want = steps[i - 1] @ rho.matrix @ steps[i - 1].conj().T
            assert np.array_equal(pulse_protocol_state(rho, i, PARAMS).matrix, want)

    def test_bad_calibration_fails_on_every_call(self):
        bad = SpinSystemParams(pulse_pi2_h=2e-3, pulse_pi2_c=2e-3)
        for _ in range(2):
            with pytest.raises(SequenceMismatch):
                pulse_step_unitaries(bad, "finite")
            with pytest.raises(SequenceMismatch):
                pulse_step_observables(bad, "finite")
            with pytest.raises(SequenceMismatch):
                prepare_state("QC", bad, level="pulse", model="finite")
            with pytest.raises(SequenceMismatch):
                prepare_deviation("QC", bad, level="pulse", model="finite")

    def test_non_unitary_segment_raises_when_the_cache_fills(self, monkeypatch):
        import nmrwitness.nmr as nmr

        def scaled(tau, params):
            return free_evolution_propagator(tau, params) * (1 + 1e-9)

        monkeypatch.setattr(nmr, "free_evolution_propagator", scaled)
        with pytest.raises(ValueError, match="not unitary"):
            sequence_propagator(CNOT_EVENTS, PARAMS)
        with pytest.raises(ValueError, match="not unitary"):
            apply_sequence(prepare_state("thermal", PARAMS), PSEUDO_PURE_11_EVENTS, PARAMS)

    def test_non_finite_segment_raises_when_the_cache_fills(self, monkeypatch):
        import nmrwitness.nmr as nmr

        def nan_propagator(tau, params):
            return np.full((4, 4), np.nan + 0j)

        monkeypatch.setattr(nmr, "free_evolution_propagator", nan_propagator)
        with pytest.raises(ValueError, match="pulse program segment is not unitary"):
            sequence_propagator([delay(0.5)], PARAMS)

    def test_instantaneous_model_needs_no_expm(self, monkeypatch):
        import nmrwitness.nmr as nmr

        def no_expm(*args, **kwargs):
            raise AssertionError("matrix exponential called by the instantaneous model")

        monkeypatch.setattr(nmr, "_expi", no_expm)
        for cached in (nmr.pulse_step_unitaries, nmr.pulse_step_observables, nmr._pulse_prepared):
            cached.cache_clear()
        prepare_state("QC", PARAMS, level="pulse")
        pulse_step_observables(PARAMS)
        rf_propagator(rf("both", np.pi / 3, 0.7), PARAMS)


class TestGradientDephase:
    """The crusher gradient, run as a one-event program through apply_sequence."""

    def test_diagonal_fixed_point(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.allclose(apply_sequence(rho, [gradient()], PARAMS).matrix, rho.matrix)

    def test_triplet_becomes_classical_mixture(self):
        out = apply_sequence(triplet(), [gradient()], PARAMS)
        expect = (ket_projector(0, 1, 0, 0) + ket_projector(0, 0, 1, 0)) / 2
        assert np.allclose(out.matrix, expect, atol=1e-12)
        assert np.allclose(pauli_table(out.matrix).diagonal()[1:], [0, 0, -1], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_idempotent_and_trace_preserving(self, seed):
        rho = random_density_matrix(np.random.default_rng(seed))
        once = apply_sequence(rho, [gradient()], PARAMS)
        twice = apply_sequence(once, [gradient()], PARAMS)
        assert np.allclose(once.matrix, twice.matrix, atol=1e-15)
        assert abs(np.trace(once.matrix).real - 1) < 1e-12


class TestRelax:
    def test_zero_time_identity(self):
        rho = triplet()
        assert relax(rho, 0.0, PARAMS) is rho

    def test_fixed_point_for_long_times(self):
        fp = relaxation_fixed_point(PARAMS)
        for t in (0.1, 1.0, 10.0, 100.0):
            out = relax(fp, t, PARAMS)
            assert np.max(np.abs(out.matrix - fp.matrix)) <= 1e-10

    def test_thermal_state_is_fixed_within_tolerance(self):
        th = prepare_state("thermal", PARAMS)
        out = relax(th, 100.0, PARAMS)
        assert np.max(np.abs(out.matrix - th.matrix)) <= 1e-10

    def test_transverse_correlations_decay_at_combined_rate(self):
        # analytic channel-composition oracle: each qubit's transverse
        # component decays exactly at 1/T2*, so xx and yy correlations decay
        # at the sum of the two rates
        qc = prepare_state("QC", PARAMS)
        c0 = pauli_table(qc.matrix).diagonal()[1:]
        rate = 1 / PARAMS.t2s_h + 1 / PARAMS.t2s_c
        for t in (0.01, 0.1, 0.5):
            ct = pauli_table(relax(qc, t, PARAMS).matrix).diagonal()[1:]
            assert abs(ct[0] - c0[0] * np.exp(-rate * t)) < 1e-16
            assert abs(ct[1] - c0[1] * np.exp(-rate * t)) < 1e-16

    def test_longitudinal_relaxation_toward_thermal(self):
        qc = prepare_state("QC", PARAMS)
        r_inf = pauli_table(relax(qc, 500.0, PARAMS).matrix)
        r_fp = pauli_table(relaxation_fixed_point(PARAMS).matrix)
        assert np.allclose(r_inf[1:, 0], r_fp[1:, 0], atol=1e-12)
        assert np.allclose(r_inf[0, 1:], r_fp[0, 1:], atol=1e-12)

    def test_semigroup_property(self, rng):
        rho = random_density_matrix(rng)
        combined = relax(rho, 0.3, PARAMS)
        stepped = relax(relax(rho, 0.1, PARAMS), 0.2, PARAMS)
        assert np.allclose(combined.matrix, stepped.matrix, atol=1e-12)

    @pytest.mark.parametrize("params", [
        PARAMS,
        SpinSystemParams(t1_h=1.3, t1_c=4.0, t2s_h=0.05, t2s_c=0.9, epsilon=0.2, gamma_ratio=2.5),
    ])
    def test_matches_kraus_oracle(self, params, rng):
        # independent oracle: the damping + dephasing Kraus sum
        eps = params.epsilon
        qubit_h = (params.t1_h, params.t2s_h, 2 * eps)
        qubit_c = (params.t1_c, params.t2s_c, 2 * eps / params.gamma_ratio)
        for _ in range(20):
            rho = random_density_matrix(rng)
            for t in (0.01, 0.3, 2.0):
                want = relax_kraus(rho.matrix, t, qubit_h, qubit_c)
                assert np.max(np.abs(relax(rho, t, params).matrix - want)) <= 1e-15

    def test_channel_validity_random_states(self, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            out = relax(rho, rng.uniform(0, 2), PARAMS)
            assert abs(np.trace(out.matrix).real - 1) < 1e-12
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10

    @staticmethod
    def _qubit_maps(times, t1, t2s, z_eq):
        # the per-qubit form the fused build replaced, one qubit at a time
        f = np.array([math.exp(-t / t2s) for t in times])
        e1 = np.array([math.exp(-t / t1) for t in times])
        m = np.zeros((len(times), 4, 4))
        m[:, 0, 0] = 1.0
        m[:, 1, 1] = m[:, 2, 2] = f
        m[:, 3, 0] = (1.0 - e1) * z_eq
        m[:, 3, 3] = e1
        return m

    @pytest.mark.parametrize("n_steps", range(8, 17))
    def test_fused_relax_maps_equal_the_per_qubit_form(self, n_steps):
        times = np.arange(n_steps) * 0.0557
        for scale_h, scale_c, epsilon in ((1.0, 1.0, 1e-5), (0.5, 2.0, 1e-5), (1.7, 0.6, 0.2)):
            params = dataclasses.replace(PARAMS, t2s_h=PARAMS.t2s_h * scale_h,
                                         t2s_c=PARAMS.t2s_c * scale_c, epsilon=epsilon)
            m_h, m_c = _relax_maps(times.tolist(), params)
            want_h = self._qubit_maps(times, params.t1_h, params.t2s_h, 2 * epsilon)
            want_c = self._qubit_maps(times, params.t1_c, params.t2s_c,
                                      2 * epsilon / params.gamma_ratio)
            assert m_h.tobytes() == want_h.tobytes() and m_c.tobytes() == want_c.tobytes()


class TestPrepareState:
    def test_deviation_level_targets(self):
        c_qc = pauli_table(prepare_state("QC", PARAMS).matrix).diagonal()[1:]
        eps = PARAMS.epsilon
        assert np.allclose(c_qc, [2 * eps, 2 * eps, -2 * eps], atol=1e-16)
        c_cc = pauli_table(prepare_state("CC", PARAMS).matrix).diagonal()[1:]
        assert np.allclose(c_cc, [0, 0, -4 * eps], atol=1e-16)

    def test_thermal_witness_is_zero(self):
        th = prepare_state("thermal", PARAMS)
        rep = witness(th, sample_direction(3), normalization="thermal", epsilon=PARAMS.epsilon)
        assert rep.w <= 1e-12

    def test_pseudo_pure_deviation_pattern(self):
        rho = prepare_state("pseudo_pure_11", PARAMS)
        r = pauli_table(rho.matrix)
        eps = PARAMS.epsilon
        assert np.allclose(r[1:, 0], [0, 0, -2 * eps], atol=1e-16)
        assert np.allclose(r[0, 1:], [0, 0, -2 * eps], atol=1e-16)
        assert np.allclose(r.diagonal()[1:], [0, 0, 2 * eps], atol=1e-16)

    def test_pulse_level_qc_close_to_ideal(self):
        ideal = extract_deviation(prepare_state("QC", PARAMS), PARAMS.epsilon)
        for model in ("instantaneous", "finite"):
            prep = extract_deviation(
                prepare_state("QC", PARAMS, level="pulse", model=model), PARAMS.epsilon)
            assert normalized_trace_distance(ideal, prep) <= 0.02

    def test_pulse_level_pseudo_pure_close_to_ideal(self):
        ideal = extract_deviation(prepare_state("pseudo_pure_11", PARAMS), PARAMS.epsilon)
        prep = extract_deviation(
            prepare_state("pseudo_pure_11", PARAMS, level="pulse"), PARAMS.epsilon)
        assert normalized_trace_distance(ideal, prep) <= 0.02

    @pytest.mark.parametrize("kind", ["QC", "CC", "pseudo_pure_11", "thermal"])
    def test_deviation_level_is_the_ideal_deviation(self, kind):
        dev = prepare_deviation(kind, PARAMS)
        assert np.array_equal(dev.delta, ideal_deviation(kind, PARAMS))
        assert dev.epsilon == PARAMS.epsilon

    @pytest.mark.parametrize("model", ["instantaneous", "finite"])
    @pytest.mark.parametrize("kind", ["QC", "pseudo_pure_11"])
    def test_pulse_level_matches_extended_precision(self, kind, model):
        pytest.importorskip("mpmath")
        events = PSEUDO_PURE_11_EVENTS + (PSEUDO_EPR_EVENTS if kind == "QC" else ())
        steps = [None if ev.kind == "gradient"
                 else rf_propagator(ev, PARAMS, model) if ev.kind == "rf"
                 else free_evolution_propagator(ev.j_units / PARAMS.j_coupling, PARAMS)
                 for ev in events]
        want = PP_CALIBRATION * run_pulse_program_extended(thermal_deviation(PARAMS), steps)
        got = prepare_deviation(kind, PARAMS, level="pulse", model=model).delta
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("kind", ["QC", "CC", "pseudo_pure_11"])
    def test_ideal_deviations_are_read_only(self, kind):
        with pytest.raises(ValueError):
            ideal_deviation(kind, PARAMS)[0, 0] = 7.0
        assert np.array_equal(prepare_deviation(kind, PARAMS).delta, ideal_deviation(kind, PARAMS))

    def test_pulse_level_deviation_is_a_cached_constant(self):
        dev = prepare_deviation("QC", PARAMS, level="pulse")
        assert prepare_deviation("QC", PARAMS, level="pulse") is dev
        with pytest.raises(ValueError):
            dev.delta[0, 0] = 0.0

    @pytest.mark.parametrize("level", ["deviation", "pulse"])
    def test_prepare_state_composes_the_deviation(self, level):
        for kind in ("QC", "pseudo_pure_11", "thermal"):
            dev = prepare_deviation(kind, PARAMS, level=level)
            rho = prepare_state(kind, PARAMS, level=level)
            assert np.array_equal(rho.matrix, IDENTITY_4 / 4 + PARAMS.epsilon * dev.delta)

    def test_ideal_kinds_are_cached_by_kind_and_epsilon(self):
        # one entry serves every T2* variant of a sweep study
        other = dataclasses.replace(PARAMS, t2s_h=0.2, t2s_c=0.05)
        dev, rho = prepare_deviation("QC", PARAMS), prepare_state("QC", PARAMS)
        assert prepare_deviation("QC", other) is dev and prepare_state("QC", other) is rho
        with pytest.raises(ValueError):
            dev.delta[0, 0] = 0.0
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0
        eps2 = dataclasses.replace(PARAMS, epsilon=2 * PARAMS.epsilon)
        assert prepare_deviation("QC", eps2).epsilon == eps2.epsilon
        assert prepare_state("QC", eps2) is not rho

    def test_pulse_level_state_is_a_cached_constant(self):
        rho = prepare_state("QC", PARAMS, level="pulse")
        assert prepare_state("QC", PARAMS, level="pulse") is rho
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_too_large_epsilon_fails_on_every_call(self):
        # the QC deviation has eigenvalue -1/2, so I/4 + epsilon delta is no
        # state above epsilon = 1/2; lru_cache keeps no exception
        params = dataclasses.replace(PARAMS, epsilon=0.6)
        for _ in range(2):
            with pytest.raises(NotAState):
                prepare_state("QC", params)
        assert prepare_deviation("QC", params).epsilon == 0.6

    def test_thermal_is_not_cached_and_follows_gamma_ratio(self):
        other = dataclasses.replace(PARAMS, gamma_ratio=2.0)
        for params in (PARAMS, other):
            dev = prepare_deviation("thermal", params)
            assert np.array_equal(dev.delta, thermal_deviation(params))
            assert prepare_deviation("thermal", params) is not dev
            assert np.array_equal(prepare_state("thermal", params).matrix,
                                  IDENTITY_4 / 4 + params.epsilon * thermal_deviation(params))
        assert not np.array_equal(prepare_deviation("thermal", other).delta,
                                  prepare_deviation("thermal", PARAMS).delta)

    def test_pulse_level_needs_a_thermal_state(self):
        # At epsilon = 0.45 the thermal form I/4 + epsilon delta is not a
        # state, while the pulse-level QC deviation would compose to one.
        params = dataclasses.replace(PARAMS, epsilon=0.45)
        for _ in range(2):
            with pytest.raises(NotAState):
                prepare_state("QC", params, level="pulse")

    def test_pulse_level_cc_unsupported(self):
        with pytest.raises(UnknownKind):
            prepare_state("CC", PARAMS, level="pulse")

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            prepare_state("GHZ", PARAMS)

    def test_pp_sequence_inventory(self):
        kinds = {(ev.kind, getattr(ev, "channel", None)) for ev in PSEUDO_PURE_11_EVENTS}
        angles = {ev.angle for ev in PSEUDO_PURE_11_EVENTS if ev.kind == "rf"}
        assert ("gradient", None) in {(ev.kind, None) for ev in PSEUDO_PURE_11_EVENTS}
        assert angles <= {np.pi / 6, np.pi / 4, np.pi / 2, np.pi}
        j_units = [ev.j_units for ev in PSEUDO_PURE_11_EVENTS if ev.kind == "delay"]
        assert j_units == [0.25, 0.25]


class TestPulseProtocol:
    def test_matches_ideal_circuit(self):
        rho = from_bloch(BlochSpec(c=np.array([0.3, 0.5, -0.2])))
        for i in (1, 2, 3):
            ideal = readout_sigma_x_a(protocol_state(rho, i))
            pulsed = readout_sigma_x_a(pulse_protocol_state(rho, i, PARAMS))
            assert abs(ideal - pulsed) < 1e-10

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            pulse_protocol_state(triplet(), 0, PARAMS)


class TestDynamicsSweep:
    def test_documented_sweep(self):
        qc = prepare_state("QC", PARAMS)
        series = dynamics_sweep(qc, 0.0557, 12, PARAMS)
        assert np.allclose(series.times, [n * 0.0557 for n in range(12)])
        assert abs(series.witness_values[0] - 3.0) < 1e-9
        assert abs(series.quantum[0] - 4.0) < 1e-6
        assert abs(series.classical[0] - 2.0) < 1e-6
        assert np.all(np.diff(series.witness_values) <= 1e-9)
        assert np.all(np.diff(series.quantum) <= 1e-9)

    def test_crossing_order_quantum_dies_first(self):
        qc = prepare_state("QC", PARAMS)
        series = dynamics_sweep(qc, 0.0557, 12, PARAMS)
        t_q = series.first_time_below("quantum", 0.01 * series.quantum[0])
        t_c = series.first_time_below("classical", 0.01 * series.classical[0])
        assert t_q is not None
        assert t_c is None or t_q < t_c

    def test_long_time_limit_uncorrelated(self):
        qc = prepare_state("QC", PARAMS)
        far = relax(qc, 500.0, PARAMS)
        rep = witness(far, sample_direction(1), normalization="thermal",
                      epsilon=PARAMS.epsilon, include_o4=False)
        assert rep.w < 1e-6
        fp = relaxation_fixed_point(PARAMS)
        assert np.max(np.abs(far.matrix - fp.matrix)) < 1e-10

    @pytest.mark.parametrize("delta_t", [0.0, -0.0557, np.nan, np.inf])
    def test_rejects_bad_delta_t(self, delta_t):
        with pytest.raises(ValueError, match="delta_t"):
            dynamics_sweep(prepare_state("QC", PARAMS), delta_t, 12, PARAMS)

    @pytest.mark.parametrize("epsilon", [1e-5, 1e-3, 0.2])
    @pytest.mark.parametrize("scale_h, scale_c", [(0.5, 0.5), (0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (2.0, 2.0)])
    def test_matches_independent_oracle(self, epsilon, scale_h, scale_c):
        # Independent oracle: the Kraus sum of tests/oracles.py at each t,
        # then direct trace readouts and an SVD written here.  The Kraus map
        # is affine in the deviation: its linear part relaxes delta itself,
        # and the mixed-state term (K(I/4) - I/4) / epsilon, which cancels
        # in float arithmetic, is evaluated in 50 digits.  The sweep runs on
        # delta too, so 1e-12 relative to each series' largest value holds
        # at every epsilon.
        pytest.importorskip("mpmath")
        params = dataclasses.replace(PARAMS, t2s_h=PARAMS.t2s_h * scale_h,
                                     t2s_c=PARAMS.t2s_c * scale_c, epsilon=epsilon)
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        delta0 = (2 * np.kron(SIGMA_X, SIGMA_X) + 2 * np.kron(SIGMA_Y, SIGMA_Y)
                  - 2 * np.kron(SIGMA_Z, SIGMA_Z)) / 4
        series = dynamics_sweep(DeviationState(delta=delta0, epsilon=epsilon), 0.0557, 16, params)
        qubit_h = (params.t1_h, params.t2s_h, 2 * epsilon)
        qubit_c = (params.t1_c, params.t2s_c, 2 * epsilon / params.gamma_ratio)
        want = []
        for t in [n * 0.0557 for n in range(16)]:
            delta = relax_kraus_mixed_term(t, qubit_h, qubit_c, epsilon)
            delta = delta + relax_kraus(delta0, t, qubit_h, qubit_c)
            corr = np.array([[np.trace(delta @ np.kron(p, q)).real for q in paulis] for p in paulis])
            o = np.diag(corr) / 2  # <s_i s_i> / (2 epsilon)
            s = np.linalg.svd(corr, compute_uv=False)
            want.append([abs(o[0] * o[1]) + abs(o[0] * o[2]) + abs(o[1] * o[2]),
                         np.sum(corr**2) / 2, (s[1]**2 + s[2]**2) / 2, s[0]**2 / 2])
        want = np.array(want)
        got = np.stack([series.witness_values, series.mutual_info, series.quantum,
                        series.classical], axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))

    def test_rejects_a_deviation_at_another_epsilon(self):
        dev = DeviationState(delta=ideal_deviation("QC", PARAMS), epsilon=2 * PARAMS.epsilon)
        with pytest.raises(EpsilonMismatch):
            dynamics_sweep(dev, 0.0557, 4, PARAMS)

    def test_deviation_input_is_the_t0_member(self):
        for dev in (prepare_deviation("QC", PARAMS), prepare_deviation("QC", PARAMS, level="pulse")):
            series = dynamics_sweep(dev, 0.0557, 12, PARAMS)
            assert series.deviations[0].delta.tobytes() == dev.delta.tobytes()

    def test_density_matrix_and_deviation_inputs_agree(self):
        a = dynamics_sweep(prepare_state("QC", PARAMS), 0.0557, 12, PARAMS)
        b = dynamics_sweep(prepare_deviation("QC", PARAMS), 0.0557, 12, PARAMS)
        for name in ("witness_values", "mutual_info", "quantum", "classical"):
            assert np.max(np.abs(getattr(a, name) - getattr(b, name))) <= 1e-10
        assert np.max(np.abs(np.array([d.delta for d in a.deviations])
                             - np.array([d.delta for d in b.deviations]))) <= 1e-10

    def test_checks_positivity_of_every_relaxed_state(self):
        # At epsilon = 0.6 the thermal polarization 2 epsilon exceeds 1, so
        # relaxing even I/4 toward it leaves the state space after t = 0.
        params = dataclasses.replace(PARAMS, epsilon=0.6)
        with pytest.raises(NotAState, match=r"negative eigenvalue .* \(matrix 1 of the stack\)"):
            dynamics_sweep(DensityMatrix(IDENTITY_4 / 4), 10.0, 4, params)


class TestThermalModel:
    def test_deviation_shape(self):
        delta = thermal_deviation(PARAMS)
        expect = (on_a(SIGMA_Z) + on_b(SIGMA_Z) / PARAMS.gamma_ratio) / 2
        assert np.allclose(delta, expect)

    def test_fixed_point_close_to_linear_thermal_state(self):
        th = prepare_state("thermal", PARAMS)
        fp = relaxation_fixed_point(PARAMS)
        assert np.max(np.abs(th.matrix - fp.matrix)) <= 1e-10
