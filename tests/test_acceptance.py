"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance, printing a PASS line when it holds (run with -s to see them)."""

import time

import numpy as np

from nmrwitness import (
    ClassicalSpec,
    DeviationState,
    ExperimentConfig,
    classical_state,
    compose_deviation,
    discord_epsilon,
    mutual_information,
    mutual_information_epsilon,
    prepare_state,
    protocol_state,
    readout_sigma_x_a,
    relax,
    run_fig2,
    run_fig4,
    symmetric_discord,
)
from nmrwitness.circuit import CNOT, rotation
from nmrwitness.cli import main
from nmrwitness.harness import DEFAULT_NOISE_LEVEL
from nmrwitness.nmr import (
    SpinSystemParams,
    apply_sequence,
    cnot_events,
    gradient,
    propagator_fidelity,
    sequence_propagator,
    thermal_equilibrium_state,
    z_rotation_events,
)
from nmrwitness.pauli import SIGMA_X, SIGMA_Y, SIGMA_Z, on_a, pauli_pair

from conftest import bell_phi_plus, random_density_matrix
from oracles import grid_search

PARAMS = SpinSystemParams()

QC_DELTA = (2 * np.kron(SIGMA_X, SIGMA_X) + 2 * np.kron(SIGMA_Y, SIGMA_Y)
            - 2 * np.kron(SIGMA_Z, SIGMA_Z)) / 4
CC_DELTA = -np.kron(SIGMA_Z, SIGMA_Z).astype(complex)

HARDWARE_W = {"QC": 3.13, "CC": 0.04, "thermal": 0.05}


def test_criterion_1_witness_values():
    t0 = time.perf_counter()
    ideal = run_fig2(ExperimentConfig())
    w = {row["state"]: row["witness"]["W"] for row in ideal.rows}
    assert abs(w["QC"] - 3.000) <= 1e-9
    assert w["CC"] <= 1e-12
    assert w["thermal"] <= 1e-12

    noisy = run_fig2(ExperimentConfig(noise_level=DEFAULT_NOISE_LEVEL))
    wn = {row["state"]: row["witness"]["W"] for row in noisy.rows}
    assert 0.9 * wn["QC"] <= HARDWARE_W["QC"] <= 1.1 * wn["QC"]
    assert abs(HARDWARE_W["CC"] - wn["CC"]) <= 0.05
    assert abs(HARDWARE_W["thermal"] - wn["thermal"]) <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: witness 3.000/0/0 ideal, hardware values inside "
          f"noise bands ({elapsed:.2f} s)")


def test_criterion_2_circuit_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        for i in (1, 2, 3):
            via_circuit = readout_sigma_x_a(protocol_state(rho, i))
            direct = rho.expectation(pauli_pair(i))
            worst = max(worst, abs(via_circuit - direct))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: circuit identity over 1000 states, "
          f"max gap {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_3_expansion_correlations_vs_grid_oracle():
    t0 = time.perf_counter()
    targets = {"QC": (QC_DELTA, (6.0, 4.0, 2.0)), "CC": (CC_DELTA, (8.0, 0.0, 8.0))}
    for name, (delta, (i_ref, q_ref, c_ref)) in targets.items():
        rep = discord_epsilon(DeviationState(delta=delta))
        assert abs(rep.mutual_info - i_ref) <= 1e-6, name
        assert abs(rep.quantum - q_ref) <= 1e-6, name
        assert abs(rep.classical - c_ref) <= 1e-6, name
        oracle_c, _ = grid_search(delta, "expansion", n=64)
        assert abs(rep.classical - oracle_c) <= 1e-6, name
        assert abs(rep.quantum - (rep.mutual_info - oracle_c)) <= 1e-6, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: expansion correlations (6,4,2)/(8,0,8) agree "
          f"with the 64^4 grid oracle ({elapsed:.2f} s)")


def test_criterion_4_exact_discord_sanity():
    t0 = time.perf_counter()
    rep = symmetric_discord(bell_phi_plus())
    assert abs(rep.mutual_info - 2.0) <= 1e-6
    assert abs(rep.quantum - 1.0) <= 1e-6
    assert abs(rep.classical - 1.0) <= 1e-6

    rng = np.random.default_rng(777)
    specs = [
        ClassicalSpec(probabilities=[1, 0, 0, 0]),
        ClassicalSpec(probabilities=[0.5, 0, 0, 0.5]),
        ClassicalSpec(probabilities=[0.5, 0, 0, 0.5],
                      basis_a=(np.pi / 2, 0.0), basis_b=(np.pi / 2, 0.0)),
    ]
    for _ in range(9):
        specs.append(ClassicalSpec(
            probabilities=rng.dirichlet(np.ones(4)),
            basis_a=(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
            basis_b=(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
        ))
    worst = max(symmetric_discord(classical_state(s)).quantum for s in specs)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: Bell discord (2,1,1), classical states "
          f"max Q {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_5_expansion_convergence():
    ln2 = np.log(2)
    eps_values = [1e-2, 1e-3, 1e-4]
    i_eps = mutual_information_epsilon(DeviationState(delta=QC_DELTA))
    assert abs(i_eps - 6.0) <= 1e-12
    diffs = []
    for eps in eps_values:
        rho = compose_deviation(DeviationState(delta=QC_DELTA, epsilon=eps))
        diffs.append(abs(mutual_information(rho) / (eps**2 / ln2) - 6.0))
    assert diffs[0] > diffs[1] > diffs[2]
    slope = np.polyfit(np.log(eps_values), np.log(diffs), 1)[0]
    assert slope >= 0.9
    print(f"\nACCEPTANCE 5 PASS: expansion converges, log-log slope {slope:.3f}")


def test_criterion_6_pulse_fidelity():
    ideal_z = on_a(rotation("z", np.pi / 2))
    fid_cnot = propagator_fidelity(sequence_propagator(cnot_events(), PARAMS), CNOT)
    fid_z = propagator_fidelity(sequence_propagator(z_rotation_events("H"), PARAMS), ideal_z)
    assert fid_cnot >= 1 - 1e-6
    assert fid_z >= 1 - 1e-6
    fid_cnot_fin = propagator_fidelity(
        sequence_propagator(cnot_events(), PARAMS, "finite"), CNOT)
    fid_z_fin = propagator_fidelity(
        sequence_propagator(z_rotation_events("H"), PARAMS, "finite"), ideal_z)
    assert fid_cnot_fin >= 0.999
    assert fid_z_fin >= 0.999
    print(f"\nACCEPTANCE 6 PASS: composite fidelities CNOT {fid_cnot:.9f} "
          f"(finite {fid_cnot_fin:.5f}), z-rot {fid_z:.9f} (finite {fid_z_fin:.5f})")


def test_criterion_7_decoherence_dynamics():
    report = run_fig4(ExperimentConfig())
    w = np.array([row["W"] for row in report.rows])
    q = np.array([row["Q"] for row in report.rows])
    assert len(w) == 12
    assert np.all(np.diff(w) <= 1e-9)
    assert np.all(np.diff(q) <= 1e-9)
    t_w = report.summary["first_t_witness_below_bound"]
    assert t_w is not None and 0.1 <= t_w <= 0.45
    t_q = report.summary["first_t_quantum_below_1pct"]
    t_c = report.summary["first_t_classical_below_1pct"]
    assert t_q is not None and (t_c is None or t_q < t_c)

    qc = prepare_state("QC", PARAMS)
    limit = relax(qc, 500.0, PARAMS)
    thermal = thermal_equilibrium_state(PARAMS)
    gap = float(np.max(np.abs(limit.matrix - thermal.matrix)))
    assert gap <= 1e-10
    print(f"\nACCEPTANCE 7 PASS: W, Q monotone; W < 0.05 at t = {t_w:.4f} s; "
          f"quantum dies first (t = {t_q:.4f} s); relax limit gap {gap:.1e}")


def test_criterion_8_channel_validity():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        rho = random_density_matrix(rng)
        for out in (apply_sequence(rho, [gradient()], PARAMS), relax(rho, rng.uniform(0.0, 1.0), PARAMS)):
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10
    print("\nACCEPTANCE 8 PASS: 1000 random states stay trace-1 PSD through "
          "dephasing and relaxation")


def test_criterion_9_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["fig2", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["fig2", "--seed", "7", "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print(f"\nACCEPTANCE 9 PASS: fig2 --seed 7 outputs byte-identical ({names1})")
