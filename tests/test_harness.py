import json
import os
import runpy
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from nmrwitness import (
    ClassicalSpec,
    DeviationState,
    ExperimentConfig,
    classical_state,
    extract_deviation,
    perturb_deviation,
    prepare_state,
    run_custom,
    run_experiment,
    run_fig2,
    run_fig3,
    run_fig4,
    sample_direction,
    state_from_json,
    validate_state_doc,
    witness,
)
from nmrwitness.cli import _config_from_args, build_parser, main
from nmrwitness.errors import BadConfig, BadDocument, NotAState
from nmrwitness.harness import DEFAULT_NOISE_LEVEL
from nmrwitness.nmr import SpinSystemParams, prepare_deviation
from nmrwitness.pauli import SIGMA_Z

from conftest import random_traceless_hermitian
from oracles import perturb_deviation_kron


def read(path: Path) -> str:
    return Path(path).read_text()


# FIGURE_VARIANTS and state_documents() of the output digest's run matrix
DIGEST = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts"
                            / "output_digest.py"))


class TestFig2:
    def test_ideal_values(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        report = run_fig2(cfg)
        w = {row["state"]: row["witness"]["W"] for row in report.rows}
        assert abs(w["QC"] - 3.0) < 1e-9
        assert w["CC"] <= 1e-12
        assert w["thermal"] <= 1e-12
        corr = {row["state"]: row["correlations"] for row in report.rows}
        assert abs(corr["QC"]["I"] - 6.0) < 1e-6
        assert abs(corr["QC"]["Q"] - 4.0) < 1e-6
        assert abs(corr["QC"]["C"] - 2.0) < 1e-6
        assert abs(corr["CC"]["I"] - 8.0) < 1e-6
        assert abs(corr["CC"]["Q"]) < 1e-6
        assert abs(corr["thermal"]["I"]) < 1e-6
        assert report.cross_check_max <= 1e-8
        assert (tmp_path / "witness.csv").exists()
        assert (tmp_path / "correlations.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_deviation_level_correlations_are_exact(self):
        corr = {row["state"]: row["correlations"] for row in run_fig2(ExperimentConfig()).rows}
        assert (corr["QC"]["I"], corr["QC"]["Q"], corr["QC"]["C"]) == (6.0, 4.0, 2.0)
        assert (corr["CC"]["I"], corr["CC"]["Q"], corr["CC"]["C"]) == (8.0, 0.0, 8.0)
        assert (corr["thermal"]["I"], corr["thermal"]["C"]) == (0.0, 0.0)

    def test_deviation_level_witness_is_exact(self):
        # The circuit reads the exact delta, not rho = I/4 + epsilon delta.
        wit = {row["state"]: row["witness"] for row in run_fig2(ExperimentConfig()).rows}
        assert np.max(np.abs(np.array(wit["QC"]["o"]) - [1, 1, -1, 0])) <= 1e-15
        assert abs(wit["QC"]["W"] - 3) <= 1e-15
        assert np.max(np.abs(wit["thermal"]["o"][:3])) <= 1e-15

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_fig2(ExperimentConfig(seed=7, out_dir=str(out1)))
        run_fig2(ExperimentConfig(seed=7, out_dir=str(out2)))
        for name in ("witness.csv", "correlations.csv", "report.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_noise_seeded_reproducibility(self):
        r1 = run_fig2(ExperimentConfig(seed=3, noise_level=DEFAULT_NOISE_LEVEL))
        r2 = run_fig2(ExperimentConfig(seed=3, noise_level=DEFAULT_NOISE_LEVEL))
        assert r1.to_json() == r2.to_json()

    def test_pulse_level_matches_ideal_closely(self):
        # composite-gate products leave ~1e-12 float crumbs in the readouts
        report = run_experiment(ExperimentConfig(experiment="fig2", pulse_level=True))
        w = {row["state"]: row["witness"]["W"] for row in report.rows}
        assert abs(w["QC"] - 3.0) < 0.1
        assert w["CC"] <= 1e-10
        assert w["thermal"] <= 1e-10

    def test_raw_normalization(self):
        report = run_fig2(ExperimentConfig(normalization="raw"))
        w_qc = next(r for r in report.rows if r["state"] == "QC")["witness"]
        assert w_qc["normalization"] == "raw"
        # raw products scale as (2 eps)^2
        assert abs(w_qc["W"] - 3.0 * (2e-5) ** 2) < 1e-18


class TestFig3:
    def test_ideal_distances_zero(self):
        report = run_fig3(ExperimentConfig())
        for row in report.rows:
            assert row["distance_to_ideal"] <= 1e-10

    def test_deviation_level_is_exact(self):
        report = run_fig3(ExperimentConfig())
        assert [row["distance_to_ideal"] for row in report.rows] == [0.0, 0.0, 0.0]
        qc = next(r for r in report.rows if r["state"] == "QC")
        assert np.diag(qc["delta_re"]).tolist() == [-0.5, 0.5, 0.5, -0.5]
        assert qc["delta_re"][1][2] == qc["delta_re"][2][1] == 1.0

    def test_qc_deviation_pattern(self):
        report = run_fig3(ExperimentConfig())
        qc = next(r for r in report.rows if r["state"] == "QC")
        re = np.array(qc["delta_re"])
        im = np.array(qc["delta_im"])
        # off-diagonal |01><10| element is 1 in deviation units, diagonal
        # carries the -zz/2 pattern
        assert abs(re[1, 2] - 1.0) < 1e-12
        assert np.allclose(np.diag(re), [-0.5, 0.5, 0.5, -0.5], atol=1e-12)
        assert np.allclose(im, 0.0, atol=1e-12)

    def test_noisy_distance_band(self):
        dists_qc, dists_cc = [], []
        for seed in range(8):
            cfg = ExperimentConfig(seed=seed, noise_level=DEFAULT_NOISE_LEVEL)
            rows = {r["state"]: r for r in run_fig3(cfg).rows}
            dists_qc.append(rows["QC"]["distance_to_ideal"])
            dists_cc.append(rows["CC"]["distance_to_ideal"])
        assert 0.05 <= np.mean(dists_qc) <= 0.15
        assert 0.05 <= np.mean(dists_cc) <= 0.15

    def test_csv_layout(self, tmp_path):
        run_fig3(ExperimentConfig(out_dir=str(tmp_path)))
        lines = read(tmp_path / "deviation_elements.csv").strip().split("\n")
        assert lines[0] == "state,row,col,re,im"
        assert len(lines) == 1 + 3 * 16


class TestFig4:
    def test_initial_point_matches_fig2(self):
        report = run_fig4(ExperimentConfig())
        first = report.rows[0]
        assert abs(first["W"] - 3.0) < 1e-9
        assert abs(first["Q"] - 4.0) < 1e-6
        assert abs(first["t_s"]) == 0

    def test_initial_point_is_exact(self):
        first = run_fig4(ExperimentConfig(n_steps=2)).rows[0]
        assert np.max(np.abs(np.array([first[k] for k in "WIQC"]) - [3, 6, 4, 2])) <= 1e-15

    def test_flags(self):
        report = run_fig4(ExperimentConfig())
        s = report.summary
        assert 0.1 <= s["first_t_witness_below_bound"] <= 0.45
        assert s["first_t_quantum_below_1pct"] is not None
        t_c = s["first_t_classical_below_1pct"]
        assert t_c is None or s["first_t_quantum_below_1pct"] < t_c

    def test_final_row_only_classical_correlations_remain(self):
        report = run_fig4(ExperimentConfig())
        last = report.rows[-1]
        assert abs(last["t_s"] - 11 * 0.0557) < 1e-12
        assert last["Q"] < 0.05
        assert last["C"] > 0

    def test_csv(self, tmp_path):
        run_fig4(ExperimentConfig(out_dir=str(tmp_path), n_steps=4))
        lines = read(tmp_path / "dynamics.csv").strip().split("\n")
        assert lines[0] == "t_s,W,I,Q,C"
        assert len(lines) == 5


class TestCustomAndValidate:
    def test_maximally_mixed_all_zero(self):
        doc = {"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [0, 0, 0]}}
        report = run_custom(ExperimentConfig(experiment="custom"), doc)
        row = report.rows[0]
        assert row["witness_circuit"]["W"] <= 1e-12
        assert abs(row["exact_correlations"]["Q"]) <= 1e-9

    def test_bell_state(self):
        doc = {"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}
        report = run_custom(ExperimentConfig(experiment="custom"), doc)
        row = report.rows[0]
        assert abs(row["witness_circuit"]["W"] - 3.0) < 1e-9
        assert abs(row["exact_correlations"]["Q"] - 1.0) < 1e-6
        assert row["epsilon_correlations"] is None

    def test_direction_seeds(self):
        # local vectors make W depend on the O_4 direction: custom reads the
        # configured seed's, and reports the range over every direction
        doc = {"bloch": {"a": [0.2, 0.0, 0.3], "b": [0.0, -0.2, 0.1], "c": [0.3, -0.2, 0.4]}}
        rho = state_from_json(doc)
        assert witness(rho, sample_direction(5)).w != witness(rho, sample_direction(0)).w
        row = run_custom(ExperimentConfig(experiment="custom", seed=5), doc).rows[0]
        circuit = row["witness_circuit"]
        assert circuit["seed"] == 5 == row["witness_direct"]["seed"]
        assert abs(circuit["W"] - witness(rho, sample_direction(5)).w) <= 1e-12
        assert circuit["W_min"] < circuit["W"] < circuit["W_max"]

    def test_custom_needs_a_state_document(self):
        with pytest.raises(BadDocument, match="needs a state document"):
            run_experiment(ExperimentConfig(experiment="custom"))

    def test_classical_sample(self):
        rho = classical_state(ClassicalSpec(probabilities=[0.5, 0, 0, 0.5]))
        dev = extract_deviation(rho, 1.0)
        doc = {"epsilon": dev.epsilon, "delta_re": dev.delta.real.tolist(),
               "delta_im": dev.delta.imag.tolist()}
        report = run_custom(ExperimentConfig(experiment="custom"), doc)
        row = report.rows[0]
        assert row["witness_circuit"]["W"] <= 1e-10
        assert row["exact_correlations"]["Q"] <= 1e-6
        assert row["epsilon_correlations"]["Q"] <= 1e-6

    def test_validate_good_state(self):
        info = validate_state_doc({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [0, 0, 1]}})
        assert info["form"] == "bloch"
        assert abs(info["trace"] - 1) < 1e-12

    def test_validate_bad_state(self):
        with pytest.raises(NotAState):
            validate_state_doc({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1.5, 0, 0]}})


class TestStateReads:
    DEVIATION_DOC = {"epsilon": 0.05, "delta_re": np.diag([-0.5, 0.5, 0.5, -0.5]).tolist(),
                     "delta_im": np.zeros((4, 4)).tolist()}
    BLOCH_DOC = {"bloch": {"a": [0.2, 0.0, 0.3], "b": [0.0, -0.2, 0.1], "c": [0.3, -0.2, 0.4]}}

    @pytest.mark.parametrize("run, calls", [
        ("fig2", 3),                # one per state
        ("fig4", 1),                # read at t = 0, then relaxed by the sweep
        ("custom-deviation", 2),    # delta for the witness, rho for the exact search
        ("custom-bloch", 2),        # the same: a Bloch document is a deviation
    ])
    def test_one_pauli_table_per_state_per_run(self, pauli_table_calls, run, calls):
        # noise on, so that fig2 and fig4 read fresh states: the cached ideal
        # deviations keep their Pauli tables from one run to the next
        noisy = ExperimentConfig(noise_level=DEFAULT_NOISE_LEVEL)
        custom = ExperimentConfig(experiment="custom")
        {"fig2": lambda: run_fig2(noisy),
         "fig4": lambda: run_fig4(noisy),
         "custom-deviation": lambda: run_custom(custom, self.DEVIATION_DOC),
         "custom-bloch": lambda: run_custom(custom, self.BLOCH_DOC)}[run]()
        assert pauli_table_calls == [(4, 4)] * calls


class TestNoiseModel:
    def test_perturbation_is_traceless_hermitian(self, rng):
        dev = extract_deviation(prepare_state("QC", SpinSystemParams()), 1e-5)
        noisy = perturb_deviation(dev, 0.06, rng)
        assert abs(np.trace(noisy.delta)) < 1e-12
        assert np.max(np.abs(noisy.delta - noisy.delta.conj().T)) < 1e-12

    def test_zero_level_only_rotates(self, rng):
        dev = DeviationState(delta=np.kron(SIGMA_Z, SIGMA_Z).astype(complex), epsilon=1e-5)
        noisy = perturb_deviation(dev, 0.0, rng)
        assert np.allclose(noisy.delta, dev.delta, atol=1e-12)

    @pytest.mark.parametrize("level", [0.0, 0.06, 0.3])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
    def test_matches_kron_oracle_bitwise(self, seed, level):
        """The same draws in the same order and the same arithmetic as the
        np.kron / np.eye form of the noise model, compared as bytes so that
        signed zeros count: 50 seeds from ``seed`` on (200 over the four
        parameters) for each deviation, among them the pulse-level QC and
        pseudo_pure_11 deviations of both pulse models, which fig2
        --pulse-level --noise perturbs."""
        params = SpinSystemParams()
        devs = [extract_deviation(prepare_state("QC", params), 1e-5),
                DeviationState(delta=random_traceless_hermitian(np.random.default_rng(seed)),
                               epsilon=1e-5)]
        devs += [prepare_deviation(kind, params, level="pulse", model=model)
                 for kind in ("QC", "pseudo_pure_11") for model in ("instantaneous", "finite")]
        for s in range(seed, seed + 50):
            for dev in devs:
                rng, ref_rng = np.random.default_rng(s), np.random.default_rng(s)
                got = perturb_deviation(dev, level, rng)
                assert got.delta.tobytes() == perturb_deviation_kron(dev.delta, level, ref_rng).tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("level", [-0.01, np.nan, np.inf])
    def test_rejects_a_level_not_finite_and_nonnegative(self, level):
        """BadConfig, as ExperimentConfig raises for noise_level, before any
        draw: no numpy RuntimeWarning (an error here) and no ValueError
        ``scale < 0`` from the generator."""
        dev = prepare_deviation("QC", SpinSystemParams(), level="pulse")
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BadConfig, match="noise_level"):
                perturb_deviation(dev, level, rng)
        assert rng.bit_generator.state == state


class TestCli:
    def test_fig2_exit_zero_and_files(self, tmp_path, capsys):
        code = main(["fig2", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "witness.csv").exists()
        out = capsys.readouterr().out
        assert json.loads(out)["experiment"] == "fig2"

    def test_only_the_exact_search_loads_scipy(self, tmp_path):
        # a fresh interpreter, so no module another test imported can hide a load
        script = textwrap.dedent("""
            import sys
            from pathlib import Path

            import nmrwitness
            from nmrwitness.cli import main

            out = Path(sys.argv[1])
            doc = out / "state.json"
            doc.write_text('{"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}')
            for i, argv in enumerate([["fig2"], ["fig2", "--pulse-level"], ["fig3"], ["fig4"]]):
                assert main([*argv, "--out", str(out / str(i))]) == 0, argv
            assert main(["validate", str(doc)]) == 0
            loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            assert not loaded, loaded
            assert main(["custom", str(doc), "--out", str(out / "custom")]) == 0
            assert "scipy.optimize" in sys.modules
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_cli_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fig2", "--seed", "7", "--out", str(a)]) == 0
        assert main(["fig2", "--seed", "7", "--out", str(b)]) == 0
        for name in ("witness.csv", "correlations.csv", "report.json"):
            assert read(a / name) == read(b / name)

    def test_validate_bad_state_exits_2(self, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [2, 0, 0]}}))
        assert main(["validate", str(doc)]) == 2

    def test_validate_good_state(self, tmp_path, capsys):
        doc = tmp_path / "ok.json"
        doc.write_text(json.dumps({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}))
        assert main(["validate", str(doc)]) == 0
        assert json.loads(capsys.readouterr().out)["form"] == "bloch"

    def test_custom_command(self, tmp_path):
        doc = tmp_path / "state.json"
        doc.write_text(json.dumps({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}))
        assert main(["custom", str(doc), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "custom.csv").exists()

    @pytest.mark.parametrize("command, fault", [
        ("fig2", "tolerance"), ("fig4", "tolerance"), ("custom", "tolerance"), ("fig2", "table"),
        ("fig2", "raw-scaled"), ("custom", "raw-scaled"),
    ], ids=["fig2", "fig4", "custom", "fig2-wrong-table", "fig2-raw-scaled",
            "custom-raw-scaled"])
    def test_cross_check_failure_exit_4(self, tmp_path, monkeypatch, capsys, command, fault):
        import nmrwitness.harness as harness

        argv = [command]
        if fault == "tolerance":
            monkeypatch.setattr(harness, "CROSS_CHECK_TOL", -1.0)
        elif fault == "table":
            # steps 2 and 3 read each other's correlation: QC's (1, 1, -1) reads (1, -1, 1)
            monkeypatch.setattr(harness, "STEP_OBSERVABLES", harness.STEP_OBSERVABLES[:, [0, 2, 1]])
        else:
            # a 1e-4 table error gaps the raw deviation readouts by about 2e-9,
            # 1e-4 in the thermal units the gap is measured in
            monkeypatch.setattr(harness, "STEP_OBSERVABLES", harness.STEP_OBSERVABLES * (1 + 1e-4))
            argv += ["--normalization", "raw"]
        if command == "custom":
            state = {"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}
            if fault == "raw-scaled":
                # custom reads raw; the QC deviation at the experiment's epsilon
                # must gap in thermal units, as fig2's does
                dev = prepare_deviation("QC", SpinSystemParams())
                state = {"epsilon": dev.epsilon, "delta_re": dev.delta.real.tolist(),
                         "delta_im": dev.delta.imag.tolist()}
            doc = tmp_path / "state.json"
            doc.write_text(json.dumps(state))
            argv.append(str(doc))
        assert main([*argv, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert captured.out == "" and "\n" not in err and "Traceback" not in err
        assert err.startswith("cross-check failure:")

    def test_optimizer_failure_exit_3(self, tmp_path, capsys, no_start_converges):
        # Only the exact discord searches, so exit 3 is reached through custom.
        doc = tmp_path / "state.json"
        doc.write_text(json.dumps({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}))
        assert main(["custom", str(doc), "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert captured.out == "" and "\n" not in err and "Traceback" not in err
        assert err.startswith("optimizer failure:")

    def test_non_finite_deviation_exit_2(self, tmp_path):
        delta = np.zeros((4, 4))
        delta[0, 0] = np.nan
        doc = tmp_path / "nan.json"
        doc.write_text(json.dumps({"epsilon": 1e-5, "delta_re": delta.tolist(),
                                   "delta_im": np.zeros((4, 4)).tolist()}))
        assert main(["custom", str(doc)]) == 2

    def test_fig4_zero_steps_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_steps": 0}))
        assert main(["fig4", "--config", str(cfg)]) == 2

    def test_fig4_zero_delta_t_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_t": 0}))
        assert main(["fig4", "--config", str(cfg)]) == 2
        assert "delta_t" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"n_step": 3}, "n_step"),
        ({"params": {"t2_h": 0.1}}, "t2_h"),
        ({"optimizer": {"maxiter": 1}}, "optimizer"),
        ({"params": {"offset_h": 0.0}}, "offset_h"),
        ({"direction_seeds": [1, 2]}, "direction_seeds"),
    ])
    def test_unknown_config_key_exit_2(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["fig4", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        args = build_parser().parse_args(["fig4", "--config", str(cfg)])
        with pytest.raises(BadConfig, match=f"unknown .* keys in --config: {key}$"):
            _config_from_args(args)

    @staticmethod
    def _one_line_exit_2(capsys, argv, *needles):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert captured.out == "" and "\n" not in err and "Traceback" not in err
        for needle in needles:
            assert needle in err

    @pytest.mark.parametrize("command", ["custom", "validate"])
    def test_missing_or_unreadable_state_file_exit_2(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.json"
        self._one_line_exit_2(capsys, [command, str(missing)], "cannot read state file", str(missing))
        # A directory stands in for an unreadable file (file modes do not stop root).
        self._one_line_exit_2(capsys, [command, str(tmp_path)], "cannot read state file")

    def test_missing_or_unreadable_config_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        self._one_line_exit_2(capsys, ["fig2", "--config", str(missing)],
                              "cannot read config file", str(missing))
        self._one_line_exit_2(capsys, ["fig2", "--config", str(tmp_path)], "cannot read config file")

    @pytest.mark.parametrize("doc", [[1, 2], "QC", 3, None])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        self._one_line_exit_2(capsys, ["fig4", "--config", str(cfg)], "JSON object")
        cfg.write_text(json.dumps({"params": doc}))
        self._one_line_exit_2(capsys, ["fig4", "--config", str(cfg)], "params", "JSON object")

    @pytest.mark.parametrize("command", ["custom", "validate"])
    @pytest.mark.parametrize("doc", [[1, 2], "state", 1.5, None, {"bloch": [0, 0, 0]}])
    def test_state_not_an_object_exit_2(self, tmp_path, capsys, command, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        self._one_line_exit_2(capsys, [command, str(path)], "JSON object")

    @pytest.mark.parametrize("command", ["custom", "validate"])
    @pytest.mark.parametrize("doc, key", [
        ({"epsilon": 1e-5, "delta_re": np.zeros((4, 4)).tolist()}, "delta_im"),
        ({"delta_re": np.zeros((4, 4)).tolist(), "delta_im": np.zeros((4, 4)).tolist()}, "epsilon"),
        ({"bloch": {"a": [0, 0, 0], "c": [1, 1, -1]}}, "b"),
    ])
    def test_state_missing_key_exit_2(self, tmp_path, capsys, command, doc, key):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        self._one_line_exit_2(capsys, [command, str(path)], f"lacks the key {key!r}")

    @pytest.mark.parametrize("command", ["custom", "validate"])
    @pytest.mark.parametrize("doc, key", [
        ({"epsilon": None, "delta_re": np.zeros((4, 4)).tolist(),
          "delta_im": np.zeros((4, 4)).tolist()}, "epsilon"),
        ({"epsilon": 1e-5, "delta_re": np.zeros((4, 4)).tolist(), "delta_im": {"a": 1}}, "delta_im"),
        ({"bloch": {"a": {"x": 1}, "b": [0, 0, 0], "c": [1, 1, -1]}}, "a"),
        ({"epsilon": 1e-5, "delta_re": None, "delta_im": np.zeros((4, 4)).tolist()}, "delta_re"),
        ({"bloch": {"a": [0, 0, 0], "b": "0", "c": [1, 1, -1]}}, "b"),
        ({"epsilon": "1e-5", "delta_re": np.zeros((4, 4)).tolist(),
          "delta_im": np.zeros((4, 4)).tolist()}, "epsilon"),
        ({"epsilon": True, "delta_re": np.zeros((4, 4)).tolist(),
          "delta_im": np.zeros((4, 4)).tolist()}, "epsilon"),
        ({"epsilon": 1e-5, "delta_re": [["0", 0, 0, 0]] + np.zeros((3, 4)).tolist(),
          "delta_im": np.zeros((4, 4)).tolist()}, "delta_re"),
        ({"epsilon": 1e-5, "delta_re": np.zeros((4, 4)).tolist(),
          "delta_im": [[None, 0, 0, 0]] + np.zeros((3, 4)).tolist()}, "delta_im"),
        ({"bloch": {"a": [True, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}, "a"),
    ])
    def test_state_non_number_exit_2(self, tmp_path, capsys, command, doc, key):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        self._one_line_exit_2(capsys, [command, str(path)], f"key {key!r} must be")
        with pytest.raises(BadDocument, match=f"key {key!r} must be"):
            state_from_json(doc)

    @pytest.mark.parametrize("command", ["custom", "validate"])
    @pytest.mark.parametrize("doc, message", [
        # the trace overflows to nan
        ({"epsilon": 1e-5, "delta_re": np.diag([1e308, 1e308, -1e308, -1e308]).tolist(),
          "delta_im": np.zeros((4, 4)).tolist()}, "deviation matrix has trace"),
        # the Hermiticity residual overflows
        ({"epsilon": 1e-5, "delta_re": [[0, 1e308, 0, 0], [-1e308, 0, 0, 0], [0] * 4, [0] * 4],
          "delta_im": np.zeros((4, 4)).tolist()}, "deviation matrix is not Hermitian"),
        # the composed matrix overflows
        ({"bloch": {"a": [1e308, 0, 0], "b": [0, 0, 0], "c": [1e308, 1e308, 1e308]}}, "non-finite"),
    ])
    def test_huge_state_entries_exit_2_without_warnings(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._one_line_exit_2(capsys, [command, str(path)], message)
        assert caught == []

    @pytest.mark.parametrize("doc, key", [
        ({"state_kinds": 5}, "state_kinds"),
        ({"n_steps": "a"}, "n_steps"),
        ({"seed": "x"}, "seed"),
        ({"delta_t": "x"}, "delta_t"),
    ])
    def test_wrong_type_config_value_exit_2(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        self._one_line_exit_2(capsys, ["fig4", "--config", str(cfg)], f"config {key} must be")

    @pytest.mark.parametrize("command, doc, key", [
        ("fig2", {"params": {"t1_h": "x"}}, "params.t1_h"),
        ("fig2", {"params": {"t1_h": True}}, "params.t1_h"),
    ])
    def test_wrong_nested_config_value_exit_2(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"bloch": {"a": [0, 0, 0], "b": [0, 0, 0], "c": [1, 1, -1]}}))
        argv = [command, str(state)] if command == "custom" else [command]
        self._one_line_exit_2(capsys, [*argv, "--config", str(cfg)], f"config {key} must be")

    def test_over_noised_state_is_not_a_state(self):
        cfg = ExperimentConfig(noise_level=20.0, params=SpinSystemParams(epsilon=0.1))
        with pytest.raises(NotAState):
            run_fig2(cfg)

    @pytest.mark.parametrize("field, value", [
        ("experiment", "fig5"), ("state_kinds", "QC"), ("state_kinds", [1]), ("state_kinds", []),
        ("seed", -1), ("seed", 1.5), ("seed", True), ("normalization", "peak"),
        ("noise_level", -0.1), ("noise_level", float("nan")), ("pulse_level", 1),
        ("params", None), ("out_dir", 3),
        ("delta_t", 0.0), ("delta_t", float("inf")), ("delta_t", True), ("delta_t", 10**400),
        ("n_steps", 0),
        ("n_steps", 2.0), ("write_timing", "yes"),
    ])
    def test_experiment_config_checks_each_field(self, field, value):
        with pytest.raises(BadConfig, match=rf"^config {field} must be"):
            ExperimentConfig(**{field: value})

    def test_experiment_config_lists_become_tuples(self):
        assert ExperimentConfig(state_kinds=["QC", "CC"]).state_kinds == ("QC", "CC")

    def test_state_missing_key_is_bad_document(self):
        with pytest.raises(BadDocument, match="'delta_im'"):
            state_from_json({"epsilon": 1e-5, "delta_re": np.zeros((4, 4)).tolist()})
        with pytest.raises(BadDocument, match="JSON object"):
            state_from_json([1, 2])

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state_kinds": ["QC"], "params": {"epsilon": 1e-4}}))
        out = tmp_path / "out"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        lines = read(out / "witness.csv").strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("QC,")

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NMRWITNESS_OUT", str(tmp_path / "envout"))
        assert main(["fig3"]) == 0
        assert (tmp_path / "envout" / "distances.csv").exists()

    def test_timing_flag_writes_timing(self, tmp_path):
        assert main(["fig3", "--out", str(tmp_path), "--timing"]) == 0
        assert (tmp_path / "timing.json").exists()

    def test_epsilon_flag(self, tmp_path):
        assert main(["fig2", "--epsilon", "1e-4", "--out", str(tmp_path)]) == 0
        report = json.loads(read(tmp_path / "report.json"))
        qc = next(r for r in report["rows"] if r["state"] == "QC")
        assert abs(qc["witness"]["W"] - 3.0) < 1e-9


def correlation_row(state_id: str, corr: dict) -> list:
    basis = corr["argmax_basis"]
    return [state_id, corr["I"], corr["Q"], corr["C"], corr["units"],
            *(basis[k] for k in ("theta_a", "phi_a", "theta_b", "phi_b"))]


# each table's rows as its report.json rows hold them, per experiment
TABLE_ROWS = {
    "fig2": {
        "witness.csv": lambda rows: [
            [r["state"], r["witness"]["W"], *r["witness"]["o"], r["witness"]["mode"],
             r["witness"]["normalization"]] for r in rows],
        "correlations.csv": lambda rows: [correlation_row(r["state"], r["correlations"])
                                          for r in rows],
    },
    "fig3": {
        "deviation_elements.csv": lambda rows: [
            [r["state"], i, j, r["delta_re"][i][j], r["delta_im"][i][j]]
            for r in rows for i in range(4) for j in range(4)],
        "distances.csv": lambda rows: [[r["state"], r["distance_to_ideal"]] for r in rows],
    },
    "fig4": {
        "dynamics.csv": lambda rows: [[r[k] for k in ("t_s", "W", "I", "Q", "C")] for r in rows],
    },
    "custom": {
        "custom.csv": lambda rows: [correlation_row("custom", rows[0]["exact_correlations"])],
    },
}

TABLE_RUNS = {f"{fig}-{variant}": [fig, *flags] for fig in ("fig2", "fig3", "fig4")
              for variant, flags in DIGEST["FIGURE_VARIANTS"].items()}
TABLE_RUNS.update({f"custom-{kind}": ["custom", kind] for kind in DIGEST["state_documents"]()})


class TestTables:
    @pytest.mark.parametrize("argv", TABLE_RUNS.values(), ids=TABLE_RUNS.keys())
    def test_every_table_agrees_with_its_report(self, tmp_path, capsys, argv):
        experiment = argv[0]
        if experiment == "custom":
            doc = tmp_path / "state.json"
            doc.write_text(json.dumps(DIGEST["state_documents"]()[argv[1]]))
            argv = ["custom", str(doc)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(read(out / "report.json"))
        tables = TABLE_ROWS[experiment]
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(tables)
        for name, json_rows in tables.items():
            header, *lines = read(out / name).splitlines()
            want = json_rows(report["rows"])
            assert len(lines) == len(want) > 0, name
            for line, expect in zip(lines, want):
                fields = line.split(",")
                assert len(fields) == header.count(",") + 1 == len(expect), (name, line)
                for field, value in zip(fields, expect):
                    if isinstance(value, float):
                        assert float(field) == float(f"{value:.12g}"), (name, line)
                    else:
                        assert field == str(value), (name, line)
