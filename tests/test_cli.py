import json

import pytest

from cqnls.cli import ENV_OUT_DIR, build_parser, main
from cqnls.functionals import evaluate
from cqnls.profiles import GROUND_STATE, RadialProfile


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        expected = {"solve", "scan", "critical", "classify", "landscape",
                    "evolve", "spectra", "validate"}
        assert expected <= set(sub.choices)

    @pytest.mark.parametrize("command", ["scan", "critical", "classify", "landscape"])
    def test_grid_flags(self, command):
        args = build_parser().parse_args(
            [command, "--grid-size", "5", "--omega-min", "0.01", "--omega-max", "0.1"])
        assert (args.grid_size, args.omega_min, args.omega_max) == ("5", "0.01", "0.1")


class TestSolve:
    def test_success_writes_artifacts(self, tmp_path):
        out = tmp_path / "run1"
        assert main(["solve", "--omega", "0.09", "--out", str(out)]) == 0
        assert (out / "profile.csv").exists()
        assert (out / "report.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["command"] == "solve"
        assert "config_hash" in manifest and "wall_time_seconds" in manifest
        header = (out / "profile.csv").read_text().splitlines()[0]
        assert header == "r,u,u_prime"

    def test_profile_reloads(self, tmp_path):
        assert main(["solve", "--omega", "0.09", "--out", str(tmp_path)]) == 0
        back = RadialProfile.from_csv(tmp_path / "profile.csv",
                                      tmp_path / "profile.json")
        report = json.loads((tmp_path / "report.json").read_text())
        assert back.omega == 0.09 and back.kind == GROUND_STATE
        assert back.values[0] == back.amplitude
        reloaded = evaluate(back).as_dict()
        assert reloaded == {k: report[k] for k in reloaded}

    def test_window_violation_exits_2(self, tmp_path, capsys):
        code = main(["solve", "--omega", "0.2", "--out", str(tmp_path)])
        assert code == 2
        assert "(0, 3/16)" in capsys.readouterr().err

    def test_loose_tolerance_exits_3(self, tmp_path):
        code = main(["solve", "--omega", "0.09", "--ode-tol", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 3

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT_DIR, str(tmp_path / "envout"))
        assert main(["solve", "--omega", "0.09"]) == 0
        assert (tmp_path / "envout" / "profile.csv").exists()


class TestScan:
    def test_writes_curve_and_manifest(self, tmp_path):
        out = tmp_path / "sc"
        code = main(["scan", "--grid-size", "6", "--omega-min", "0.03",
                     "--omega-max", "0.12", "--out", str(out)])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0].startswith("omega,mass,energy,beta,d")
        assert len(lines) == 7
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert manifest["points"] == 6

    def test_config_file_with_cli_override(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("grid-size = 5\nomega-min = 0.03  # inline comment\n"
                          "omega-max = 0.12\n")
        out = tmp_path / "sc"
        code = main(["scan", "--config", str(config), "--grid-size", "4",
                     "--out", str(out)])
        assert code == 0
        assert len((out / "curve.csv").read_text().splitlines()) == 5  # CLI wins


class TestPipelines:
    def test_critical_and_classify(self, tmp_path):
        out = tmp_path / "crit"
        assert main(["critical", "--out", str(out)]) == 0
        critical = json.loads((out / "critical.json").read_text())
        assert 0.0 < critical["omega_star"] < critical["omega_upper_star"]
        assert critical["m_threshold"] < critical["m0"] < critical["m_q1"]

        out2 = tmp_path / "cls"
        assert main(["classify", "--mass-ratio", "1.5", "--out", str(out2)]) == 0
        result = json.loads((out2 / "classification.json").read_text())
        assert result["count"] == 2
        lo, hi = result["frequencies"]
        assert lo < critical["omega_star"] < hi

    def test_spectra(self, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectra", "--omega", "0.09", "--out", str(out)]) == 0
        record = json.loads((out / "spectra.json").read_text())
        assert abs(record["lminus_eigs"][0]) < 1e-6
        assert record["lplus_eigs"][0] < 0.0

    def test_evolve_short_run(self, tmp_path):
        out = tmp_path / "evo"
        code = main(["evolve", "--omega", "0.09", "--perturbation", "0.01",
                     "--t-end", "2", "--dt", "0.02", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "experiment.json").read_text())
        assert payload["omega"] == 0.09
        assert (out / "experiment_ledger.csv").exists()

    def test_validate_passes(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert all(c["pass"] for c in manifest["checks"])

    def test_validate_honours_ode_tol(self, tmp_path):
        assert main(["validate", "--ode-tol", "1e-3", "--out", str(tmp_path)]) == 3
