import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.cli import ENV_OUT_DIR, _read_config_file, build_parser, main
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

    def test_exponent_form_negative_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--omega", "-1e-3", "--out", str(tmp_path)]) == 2
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

    def test_validate_records_solver_errors(self, tmp_path, capsys):
        # at 1e-3 the ground-state solves raise; each is a FAIL row and the
        # battery still runs to the end and writes its manifest
        assert main(["validate", "--ode-tol", "1e-3", "--out", str(tmp_path)]) == 3
        printed = capsys.readouterr().out
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert len(checks) == 7
        assert [c["pass"] for c in checks[:3]] == [True, True, True]
        failed = [c for c in checks if c["detail"].startswith("DomainTooSmall: ")]
        assert failed and not any(c["pass"] for c in failed)
        assert "cubic reference residuals" in printed
        assert all(c["name"] in printed for c in failed)


_KEYS = st.from_regex(r"[a-z][a-z0-9]{0,6}(-[a-z0-9]{1,4}){0,2}", fullmatch=True)
_VALUES = st.text(st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"],
                                blacklist_characters="#"), max_size=12).map(str.strip)
_COMMENTS = st.text(st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"]),
                    max_size=12)


def _write_temp(text: str) -> Path:
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write(text)
    return Path(fh.name)


class TestConfigProperties:
    @settings(max_examples=50, deadline=None)
    @given(options=st.dictionaries(_KEYS, _VALUES, max_size=6),
           comments=st.lists(_COMMENTS, min_size=8, max_size=8),
           pad=st.sampled_from(["", " ", "  "]))
    def test_read_config_round_trips(self, options, comments, pad):
        lines = [f"# {comments[0]}", ""]
        for i, (key, value) in enumerate(options.items()):
            lines.append(f"{pad}{key}{pad}={pad}{value}{pad}#{comments[i + 1]}")
        path = _write_temp("\n".join(lines) + "\n")
        try:
            parsed = _read_config_file(str(path))
        finally:
            path.unlink()
        assert parsed == {key.replace("-", "_"): value for key, value in options.items()}

    @settings(max_examples=25, deadline=None)
    @given(omega=st.one_of(st.floats(max_value=0.0, allow_nan=False),
                           st.floats(min_value=3.0 / 16.0, allow_nan=False)),
           command=st.sampled_from(["solve", "spectra"]),
           attached=st.booleans())
    def test_out_of_window_exits_2(self, omega, command, attached):
        # repr gives the exponent form (-1e-05) that argparse's own
        # negative-number pattern misses when the value stands alone
        value = ([f"--omega={omega!r}"] if attached else ["--omega", repr(omega)])
        with tempfile.TemporaryDirectory() as out:
            assert main([command, *value, "--out", out]) == 2

    @settings(max_examples=25, deadline=None)
    @given(line=st.text(st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"],
                                      blacklist_characters="=#"), min_size=1)
           .filter(str.strip))
    def test_non_key_value_line_exits_3(self, line):
        path = _write_temp(f"omega = 0.09\n{line}\n")
        try:
            with tempfile.TemporaryDirectory() as out:
                assert main(["solve", "--config", str(path), "--omega", "0.09",
                             "--out", out]) == 3
        finally:
            path.unlink()
