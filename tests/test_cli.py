import csv
import json
import math
import runpy
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# imported here so that the ``solves`` spy finds their bindings
import cqnls.curves  # noqa: F401
import cqnls.landscape  # noqa: F401
from cqnls import cli, shooting
from cqnls.cli import (_COMMANDS, ENV_OUT_DIR, _attach_negative_values, _config_flags,
                       _with_config, build_parser, main)
from cqnls.errors import DomainTooSmall
from cqnls.functionals import evaluate
from cqnls.profiles import GROUND_STATE, OMEGA_MAX, RadialProfile


@pytest.fixture
def solves(monkeypatch):
    """Every cqnls binding of ``solve_ground_state`` spied on: the list of
    the calls' arguments."""
    calls, original = [], shooting.solve_ground_state

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("cqnls") and vars(module).get("solve_ground_state") is original:
            monkeypatch.setattr(module, "solve_ground_state", spy)
    return calls


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
        assert (args.grid_size, args.omega_min, args.omega_max) == (5, 0.01, 0.1)

    def test_defaults(self):
        args = build_parser().parse_args(["landscape"])
        assert (args.grid_size, args.omega_min, args.omega_max, args.mass_grid,
                args.ode_tol) == (60, 0.004, 0.185, 20, 1e-12)
        args = build_parser().parse_args(["evolve", "--omega", "0.073"])
        assert (args.perturbation, args.t_end, args.dt) == (0.01, 100.0, 0.02)

    def test_fixed_pipelines_parse(self):
        # every command line of the no-drift digest is one the CLI accepts
        script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts"
                                    / "fixed_pipelines.py"))
        parser = build_parser()
        for name, argv, _ in script["PIPELINES"]:
            args = parser.parse_args([*argv, "--out", name, "--config", "window.txt"])
            assert args.command == argv[0]


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
        reloaded = asdict(evaluate(back))
        assert reloaded == {k: report[k] for k in reloaded}

    def test_window_violation_exits_2(self, tmp_path, capsys):
        code = main(["solve", "--omega", "0.2", "--out", str(tmp_path)])
        assert code == 2
        assert "(0, 3/16)" in capsys.readouterr().err

    def test_exponent_form_negative_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--omega", "-1e-3", "--out", str(tmp_path)]) == 2
        assert "(0, 3/16)" in capsys.readouterr().err

    def test_past_the_depth_limit_exits_3(self, tmp_path, capsys):
        code = main(["solve", "--omega", "0.1872", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "BracketFailure" in err and "depth limit" in err

    def test_loose_tolerance_exits_3(self, tmp_path):
        code = main(["solve", "--omega", "0.09", "--ode-tol", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "0.1", "0", "1e-3"])
    def test_bad_tolerance_exits_3(self, tol, tmp_path, capsys):
        # nan never returned and inf or 0.1 overflowed in the ODE runs; at
        # 1e-3 most tails missed the fit
        code = main(["solve", "--omega", "0.09", "--ode-tol", tol, "--out", str(tmp_path)])
        assert code == 3
        assert "ode_tolerance" in capsys.readouterr().err

    def test_sidecar_records_tolerance(self, tmp_path):
        assert main(["solve", "--omega", "0.09", "--ode-tol", "1e-10",
                     "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "profile.json").read_text())["ode_tolerance"] == 1e-10

    def test_nan_residual_exits_3(self, tmp_path, monkeypatch, capsys):
        # NaN is no residual within the gate
        monkeypatch.setattr(cli, "evaluate", lambda profile: replace(
            evaluate(profile), nehari_residual=math.nan))
        assert main(["solve", "--omega", "0.09", "--out", str(tmp_path)]) == 3
        assert "residual gate failed: nehari=nan" in capsys.readouterr().err

    def test_window_end_solves_at_loose_tolerance(self, tmp_path):
        # the run turns just past the matching window; the tail is fitted
        # before it
        code = main(["solve", "--omega", "0.185", "--ode-tol", "1e-8",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["nehari_residual"] < 1e-7
        assert report["pohozaev_residual"] < 1e-7

    def test_manifest_records_the_defaults_that_ran(self, tmp_path):
        assert main(["solve", "--omega", "0.09", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["options"] == {"omega": 0.09, "ode_tol": 1e-12}

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


class TestConfigFile:
    def test_missing_file_exits_3(self, tmp_path, solves, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["solve", "--omega", "0.09", "--config", str(missing),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert solves == []

    def test_switch_set_in_config(self, tmp_path):
        config = tmp_path / "scan.cfg"
        config.write_text("derivatives = true\ngrid_size = 5\nomega_min = 0.03\n"
                          "omega_max = 0.12\n")
        out = tmp_path / "sc"
        assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
        with (out / "curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 and all(row["mass_derivative"] for row in rows)
        options = json.loads((out / "manifest.json").read_text())["options"]
        assert options["derivatives"] is True and options["grid_size"] == 5

    def test_required_flag_from_config(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text("omega = 0.09\n")
        assert main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["omega"] == 0.09

    @pytest.mark.parametrize("argv", [["solve", "--omega", "0.09"], ["scan"], ["classify"]],
                             ids=["solve", "scan", "classify"])
    def test_unknown_key_exits_2_before_any_solve(self, argv, tmp_path, solves, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("omega_min = 0.03\ngrid_sise = 5\n")
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "--grid-sise=5" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["yes", "1", "True", ""])
    def test_switch_takes_true_or_false(self, value, tmp_path, solves, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text(f"derivatives = {value}\n")
        assert main(["scan", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert "true or false" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("flags, config", [
        ([], ""), (["--mass", "300", "--mass-ratio", "1.5"], ""),
        (["--mass-ratio", "1.5"], "mass = 300\n")], ids=["neither", "both", "one-in-config"])
    def test_classify_needs_one_mass_flag(self, flags, config, tmp_path, solves, capsys):
        path = tmp_path / "classify.cfg"
        path.write_text(config)
        code = main(["classify", *flags, "--config", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "exactly one of --mass and --mass-ratio" in capsys.readouterr().err
        assert solves == []


class TestGridInputs:
    @pytest.mark.parametrize("flags", [
        ["--grid-size", "1"], ["--omega-min", "0.15", "--omega-max", "0.1"]],
        ids=["one-node", "reversed"])
    @pytest.mark.parametrize("command", [["scan"], ["classify", "--mass-ratio", "1.5"]],
                             ids=["scan", "classify"])
    def test_grid_outside_its_window_exits_3_before_any_solve(self, command, flags, tmp_path,
                                                             solves, capsys):
        # scan used to exit 0 with nodes below --omega-min or past --omega-max
        code = main([*command, *flags, "--out", str(tmp_path)])
        assert code == 3
        assert "frequency grid needs at least 2 nodes" in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "classification.json").exists()

    def test_window_the_floats_do_not_split_exits_3_before_any_solve(self, tmp_path,
                                                                       solves, capsys):
        # 60 nodes up to the last float below 3/16 repeat near the top: scan
        # wrote fewer rows than --grid-size
        top = repr(math.nextafter(OMEGA_MAX, 0.0))
        code = main(["scan", "--grid-size", "60", "--omega-max", top, "--out", str(tmp_path)])
        assert code == 3
        assert "no frequency grid of 60 increasing nodes" in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "curve.csv").exists()

    # 0.06 is no node or bound of the grid, so all four grid commands take these
    @pytest.mark.parametrize("flags, lo, hi", [
        (["--grid-size", "6", "--omega-min", "0.1", "--omega-max", "0.15"], 0.1, 0.15),
        (["--grid-size", "6", "--omega-max", "0.05"], 0.004, 0.05),
        (["--grid-size", "2"], 0.004, 0.185)],
        ids=["window-above-split", "window-below-split", "two-nodes"])
    def test_scan_takes_any_inner_window(self, flags, lo, hi, tmp_path):
        assert main(["scan", *flags, "--out", str(tmp_path)]) == 0
        with (tmp_path / "curve.csv").open() as fh:
            omegas = [float(row["omega"]) for row in csv.DictReader(fh)]
        assert len(omegas) == int(flags[1])
        assert omegas[0] == lo and omegas[-1] == hi and omegas == sorted(omegas)

    # both critical frequencies (0.0239 and 0.0547) lie below 0.06
    @pytest.mark.parametrize("flags", [
        ["--mass-ratio", "1.05", "--grid-size", "6", "--omega-max", "0.058"],
        ["--mass-ratio", "1.5", "--grid-size", "2"]],
        ids=["window-below-split", "two-nodes"])
    def test_classify_takes_any_inner_window(self, flags, tmp_path):
        assert main(["classify", *flags, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "classification.json").read_text())
        assert result["count"] == 2


class TestMassInputs:
    @pytest.mark.parametrize("flags", [
        ["--mass", "inf"], ["--mass", "nan"], ["--mass", "-1"], ["--mass", "0"],
        ["--mass-ratio", "nan"], ["--mass-ratio", "-inf"]],
        ids=["inf", "nan", "negative", "zero", "ratio-nan", "ratio-negative-inf"])
    def test_classify_mass_exits_3_before_any_solve(self, flags, tmp_path, solves, capsys):
        code = main(["classify", *flags, "--out", str(tmp_path)])
        assert code == 3
        assert "must be finite and positive" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "classification.json").exists()

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_landscape_mass_grid_exits_3_before_any_solve(self, size, tmp_path, solves,
                                                          capsys):
        code = main(["landscape", "--mass-grid", size, "--out", str(tmp_path)])
        assert code == 3
        assert "--mass-grid needs at least 1 mass" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "landscape.csv").exists()


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

    @pytest.mark.parametrize("flags", [
        ["--t-end", "nan"], ["--t-end", "-5"], ["--t-end", "1e-9"], ["--t-end", "inf"],
        ["--dt", "inf"], ["--dt", "200"], ["--dt", "2.01"], ["--dt", "nan"], ["--dt", "0"]])
    def test_evolve_without_a_step_per_sample_exits_3(self, flags, tmp_path, capsys):
        # a dt beyond the sampling interval t_end / 50 (t_end 100 by default)
        # evolved nothing and still returned a verdict; inf overflowed
        code = main(["evolve", "--omega", "0.073", *flags, "--out", str(tmp_path)])
        assert code == 3
        assert "t_end / 50" in capsys.readouterr().err
        assert not (tmp_path / "experiment.json").exists()

    def test_evolve_with_samples_between_steps_exits_3(self, tmp_path, solves, capsys):
        # t_end / 50 = 0.2 is 6.67 steps of 0.03: the states were at
        # t = 0.21, 0.39, 0.60, ... and the ledger said 0.2, 0.4, 0.6
        code = main(["evolve", "--omega", "0.073", "--t-end", "10", "--dt", "0.03",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "not a whole number of steps" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "experiment.json").exists()

    @pytest.mark.parametrize("n_eigs", ["0", "-2"])
    def test_spectra_without_eigenvalues_exits_3(self, n_eigs, tmp_path, capsys):
        code = main(["spectra", "--omega", "0.09", "--n-eigs", n_eigs, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "n_eigs must be at least 1" in err and "EigSolverStalled" not in err

    def test_validate_passes(self, tmp_path, capsys):
        assert main(["validate", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured and "FAIL" not in captured
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert all(c["pass"] for c in manifest["checks"])

    def test_validate_honours_ode_tol(self, tmp_path, capsys):
        # a tolerance out of range is refused before any check runs or the
        # output directory is made
        out = tmp_path / "out"
        assert main(["validate", "--ode-tol", "1e-3", "--out", str(out)]) == 3
        assert "ode_tolerance" in capsys.readouterr().err
        assert not (out / "manifest.json").exists() and not out.exists()

    def test_validate_records_solver_errors(self, tmp_path, capsys, monkeypatch):
        # where the ground-state solves raise, each is a FAIL row and the
        # battery still runs to the end and writes its manifest
        def fail(omega, ode_tolerance):
            raise DomainTooSmall(f"tail fit mismatch at omega={omega}")
        monkeypatch.setattr(cli, "solve_ground_state", fail)
        assert main(["validate", "--out", str(tmp_path)]) == 3
        printed = capsys.readouterr().out
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert len(checks) == 7
        assert [c["pass"] for c in checks[:3]] == [True, True, True]
        failed = [c for c in checks if c["detail"].startswith("DomainTooSmall: ")]
        assert failed and not any(c["pass"] for c in failed)
        assert "cubic reference residuals" in printed
        assert all(c["name"] in printed for c in failed)


_KEYS = st.from_regex(r"[a-z][a-z0-9]{0,6}([-_][a-z0-9]{1,4}){0,2}", fullmatch=True)
_VALUES = st.text(st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"],
                                blacklist_characters="#"), max_size=12).map(str.strip)
_COMMENTS = st.text(st.characters(blacklist_categories=["Cc", "Cs", "Zl", "Zp"]),
                    max_size=12)


def _flag_text(kwargs):
    """Command-line text of a value of a flag declared with ``kwargs``."""
    if kwargs.get("type") is int:
        return st.integers(-10**6, 10**6).map(str)
    if kwargs.get("type") is float:
        return st.floats(allow_nan=False).map(repr)
    # a value that starts with '-' reads as a flag on the command line
    return _VALUES.filter(lambda value: not value.startswith("-"))


def _parse(argv):
    """``argv`` parsed as ``main`` parses it."""
    return build_parser().parse_args(_with_config(_attach_negative_values(argv)))


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
            flags = _config_flags(str(path), ())
        finally:
            path.unlink()
        assert flags == [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data())
    def test_config_sets_what_the_command_line_sets(self, command, data):
        # each flag is left out, given on the command line, set in the
        # config file, or set in both with the command line's value winning;
        # --config itself names the file and is left out
        cli, config, expected = [], [], []
        for flag, kwargs in _COMMANDS[command][1]:
            if flag == "--config":
                continue
            key = data.draw(st.sampled_from([flag[2:], flag[2:].replace("-", "_")]))
            if kwargs.get("action") == "store_true":
                value = data.draw(st.booleans())
                if data.draw(st.booleans()):
                    config.append(f"{key} = {str(value).lower()}")
                elif value:
                    cli.append(flag)
                expected += [flag] if value else []
                continue
            value = data.draw(_flag_text(kwargs))
            places = ["cli", "config", "both"] + ([] if kwargs.get("required") else ["absent"])
            place = data.draw(st.sampled_from(places))
            if place == "absent":
                continue
            expected += [flag, value]
            if place != "cli":
                stale = value if place == "config" else data.draw(_flag_text(kwargs))
                config.append(f"{key} = {stale}")
            if place != "config":
                cli += [flag, value]
        path = _write_temp("\n".join(data.draw(st.permutations(config))) + "\n")
        try:
            from_config = _parse([command, *cli, "--config", str(path)])
        finally:
            path.unlink()
        from_cli = _parse([command, *expected])
        del from_config.config, from_cli.config
        assert from_config == from_cli

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
