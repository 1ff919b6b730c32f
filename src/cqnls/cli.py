"""Command-line surface: reproducible pipelines over the toolkit modules.

Every command writes its documented CSV/JSON artifacts plus a manifest
carrying a schema version, the effective-configuration hash, and the wall
time (wall time lives only in the manifest so data files stay bit-for-bit
reproducible).  Exit codes: 0 success, 2 frequency outside the existence
window, 3 solver or validation failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CqnlsError, FrequencyOutOfWindow
from .functionals import evaluate
from .profiles import test_function_profile
from .shooting import ODE_TOLERANCE, solve_cubic_reference, solve_ground_state

SCHEMA_VERSION = 1
RESIDUAL_GATE = 1e-7
ENV_OUT_DIR = "CQNLS_OUT_DIR"


def _read_config_file(path: str | None) -> dict:
    """Flat key=value document; '#' starts a comment."""
    if not path:
        return {}
    options = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        options[key.strip().replace("-", "_")] = value.strip()
    return options


def _effective_options(args: argparse.Namespace, keys) -> dict:
    file_opts = _read_config_file(getattr(args, "config", None))
    merged = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None and key in file_opts:
            value = file_opts[key]
        merged[key] = value
    return merged


def _coerce_float(value, default=None):
    if value is None:
        return default
    return float(value)


def _config_hash(options: dict) -> str:
    payload = json.dumps({k: repr(v) for k, v in sorted(options.items())})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get(ENV_OUT_DIR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict):
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2)


def _write_manifest(directory: Path, command: str, options: dict,
                    wall_time: float, extra: dict | None = None):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": command,
        "config_hash": _config_hash(options),
        "options": {k: (v if v is None or isinstance(v, (int, float, str, bool))
                        else repr(v)) for k, v in options.items()},
        "wall_time_seconds": wall_time,
    }
    if extra:
        manifest.update(extra)
    _write_json(directory / "manifest.json", manifest)


#: subcommand name -> (help, flags, run); see ``_command``
_COMMANDS: dict = {}
_OMEGA = ("--omega", {"required": True})
_GRID_FLAGS = (("--grid-size", {}), ("--omega-min", {}), ("--omega-max", {}))


def _command(help_text: str, *flags):
    """Register ``cmd_<name>(options, ode_tolerance, out) -> (exit code, extras)``.

    ``flags`` are (flag, argparse keyword) pairs; every command also takes
    --out, --config and --ode-tol.  The shared skeleton merges the options,
    reads the ODE tolerance, creates the output directory and writes the
    manifest.
    """
    def register(run):
        _COMMANDS[run.__name__.removeprefix("cmd_")] = (help_text, flags, run)
        return run
    return register


def _run_command(args) -> int:
    start = time.perf_counter()
    _, flags, run = _COMMANDS[args.command]
    keys = [flag[2:].replace("-", "_") for flag, _ in flags] + ["ode_tol"]
    options = _effective_options(args, keys)
    out = _out_dir(args)
    code, extra = run(options, _coerce_float(options.get("ode_tol"), ODE_TOLERANCE), out)
    _write_manifest(out, args.command, options, time.perf_counter() - start, extra)
    return code


@_command("solve one ground state", _OMEGA)
def cmd_solve(options, ode_tolerance, out):
    omega = _coerce_float(options["omega"])
    profile = solve_ground_state(omega, ode_tolerance)
    report = evaluate(profile)
    residuals = {"nehari": report.nehari_residual,
                 "pohozaev": report.pohozaev_residual}
    profile.save(out, ode_tolerance, residuals)
    _write_json(out / "report.json", {**report.as_dict(), "omega": omega})
    extra = {"residuals": residuals}
    if (report.nehari_residual > RESIDUAL_GATE
            or report.pohozaev_residual > RESIDUAL_GATE):
        print(f"residual gate failed: nehari={report.nehari_residual:.2e}, "
              f"pohozaev={report.pohozaev_residual:.2e} exceed {RESIDUAL_GATE:g}",
              file=sys.stderr)
        return 3, extra
    print(f"solved omega={omega}: residuals {residuals}")
    return 0, extra


def _scan(options, ode_tolerance):
    from .curves import default_omega_grid, scan

    n = int(options.get("grid_size") or 60)
    lo = _coerce_float(options.get("omega_min"), 0.004)
    hi = _coerce_float(options.get("omega_max"), 0.185)
    return scan(default_omega_grid(n, lo, hi), ode_tolerance)


def _critical(options, ode_tolerance):
    from .curves import locate_critical

    curve = _scan(options, ode_tolerance)
    return curve, locate_critical(curve, ode_tolerance)


@_command("sweep the frequency window",
          ("--derivatives", {"action": "store_true"}), *_GRID_FLAGS)
def cmd_scan(options, ode_tolerance, out):
    from .curves import differentiate

    curve = _scan(options, ode_tolerance)
    if options.get("derivatives"):
        curve = differentiate(curve, ode_tolerance)
    curve.to_csv(out / "curve.csv")
    print(f"scanned {len(curve.points)} frequencies "
          f"({len(curve.failures)} failures) -> {out / 'curve.csv'}")
    return (0 if curve.points else 3), {"failures": [list(f) for f in curve.failures],
                                        "points": len(curve.points)}


@_command("locate the critical frequencies", *_GRID_FLAGS)
def cmd_critical(options, ode_tolerance, out):
    from .curves import classify_stability

    curve, crit = _critical(options, ode_tolerance)
    curve = classify_stability(curve, crit)
    curve.to_csv(out / "curve.csv")
    crit.to_json(out / "critical.json")
    print(json.dumps(crit.as_dict(), indent=2))
    return 0, {"failures": [list(f) for f in curve.failures]}


@_command("count normalized solutions at a mass", ("--mass", {}),
          ("--mass-ratio", {"help": "mass as a multiple of the minimum soliton mass m0"}),
          *_GRID_FLAGS)
def cmd_classify(options, ode_tolerance, out):
    from .landscape import classify_normalized

    curve, crit = _critical(options, ode_tolerance)
    if options.get("mass") is not None:
        mass = float(options["mass"])
    elif options.get("mass_ratio") is not None:
        mass = float(options["mass_ratio"]) * crit.m0
    else:
        raise ValueError("classify needs --mass or --mass-ratio")
    result = classify_normalized(mass, curve, crit, ode_tolerance)
    _write_json(out / "classification.json", result.as_dict())
    print(json.dumps(result.as_dict(), indent=2))
    return 0, None


@_command("constrained-minimization table", ("--mass-grid", {}), *_GRID_FLAGS)
def cmd_landscape(options, ode_tolerance, out):
    from .landscape import landscape_table, write_landscape_csv

    curve, crit = _critical(options, ode_tolerance)
    n_masses = int(options.get("mass_grid") or 20)
    masses = np.linspace(0.4 * crit.m_threshold, 2.2 * crit.m_q1, n_masses)
    rows = landscape_table(masses, curve, crit, ode_tolerance)
    write_landscape_csv(rows, out / "landscape.csv")
    print(f"landscape table over {n_masses} masses -> {out / 'landscape.csv'}")
    return 0, {"critical": crit.as_dict()}


@_command("finite-time stability experiment", _OMEGA, ("--perturbation", {}),
          ("--t-end", {}), ("--dt", {}))
def cmd_evolve(options, ode_tolerance, out):
    from .dynamics import stability_experiment, write_experiment

    result = stability_experiment(
        _coerce_float(options["omega"]),
        _coerce_float(options.get("perturbation"), 0.01),
        t_end=_coerce_float(options.get("t_end"), 100.0),
        dt=_coerce_float(options.get("dt"), 0.02), ode_tolerance=ode_tolerance)
    write_experiment(result, out)
    print(f"verdict: {result['verdict']} "
          f"(growth ratio {result['growth_ratio']:.2f})")
    return 0, {"verdict": result["verdict"]}


@_command("linearized operator spectra", _OMEGA, ("--n-eigs", {}))
def cmd_spectra(options, ode_tolerance, out):
    from .dynamics import linearized_spectra

    ground = solve_ground_state(_coerce_float(options["omega"]), ode_tolerance)
    record = linearized_spectra(ground, n_eigs=int(options.get("n_eigs") or 6))
    _write_json(out / "spectra.json", record)
    print(json.dumps(record, indent=2))
    return 0, None


def _validate_checks(ode_tolerance: float) -> list[tuple[str, bool, str]]:
    from .analytic1d import validate_quadrature_1d

    checks = []

    gaussian = test_function_profile(
        lambda r: np.exp(-(r**2)), lambda r: -2.0 * r * np.exp(-(r**2)))
    mass = evaluate(gaussian).mass
    target = (math.pi / 2.0) ** 1.5
    err = abs(mass - target) / target
    checks.append(("gaussian mass (pi/2)^(3/2)", err < 1e-10, f"rel err {err:.2e}"))

    oned = validate_quadrature_1d(0.1)
    worst = max(v["rel_error"] for v in oned.values() if isinstance(v, dict))
    checks.append(("1d closed-form quadrature", worst < 1e-10, f"worst rel {worst:.2e}"))
    checks.append(("1d nehari identity", oned["nehari_residual"] < 1e-9,
                   f"residual {oned['nehari_residual']:.2e}"))

    solves = [(f"ground-state residuals omega={omega}",
               functools.partial(solve_ground_state, omega, ode_tolerance))
              for omega in (0.05, 0.09, 0.15)]
    solves.append(("cubic reference residuals",
                   functools.partial(solve_cubic_reference, ode_tolerance)))
    for name, solve in solves:
        try:
            rep = evaluate(solve())
        except CqnlsError as err:
            # a failed solve is a failed check; the battery goes on
            checks.append((name, False, f"{type(err).__name__}: {err}"))
            continue
        ok = (rep.nehari_residual < RESIDUAL_GATE
              and rep.pohozaev_residual < RESIDUAL_GATE)
        checks.append((name, ok, f"nehari {rep.nehari_residual:.2e}, "
                                 f"pohozaev {rep.pohozaev_residual:.2e}"))
    return checks


@_command("run the invariant battery")
def cmd_validate(options, ode_tolerance, out):
    checks = _validate_checks(ode_tolerance)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}")
    all_ok = all(ok for _, ok, _ in checks)
    return (0 if all_ok else 3), {"checks": [{"name": n, "pass": bool(p), "detail": d}
                                             for n, p, d in checks]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqnls",
        description="Ground-state soliton toolkit for the 3D cubic-quintic NLS",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT_DIR} or .)")
        p.add_argument("--config", help="flat key=value config file; CLI overrides")
        p.add_argument("--ode-tol", dest="ode_tol", help="ODE integrator tolerance")
    return parser


def _is_negative_number(token: str) -> bool:
    if not token.startswith("-"):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--omega -1e-3`` -> ``--omega=-1e-3``.

    argparse's negative-number pattern has no exponent form, so it would
    read such a value as an unknown flag instead of handing it to the
    window check.
    """
    attached = []
    for token in argv:
        if (attached and attached[-1].startswith("--") and "=" not in attached[-1]
                and _is_negative_number(token)):
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return attached


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        return _run_command(args)
    except FrequencyOutOfWindow as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CqnlsError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
