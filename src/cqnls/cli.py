"""Command-line surface: reproducible pipelines over the toolkit modules.

Every command writes its documented CSV/JSON artifacts plus a manifest
carrying a schema version, the effective-configuration hash, and the wall
time (wall time lives only in the manifest so data files stay bit-for-bit
reproducible).  Exit codes: 0 success, 2 frequency outside the existence
window or a usage error, 3 solver or validation failure, or a file that
cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CqnlsError, FrequencyOutOfWindow
from .functionals import evaluate
from .profiles import test_function_profile
from .shooting import (ODE_TOLERANCE, check_tolerance, solve_cubic_reference,
                       solve_ground_state)

SCHEMA_VERSION = 1
RESIDUAL_GATE = 1e-7
ENV_OUT_DIR = "CQNLS_OUT_DIR"


def _config_flags(path: str, switches) -> list[str]:
    """The long flags a flat ``key = value`` file stands for, '#' starting
    a comment: ``--key=value``, and for a flag in ``switches`` ``--key``
    when the value is ``true`` and nothing when it is ``false``."""
    flags = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag not in switches:
            flags.append(f"{flag}={value}")
        elif value not in ("true", "false"):
            raise ValueError(f"config switch {key} takes true or false, not {value!r}")
        elif value == "true":
            flags.append(flag)
    return flags


def _config_hash(options: dict) -> str:
    payload = json.dumps({k: repr(v) for k, v in sorted(options.items())})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get(ENV_OUT_DIR) or ".")
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
        "options": options,
        "wall_time_seconds": wall_time,
    }
    if extra:
        manifest.update(extra)
    _write_json(directory / "manifest.json", manifest)


#: subcommand name -> (help, flags, run); see ``_command``
_COMMANDS: dict = {}
#: the flags every command takes after its own
_COMMON = (("--out", {"help": f"output directory (default ${ENV_OUT_DIR} or .)"}),
           ("--config", {"help": "flat key = value file of long flags; the command line wins"}),
           ("--ode-tol", {"type": float, "default": ODE_TOLERANCE,
                          "help": "ODE integrator tolerance"}))
_OMEGA = ("--omega", {"type": float, "required": True})
_GRID_FLAGS = (("--grid-size", {"type": int, "default": 60}),
               ("--omega-min", {"type": float, "default": 0.004}),
               ("--omega-max", {"type": float, "default": 0.185}))


def _command(help_text: str, *flags):
    """Register ``cmd_<name>(args, out) -> (exit code, extras)``.

    ``flags`` are (flag, argparse keyword) pairs, each with its type and
    default; every command also takes ``_COMMON``.  The shared skeleton
    creates the output directory and writes the manifest, whose options
    are the parsed values less the command, --out and --config.
    """
    def register(run):
        _COMMANDS[run.__name__.removeprefix("cmd_")] = (help_text, (*flags, *_COMMON), run)
        return run
    return register


def _run_command(args) -> int:
    start = time.perf_counter()
    # refused before the output directory is made or any check runs
    check_tolerance(args.ode_tol)
    out = _out_dir(args)
    code, extra = _COMMANDS[args.command][2](args, out)
    options = {k: v for k, v in vars(args).items() if k not in ("command", "out", "config")}
    _write_manifest(out, args.command, options, time.perf_counter() - start, extra)
    return code


def _passes_residual_gate(report) -> bool:
    """Whether both identity residuals of ``report`` are at most
    ``RESIDUAL_GATE``; a NaN residual fails."""
    return (report.nehari_residual <= RESIDUAL_GATE
            and report.pohozaev_residual <= RESIDUAL_GATE)


@_command("solve one ground state", _OMEGA)
def cmd_solve(args, out):
    profile = solve_ground_state(args.omega, args.ode_tol)
    report = evaluate(profile)
    residuals = {"nehari": report.nehari_residual,
                 "pohozaev": report.pohozaev_residual}
    profile.save(out, args.ode_tol, residuals)
    _write_json(out / "report.json", {**asdict(report), "omega": args.omega})
    extra = {"residuals": residuals}
    if not _passes_residual_gate(report):
        print(f"residual gate failed: nehari={report.nehari_residual:.2e}, "
              f"pohozaev={report.pohozaev_residual:.2e}, not both within {RESIDUAL_GATE:g}",
              file=sys.stderr)
        return 3, extra
    print(f"solved omega={args.omega}: residuals {residuals}")
    return 0, extra


def _grid(args):
    from .curves import default_omega_grid

    return default_omega_grid(args.grid_size, args.omega_min, args.omega_max)


def _critical(args):
    from .curves import locate_critical, scan

    curve = scan(_grid(args), args.ode_tol)
    return curve, locate_critical(curve, args.ode_tol)


@_command("sweep the frequency window",
          ("--derivatives", {"action": "store_true"}), *_GRID_FLAGS)
def cmd_scan(args, out):
    from .curves import differentiate, scan

    curve = scan(_grid(args), args.ode_tol)
    if args.derivatives:
        curve = differentiate(curve, args.ode_tol)
    curve.to_csv(out / "curve.csv")
    print(f"scanned {len(curve.points)} frequencies "
          f"({len(curve.failures)} failures) -> {out / 'curve.csv'}")
    return (0 if curve.points else 3), {"failures": [list(f) for f in curve.failures],
                                        "points": len(curve.points)}


@_command("locate the critical frequencies", *_GRID_FLAGS)
def cmd_critical(args, out):
    from .curves import classify_stability

    curve, crit = _critical(args)
    curve = classify_stability(curve, crit)
    curve.to_csv(out / "curve.csv")
    _write_json(out / "critical.json", asdict(crit))
    print(json.dumps(asdict(crit), indent=2))
    return 0, {"failures": [list(f) for f in curve.failures]}


@_command("count normalized solutions at a mass", ("--mass", {"type": float}),
          ("--mass-ratio", {"type": float,
                            "help": "mass as a multiple of the minimum soliton mass m0"}),
          *_GRID_FLAGS)
def cmd_classify(args, out):
    from .landscape import classify_normalized

    if (args.mass is None) == (args.mass_ratio is None):
        raise ValueError("classify needs exactly one of --mass and --mass-ratio")
    flag, value = (("--mass", args.mass) if args.mass_ratio is None
                   else ("--mass-ratio", args.mass_ratio))
    if not (math.isfinite(value) and value > 0):
        # before the scan, whose solves the mass check would discard
        raise ValueError(f"{flag} must be finite and positive, got {value}")
    curve, crit = _critical(args)
    mass = args.mass if args.mass_ratio is None else args.mass_ratio * crit.m0
    result = asdict(classify_normalized(mass, curve, crit, args.ode_tol))
    _write_json(out / "classification.json", result)
    print(json.dumps(result, indent=2))
    return 0, None


@_command("constrained-minimization table", ("--mass-grid", {"type": int, "default": 20}),
          *_GRID_FLAGS)
def cmd_landscape(args, out):
    from .landscape import landscape_table, write_landscape_csv

    if args.mass_grid < 1:
        raise ValueError(f"--mass-grid needs at least 1 mass, got {args.mass_grid}")
    curve, crit = _critical(args)
    masses = np.linspace(0.4 * crit.m_threshold, 2.2 * crit.m_q1, args.mass_grid)
    rows = landscape_table(masses, curve, crit, args.ode_tol)
    write_landscape_csv(rows, out / "landscape.csv")
    print(f"landscape table over {args.mass_grid} masses -> {out / 'landscape.csv'}")
    return 0, {"critical": asdict(crit)}


@_command("finite-time stability experiment", _OMEGA,
          ("--perturbation", {"type": float, "default": 0.01}),
          ("--t-end", {"type": float, "default": 100.0}),
          ("--dt", {"type": float, "default": 0.02}))
def cmd_evolve(args, out):
    from .dynamics import stability_experiment, write_experiment

    result = stability_experiment(args.omega, args.perturbation, t_end=args.t_end,
                                  dt=args.dt, ode_tolerance=args.ode_tol)
    write_experiment(result, out)
    print(f"verdict: {result['verdict']} "
          f"(growth ratio {result['growth_ratio']:.2f})")
    return 0, {"verdict": result["verdict"]}


@_command("linearized operator spectra", _OMEGA, ("--n-eigs", {"type": int, "default": 6}))
def cmd_spectra(args, out):
    from .dynamics import linearized_spectra

    ground = solve_ground_state(args.omega, args.ode_tol)
    record = linearized_spectra(ground, n_eigs=args.n_eigs)
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
        checks.append((name, _passes_residual_gate(rep),
                       f"nehari {rep.nehari_residual:.2e}, "
                       f"pohozaev {rep.pohozaev_residual:.2e}"))
    return checks


@_command("run the invariant battery")
def cmd_validate(args, out):
    checks = _validate_checks(args.ode_tol)
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
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with the flags of its ``--config`` file right after the
    subcommand, where the flags given on the command line override them."""
    if not argv or argv[0] not in _COMMANDS:
        return argv
    pre = argparse.ArgumentParser(prog=f"cqnls {argv[0]}", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    switches = {flag for flag, kwargs in _COMMANDS[argv[0]][1]
                if kwargs.get("action") == "store_true"}
    return [argv[0], *_config_flags(path, switches), *argv[1:]]


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
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        return _run_command(build_parser().parse_args(_with_config(argv)))
    except FrequencyOutOfWindow as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CqnlsError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


# The ~22k objects the imports leave to the cyclic collector, nearly all
# numpy's, live until the process exits anyway.  Frozen, they are skipped
# by every later collection, the one at interpreter exit included, which
# otherwise walks them all (README, Start-up).
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
