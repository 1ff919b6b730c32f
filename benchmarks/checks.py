"""Output checks of one iteration, read only from the files its steps wrote.

Each check is one operation: ``(name, ok, detail)``.  Identity errors
(relative errors of the closed forms, the Nehari/Pohozaev residuals and,
on ``landscape``, beta(omega*) = 1/3 and M(omega*) = m0) are collected
separately; ``digits`` is -log10 of the worst of them.  The tolerances are
those of the acceptance gate in ``tests/``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

OMEGA_MAX = 3.0 / 16.0
IDENTITY_TOL = 1e-7     # criterion 01: closed forms and residual gates
BETA_TOL = 1e-7         # beta(omega*) = 1/3, relative; invert_beta stops at 1e-8
M0_TOL = 1e-10          # M(omega*) = m0, relative


class Checker:
    def __init__(self):
        self.checks: list[tuple[str, bool, str]] = []
        self.identity_errors: list[float] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    def identity(self, name: str, error: float, tol: float = IDENTITY_TOL):
        self.identity_errors.append(error)
        self.check(name, error <= tol, f"rel err {error:.3e}")

    def digits(self) -> float:
        worst = max(self.identity_errors, default=1.0)
        return -math.log10(max(worst, 1e-16))

    def closed_forms(self, label: str, omega: float, mass: float, energy: float,
                     beta: float, grad_sq: float):
        """E = (1-beta)/6 |grad u|^2 and M = (beta+1)/(3 omega) |grad u|^2."""
        energy_formula = (1.0 - beta) / 6.0 * grad_sq
        mass_formula = (beta + 1.0) / (3.0 * omega) * grad_sq
        self.identity(f"{label} energy closed form",
                      abs(energy - energy_formula) / abs(energy_formula))
        self.identity(f"{label} mass closed form",
                      abs(mass - mass_formula) / mass_formula)

    def report(self, label: str, directory: Path) -> dict | None:
        """Residuals and closed forms of a ``solve`` report.json."""
        path = directory / "report.json"
        if not path.exists():
            self.check(f"{label} report.json written", False)
            return None
        rep = json.loads(path.read_text())
        self.identity(f"{label} nehari residual", rep["nehari_residual"])
        self.identity(f"{label} pohozaev residual", rep["pohozaev_residual"])
        self.closed_forms(label, rep["omega"], rep["mass"], rep["energy"],
                          rep["beta"], rep["grad_sq"])
        return rep


def _manifest(directory: Path) -> dict:
    return json.loads((directory / "manifest.json").read_text())


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _sign_changes(values: list[float]) -> int | None:
    signs = [math.copysign(1.0, b - a) if b != a else 0.0
             for a, b in zip(values, values[1:])]
    if 0.0 in signs:
        return None
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def check_scan_deriv(c: Checker, dirs: dict, params: dict):
    manifest = _manifest(dirs["scan"])
    for omega, message in manifest["failures"]:
        c.check(f"scan node omega={omega!r} solved", False, message)
    rows = _rows(dirs["scan"] / "curve.csv")
    c.check("curve.csv has one row per node", len(rows) == params["grid_size"],
            f"{len(rows)} rows")
    omegas = [float(r["omega"]) for r in rows]
    betas = [float(r["beta"]) for r in rows]
    masses = [float(r["mass"]) for r in rows]
    for r in rows:
        c.closed_forms(f"omega={r['omega']}", float(r["omega"]), float(r["mass"]),
                       float(r["energy"]), float(r["beta"]), float(r["grad_sq"]))
    c.check("beta strictly increasing", all(b > a for a, b in zip(betas, betas[1:])))
    c.check("mass differences change sign exactly once",
            _sign_changes(masses) == 1, str(masses))
    # the mass is smallest where beta = 1/3, so M' has the sign of beta - 1/3
    for omega, beta, r in zip(omegas, betas, rows):
        derivative = r["mass_derivative"]
        if not derivative:
            c.check(f"omega={omega} has a mass derivative", False)
            continue
        if abs(beta - 1.0 / 3.0) > 0.01:
            c.check(f"omega={omega} mass derivative sign",
                    (float(derivative) > 0) == (beta > 1.0 / 3.0), derivative)


def check_landscape(c: Checker, dirs: dict, params: dict):
    crit = _manifest(dirs["landscape"])["critical"]
    c.check("omega* < omega^* < 3/16",
            0.0 < crit["omega_star"] < crit["omega_upper_star"] < OMEGA_MAX, str(crit))
    c.check("m_threshold < m_q1", crit["m_threshold"] < crit["m_q1"])
    rows = _rows(dirs["landscape"] / "landscape.csv")
    c.check("landscape.csv has one row per mass", len(rows) == params["mass_grid"])
    for r in rows:
        m, count = float(r["m"]), int(r["count"])
        if m < crit["m0"]:
            c.check(f"m={m:.6g} below m0 has no solution", count == 0)
        else:
            c.check(f"m={m:.6g} above m0 has one or two solutions", count in (1, 2))
        if m < crit["m_threshold"]:
            c.check(f"m={m:.6g} below threshold: E_min^V infinite",
                    r["e_min_v"] == "inf" and r["minimizer_kind"] == "none")
        if m > crit["m_q1"]:
            c.check(f"m={m:.6g} above M(Q_1): achieved negative ground energy",
                    r["minimizer_kind"] == "ground_state" and float(r["e_min"]) < 0.0)
    rep = c.report("omega*", dirs["check-solve"])
    if rep is not None:
        # the bisection's own accuracy: a looser invert_beta shows in digits
        c.identity("beta(omega*) = 1/3", abs(rep["beta"] - 1.0 / 3.0) * 3.0, BETA_TOL)
        c.identity("M(omega*) = m0", abs(rep["mass"] - crit["m0"]) / crit["m0"], M0_TOL)


def check_evolve(c: Checker, dirs: dict, params: dict):
    experiment = json.loads((dirs["evolve"] / "experiment.json").read_text())
    c.check("verdict empirically_stable",
            experiment["verdict"] == "empirically_stable", experiment["verdict"])
    ledger = _rows(dirs["evolve"] / "experiment_ledger.csv")
    c.check("ledger has 51 samples", len(ledger) == 51, f"{len(ledger)} rows")
    c.report(f"omega={params['omega']!r}", dirs["check-solve"])


def check_oneshot(c: Checker, dirs: dict, params: dict):
    for step in ("solve-small", "solve-mid", "solve-upper"):
        c.report(step, dirs[step])
    spectra = json.loads((dirs["spectra"] / "spectra.json").read_text())
    negative = sum(1 for v in spectra["lplus_eigs"] if v < 0.0)
    c.check("exactly one negative L+ eigenvalue", negative == 1,
            str(spectra["lplus_eigs"][:3]))
    for item in _manifest(dirs["validate"])["checks"]:
        c.check(f"validate: {item['name']}", item["pass"], item["detail"])


CHECKS = {
    "scan-deriv": check_scan_deriv,
    "landscape": check_landscape,
    "evolve": check_evolve,
    "oneshot": check_oneshot,
}


def check_iteration(workload: str, dirs: dict, params: dict, values: dict) -> Checker:
    """Run the workload's checks; a missing or malformed file fails a check."""
    c = Checker()
    try:
        CHECKS[workload](c, dirs, params)
    except (OSError, KeyError, ValueError, TypeError) as err:
        c.check("outputs readable", False, f"{type(err).__name__}: {err}")
    if "certify" in values:
        energy = values["certify"]
        c.check("certified E_min finite and negative",
                energy is not None and math.isfinite(energy) and energy < 0.0,
                repr(energy))
    return c
