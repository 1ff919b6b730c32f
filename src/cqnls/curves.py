"""Frequency sweeps: the curves beta(omega), M(omega), E(omega), d(omega).

A scan solves the ground state at each grid node and records the scalar
functionals.  Differentiation uses fresh solves on a local stencil (never
interpolated curve values), critical frequencies are located by Brent's
method on the monotone beta curve with fresh solves per iterate, and
stability labels follow the sign structure of the mass derivative around
the critical frequency.  ``monotone_root`` is the one bracketed root
search, shared with the landscape's branch inversions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .errors import (CqnlsError, EmptyGrid, InsufficientCoverage,
                     InsufficientPoints, TargetNotBracketed, ToleranceNotMet)
from .functionals import FunctionalReport, evaluate
from .profiles import OMEGA_MAX, RadialProfile, ShootingConfig
from .shooting import solve_ground_state

STABLE = "stable"
UNSTABLE = "unstable"
CRITICAL = "critical"
UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class FrequencyCurvePoint:
    omega: float
    mass: float
    energy: float
    beta: float
    d_value: float
    grad_sq: float
    nehari_residual: float
    pohozaev_residual: float
    mass_derivative: float | None = None
    stability: str = UNCLASSIFIED

    @classmethod
    def from_report(cls, omega: float, rep: FunctionalReport) -> "FrequencyCurvePoint":
        return cls(
            omega=omega, mass=rep.mass, energy=rep.energy, beta=rep.beta,
            d_value=rep.energy + 0.5 * omega * rep.mass, grad_sq=rep.grad_sq,
            nehari_residual=rep.nehari_residual,
            pohozaev_residual=rep.pohozaev_residual,
        )


@dataclass(frozen=True)
class DerivativeCheck:
    """Relative errors of the differential identities at one node."""

    omega: float
    grad_identity: float      # d/domega grad_sq vs (3/2) M
    energy_identity: float    # dE/domega vs -(omega/2) dM/domega
    d_second: float           # stencil d'' vs (1/2) dM/domega
    energy_derivative: float
    grad_derivative: float


@dataclass(frozen=True)
class FrequencyCurve:
    points: tuple[FrequencyCurvePoint, ...]
    failures: tuple[tuple[float, str], ...] = ()
    derivative_checks: tuple[DerivativeCheck, ...] = ()

    def __post_init__(self):
        omegas = [p.omega for p in self.points]
        if omegas != sorted(set(omegas)):
            raise ValueError("curve grid must be sorted and deduplicated")

    def omegas(self) -> np.ndarray:
        return np.array([p.omega for p in self.points])

    def masses(self) -> np.ndarray:
        return np.array([p.mass for p in self.points])

    def betas(self) -> np.ndarray:
        return np.array([p.beta for p in self.points])

    def energies(self) -> np.ndarray:
        return np.array([p.energy for p in self.points])

    def d_values(self) -> np.ndarray:
        return np.array([p.d_value for p in self.points])

    def to_csv(self, path: str | Path):
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "mass", "energy", "beta", "d",
                             "grad_sq", "mass_derivative", "stability"])
            for p in self.points:
                md = "" if p.mass_derivative is None else repr(p.mass_derivative)
                writer.writerow([repr(p.omega), repr(p.mass), repr(p.energy),
                                 repr(p.beta), repr(p.d_value), repr(p.grad_sq),
                                 md, p.stability])


@dataclass(frozen=True)
class CriticalFrequencies:
    omega_star: float         # beta = 1/3: mass minimum, stability threshold
    omega_upper_star: float   # beta = 1: carries the minimizer mass M(Q_1)
    m0: float                 # M(P_{omega_star}), the minimum soliton mass
    m_q1: float               # M(Q_1)
    m_threshold: float        # (4/(3 sqrt 3)) M(Q_1)
    mass_argmin: float        # grid argmin of the scanned mass curve

    def __post_init__(self):
        if not 0.0 < self.omega_star < self.omega_upper_star < OMEGA_MAX:
            raise ValueError("critical frequencies out of order")
        if not self.m_threshold < self.m_q1:
            raise ValueError("threshold mass must undercut M(Q_1)")

    def as_dict(self) -> dict:
        return {
            "omega_star": self.omega_star,
            "omega_upper_star": self.omega_upper_star,
            "m0": self.m0, "m_q1": self.m_q1,
            "m_threshold": self.m_threshold,
            "mass_argmin": self.mass_argmin,
        }

    def to_json(self, path: str | Path):
        with Path(path).open("w") as fh:
            json.dump(self.as_dict(), fh, indent=2)


def default_omega_grid(n: int = 60, lo: float = 0.004, hi: float = 0.185,
                       mid: float = 0.06) -> np.ndarray:
    """Log-spaced toward both endpoints of the production window."""
    n_low = n // 2
    n_high = n - n_low
    low = lo * (mid / lo) ** np.linspace(0.0, 1.0, n_low, endpoint=False)
    gap_hi, gap_mid = OMEGA_MAX - hi, OMEGA_MAX - mid
    high = OMEGA_MAX - gap_mid * (gap_hi / gap_mid) ** np.linspace(0.0, 1.0, n_high)
    return np.unique(np.concatenate([low, high]))


def scan(omega_grid, cfg: ShootingConfig | None = None) -> FrequencyCurve:
    """One curve point per grid node; per-node solver failures (CqnlsError)
    are recorded, not fatal."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise EmptyGrid("scan grid is empty")
    cfg = cfg or ShootingConfig()
    points, failures = [], []
    for omega in np.unique(omega_grid):
        try:
            rep = evaluate(solve_ground_state(float(omega), cfg))
            points.append(FrequencyCurvePoint.from_report(float(omega), rep))
        except CqnlsError as err:  # per-node failure policy
            failures.append((float(omega), f"{type(err).__name__}: {err}"))
    return FrequencyCurve(points=tuple(points), failures=tuple(failures))


def _stencil_reports(omega: float, h: float, cfg: ShootingConfig):
    return {
        s: evaluate(solve_ground_state(omega + s * h, cfg))
        for s in (-1.0, -0.5, 0.5, 1.0)
    }


def _richardson(reports: dict, h: float, attr: str) -> float:
    wide = (getattr(reports[1.0], attr) - getattr(reports[-1.0], attr)) / (2.0 * h)
    narrow = (getattr(reports[0.5], attr) - getattr(reports[-0.5], attr)) / h
    return (4.0 * narrow - wide) / 3.0


def derivative_step(omega: float) -> float:
    return 1e-4 * max(omega, 0.01)


def differentiate(curve: FrequencyCurve, cfg: ShootingConfig | None = None) -> FrequencyCurve:
    """Fill mass derivatives and cross-check the differential identities.

    Central differences with one Richardson step on a locally refined
    frequency stencil; every stencil value is a fresh solve.  The second
    derivative of d reuses the same stencil (second differences, also
    Richardson-extrapolated) together with the node's own d value.
    """
    if len(curve.points) < 5:
        raise InsufficientPoints("differentiate needs at least 5 points")
    cfg = cfg or ShootingConfig()

    new_points, final_checks = [], []
    for point in curve.points:
        h = derivative_step(point.omega)
        reports = _stencil_reports(point.omega, h, cfg)
        mass_prime = _richardson(reports, h, "mass")
        energy_prime = _richardson(reports, h, "energy")
        grad_prime = _richardson(reports, h, "grad_sq")
        target = 1.5 * point.mass
        grad_identity = abs(grad_prime - target) / abs(target)
        energy_identity = abs(energy_prime + 0.5 * point.omega * mass_prime) / abs(energy_prime)

        def d_at(s):
            rep = reports[s]
            return rep.energy + 0.5 * (point.omega + s * h) * rep.mass
        wide = (d_at(1.0) - 2.0 * point.d_value + d_at(-1.0)) / (h * h)
        narrow = (d_at(0.5) - 2.0 * point.d_value + d_at(-0.5)) / (0.25 * h * h)
        d_second_val = (4.0 * narrow - wide) / 3.0
        reference = 0.5 * mass_prime
        d_second = abs(d_second_val - reference) / abs(reference)

        new_points.append(replace(point, mass_derivative=mass_prime))
        final_checks.append(DerivativeCheck(
            omega=point.omega, grad_identity=grad_identity,
            energy_identity=energy_identity, d_second=d_second,
            energy_derivative=energy_prime, grad_derivative=grad_prime,
        ))
    return FrequencyCurve(points=tuple(new_points), failures=curve.failures,
                          derivative_checks=tuple(final_checks))


def monotone_root(value_at, target: float, lo: float, hi: float, xtol: float,
                  not_bracketed=TargetNotBracketed, end_tol: float = 0.0,
                  end_values=None):
    """Root of value_at(x) = target on a bracket where value_at is monotone.

    ``value_at(x)`` returns ``(value, payload)``; ``end_values`` are the
    values at lo and hi when they are already known (scanned nodes), so
    they cost no evaluation.  An end within ``end_tol`` of the target is
    accepted as it stands, and ends that do not straddle the target raise
    ``not_bracketed``.  Otherwise Brent's method runs to ``xtol`` and the
    evaluated iterate with the smallest |value - target| is returned as
    ``(x, value, payload)``: always a point that value_at was called at.
    """
    known = dict(zip((lo, hi), end_values)) if end_values is not None else {}
    evaluated = {}

    def residual(x):
        if x in known:
            return known[x] - target
        if x not in evaluated:
            evaluated[x] = value_at(x)
        return evaluated[x][0] - target

    r_lo, r_hi = residual(lo), residual(hi)
    for end, r in ((lo, r_lo), (hi, r_hi)):
        if abs(r) <= end_tol:
            return (end, *(evaluated.get(end) or value_at(end)))
    if r_lo * r_hi > 0:
        raise not_bracketed(
            f"{target} not bracketed on [{lo}, {hi}] "
            f"(values {r_lo + target:.6g}, {r_hi + target:.6g})"
        )
    root = brentq(residual, lo, hi, xtol=xtol, disp=False)
    if not evaluated:
        evaluated[root] = value_at(root)
    best = min(evaluated, key=lambda x: abs(evaluated[x][0] - target))
    return (best, *evaluated[best])


def invert_beta(target: float, curve: FrequencyCurve, cfg: ShootingConfig | None = None,
                beta_tol: float = 1e-8, omega_tol: float = 1e-12):
    """Frequency with beta(omega) = target by Brent's method with fresh solves.

    Exploits strict monotonicity of beta: the scanned nodes bracket the
    target and lend their beta values to the bracket ends.  The search runs
    to omega_tol and returns the solved iterate nearest the target as
    (omega, profile, report); ToleranceNotMet is raised when that iterate
    misses the target by more than beta_tol.
    """
    cfg = cfg or ShootingConfig()
    betas = curve.betas()
    omegas = curve.omegas()
    idx = np.nonzero((betas[:-1] - target) * (betas[1:] - target) <= 0.0)[0]
    if idx.size == 0:
        raise TargetNotBracketed(
            f"beta = {target} not bracketed by scanned range "
            f"[{betas.min():.4g}, {betas.max():.4g}]"
        )
    i = int(idx[0])

    def beta_at(omega):
        profile = solve_ground_state(omega, cfg)
        rep = evaluate(profile)
        return rep.beta, (profile, rep)

    omega, beta, (profile, rep) = monotone_root(
        beta_at, target, float(omegas[i]), float(omegas[i + 1]), omega_tol,
        end_values=(float(betas[i]), float(betas[i + 1])))
    if abs(beta - target) > beta_tol:
        raise ToleranceNotMet(
            f"beta = {target} missed by {abs(beta - target):.3g} at omega = "
            f"{omega!r}, beyond beta_tol = {beta_tol:g}"
        )
    return omega, profile, rep


def _mass_argmin(curve: FrequencyCurve) -> float:
    masses = curve.masses()
    omegas = curve.omegas()
    m_min = masses.min()
    flat = np.nonzero(masses - m_min < 1e-10)[0]
    # deterministic tie-breaking: midpoint of the flat set
    return float(0.5 * (omegas[flat[0]] + omegas[flat[-1]]))


def locate_critical(curve: FrequencyCurve, cfg: ShootingConfig | None = None) -> CriticalFrequencies:
    omega_star, _, rep_star = invert_beta(1.0 / 3.0, curve, cfg)
    omega_upper, _, rep_upper = invert_beta(1.0, curve, cfg)
    m_q1 = rep_upper.mass
    return CriticalFrequencies(
        omega_star=omega_star, omega_upper_star=omega_upper,
        m0=rep_star.mass, m_q1=m_q1,
        m_threshold=(4.0 / (3.0 * math.sqrt(3.0))) * m_q1,
        mass_argmin=_mass_argmin(curve),
    )


def classify_stability(curve: FrequencyCurve, crit: CriticalFrequencies,
                       tol: float | None = None) -> FrequencyCurve:
    """Label each node by its side of the stability threshold omega_star."""
    if tol is None:
        tol = 1e-6 * crit.omega_star
    points = []
    for p in curve.points:
        if abs(p.omega - crit.omega_star) < tol:
            label = CRITICAL
        elif p.omega < crit.omega_star:
            label = UNSTABLE
        else:
            label = STABLE
        points.append(replace(p, stability=label))
    return FrequencyCurve(points=tuple(points), failures=curve.failures,
                          derivative_checks=curve.derivative_checks)


def asymptotic_check(curve: FrequencyCurve, g: RadialProfile,
                     small_cut: float = 0.01, large_cut: float = 0.17) -> dict:
    """Endpoint laws: small-frequency expansion errors and endpoint slopes."""
    g_rep = evaluate(g)
    m_g, l6_g, beta_g = g_rep.mass, g_rep.l6, g_rep.beta
    omegas = curve.omegas()
    small = [p for p in curve.points if p.omega <= small_cut]
    large = [p for p in curve.points if p.omega >= large_cut]
    if not small or len(large) < 2:
        raise InsufficientCoverage(
            f"asymptotic check needs nodes at omega <= {small_cut} and >= {large_cut}"
        )

    small_errors = []
    for p in small:
        sw = math.sqrt(p.omega)
        mass_pred = m_g / sw + 0.5 * sw * l6_g
        energy_pred = 0.5 * sw * m_g - (p.omega * sw / 12.0) * l6_g
        beta_pred = p.omega * beta_g
        small_errors.append({
            "omega": p.omega,
            "mass_rel_error": abs(p.mass - mass_pred) / mass_pred,
            "energy_rel_error": abs(p.energy - energy_pred) / abs(energy_pred),
            "beta_rel_error": abs(p.beta - beta_pred) / beta_pred,
        })

    log_gap = np.log([OMEGA_MAX - p.omega for p in large])
    beta_slope = float(np.polyfit(log_gap, np.log([p.beta for p in large]), 1)[0])
    mass_slope = float(np.polyfit(log_gap, np.log([p.mass for p in large]), 1)[0])
    return {
        "small_omega": small_errors,
        "beta_slope": beta_slope,
        "mass_slope": mass_slope,
        "window": [float(omegas.min()), float(omegas.max())],
    }
