"""Constrained-minimization landscape and normalized-solution counts.

The scanned frequency curve turns the two constrained problems into
one-dimensional branch inversions: the soliton mass curve has a single
minimum m0 at the critical frequency, so a prescribed mass m meets the
ground-state family 0, 1, or 2 times; the rescaled-soliton mass curve
has its minimum (4/(3 sqrt 3)) M(Q_1) at the beta = 1 frequency and
supplies the admissible competitors for the Pohozaev-constrained problem
below M(Q_1).  A mass's ground-branch roots are found once and serve both
its landscape record and its classification; below m0 finding them costs
no solve, and m_threshold <= m0 since the rescale never adds mass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .curves import (CriticalFrequencies, FrequencyCurve, CRITICAL, STABLE,
                     UNSTABLE, branch_evaluators, monotone_root)
from .errors import MassBeyondScan, TargetNotBracketed
from .functionals import evaluate
from .geometry import rescale_energy_factor, rescale_mass_factor
from .shooting import ODE_TOLERANCE, solve_ground_state

LOWER_BRANCH = "lower_branch"
UPPER_BRANCH = "upper_branch"
CRITICAL_BRANCH = "critical"

KIND_NONE = "none"
KIND_GROUND_STATE = "ground_state"
KIND_RESCALED_SOLITON = "rescaled_soliton"
KIND_BOUNDARY_Q1 = "boundary_q1"

_MASS_REL_TOL = 1e-8


@dataclass(frozen=True)
class ClassificationResult:
    prescribed_mass: float
    count: int
    frequencies: tuple[float, ...]
    branch_labels: tuple[str, ...]
    stability_labels: tuple[str, ...]


@dataclass(frozen=True)
class LandscapeRecord:
    prescribed_mass: float
    e_min: float              # E_min(m) is finite for every mass
    e_min_achieved: bool
    e_min_v: float | None     # None encodes the +infinity case
    e_min_v_infinite: bool
    minimizer_kind: str


def _mass(x) -> float:
    return x.mass


def _mass_slope(rep, mass_prime, beta_prime) -> float:
    return mass_prime


def _rescaled_mass(x) -> float:
    return rescale_mass_factor(x.beta) * x.mass


def _rescaled_mass_slope(rep, mass_prime, beta_prime) -> float:
    """d/domega of f(beta) M with f = ``rescale_mass_factor``, whose
    logarithmic derivative is 1/(2 beta) - 2/(1 + beta)."""
    log_slope = 0.5 / rep.beta - 2.0 / (1.0 + rep.beta)
    return rescale_mass_factor(rep.beta) * (mass_prime + rep.mass * log_slope * beta_prime)


def _branch_roots(m, curve, split, value_min, value_of, slope_of, ode_tolerance):
    """(branch, omega, report) at every ground state with value_of = m.

    ``value_of`` reads a curve point or a functional report, and
    ``slope_of(report, M', beta')`` is its omega-derivative; its curve has
    the single minimum value_min at ``split``, decreasing on the lower
    branch and increasing on the upper one.  Within 1e-9 value_min of that
    minimum m meets the critical branch alone.  Each branch is searched
    over its scanned nodes and (split, value_min), which cost no solve:
    their slopes come from their cached profiles.  A branch whose nodes
    never reach m is skipped.
    """
    tol = 1e-9 * value_min
    if m < value_min - tol:
        return []
    if abs(m - value_min) <= tol:
        return [(CRITICAL_BRANCH, split, evaluate(solve_ground_state(split, ode_tolerance)))]

    value_at, slope_at = branch_evaluators(value_of, slope_of, ode_tolerance)
    lower = [(p.omega, value_of(p)) for p in curve.points if p.omega < split]
    upper = [(p.omega, value_of(p)) for p in curve.points if p.omega > split]
    roots = []
    for branch, nodes in ((LOWER_BRANCH, lower + [(split, value_min)]),
                          (UPPER_BRANCH, [(split, value_min)] + upper)):
        try:
            omega, _, (_, rep) = monotone_root(value_at, slope_at, m, nodes, 1e-12,
                                               end_tol=_MASS_REL_TOL * m)
        except TargetNotBracketed:
            # a branch can run off the scanned window
            continue
        roots.append((branch, omega, rep))
    return roots


_BRANCH_STABILITY = {LOWER_BRANCH: UNSTABLE, CRITICAL_BRANCH: CRITICAL,
                     UPPER_BRANCH: STABLE}


def _ground_roots(m, curve, crit, ode_tolerance):
    """``_branch_roots`` of the ground-state mass curve at mass m, which
    every public entry passes through: m must be finite and positive (an
    infinite m would meet an end node within its own infinite tolerance)."""
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"prescribed mass must be finite and positive, got {m}")
    return _branch_roots(m, curve, crit.omega_star, crit.m0, _mass, _mass_slope,
                         ode_tolerance)


def classify_normalized(m: float, curve: FrequencyCurve, crit: CriticalFrequencies,
                        ode_tolerance: float = ODE_TOLERANCE) -> ClassificationResult:
    """Count and locate the positive normalized solutions of mass m.

    Counts are over the scanned frequency window: a branch whose scanned
    masses never reach m is skipped, and MassBeyondScan is raised only
    when no branch reaches it at all.  Below m0 by more than 1e-9 m0 there
    is none.
    """
    return _classification(m, crit, _ground_roots(m, curve, crit, ode_tolerance))


def _classification(m, crit, roots) -> ClassificationResult:
    """``classify_normalized`` on the ground branches' ``roots`` at m."""
    if m < crit.m0 - 1e-9 * crit.m0:
        return ClassificationResult(m, 0, (), (), ())
    if not roots:
        raise MassBeyondScan(f"mass {m} exceeds every scanned branch")
    branches = tuple(branch for branch, _, _ in roots)
    return ClassificationResult(m, len(roots), tuple(omega for _, omega, _ in roots),
                                branches, tuple(_BRANCH_STABILITY[b] for b in branches))


def _rescaled_branch_energies(m, curve, crit, ode_tolerance):
    """E(R_omega) at every rescaled soliton with mass m (may be empty)."""
    roots = _branch_roots(m, curve, crit.omega_upper_star, crit.m_threshold,
                          _rescaled_mass, _rescaled_mass_slope, ode_tolerance)
    return [rescale_energy_factor(rep.beta) * rep.grad_sq for _, _, rep in roots]


def e_min_landscape(m: float, curve: FrequencyCurve, crit: CriticalFrequencies,
                    ode_tolerance: float = ODE_TOLERANCE) -> LandscapeRecord:
    """The five-case structure of E_min(m) and E_min^V(m)."""
    return _landscape_record(m, curve, crit, ode_tolerance,
                             _ground_roots(m, curve, crit, ode_tolerance))


def _landscape_record(m, curve, crit, ode_tolerance, roots) -> LandscapeRecord:
    """``e_min_landscape`` on the ground branches' ``roots`` at m."""
    tol_q1 = 1e-9 * crit.m_q1

    if m < crit.m_q1 - tol_q1:
        # vanishing infimum, not achieved; the Pohozaev-constrained value
        # is infinite below the rescaled-soliton threshold mass
        if m < crit.m_threshold * (1.0 - 1e-12):
            return LandscapeRecord(m, 0.0, False, None, True, KIND_NONE)
        candidates = _rescaled_branch_energies(m, curve, crit, ode_tolerance)
        kind = KIND_RESCALED_SOLITON
        ground = [rep.energy for _, _, rep in roots]
        if ground:
            best_ground = min(ground)
            if not candidates or best_ground < min(candidates):
                kind = KIND_GROUND_STATE
            candidates.extend(ground)
        return LandscapeRecord(m, 0.0, False, min(candidates), False, kind)

    if abs(m - crit.m_q1) <= tol_q1:
        return LandscapeRecord(m, 0.0, True, 0.0, False, KIND_BOUNDARY_Q1)

    energies = [rep.energy for _, _, rep in roots]
    if not energies:
        raise MassBeyondScan(f"mass {m} exceeds every scanned branch")
    energy = min(energies)
    return LandscapeRecord(m, energy, True, energy, False, KIND_GROUND_STATE)


def certify_e_min_by_flow(m: float) -> float:
    """Best energy of the mass-projected flow on [0, 45] over the seed
    widths 2, 4 and 8."""
    from .flow import mass_projected_flow

    best = math.inf
    for width in (2.0, 4.0, 8.0):
        result = mass_projected_flow(m, r_max=45.0, seed_width=width)
        if result.converged and result.energy < best:
            best = result.energy
    if not math.isfinite(best):
        raise MassBeyondScan(f"no flow seed converged for mass {m}")
    return best


def landscape_table(masses, curve, crit, ode_tolerance=ODE_TOLERANCE):
    """One (LandscapeRecord, ClassificationResult) pair per mass, from one
    inversion of each branch."""
    rows = []
    for m in map(float, masses):
        roots = _ground_roots(m, curve, crit, ode_tolerance)
        rows.append((_landscape_record(m, curve, crit, ode_tolerance, roots),
                     _classification(m, crit, roots)))
    return rows


def write_landscape_csv(rows, path: str | Path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "e_min", "e_min_v", "achieved",
                         "minimizer_kind", "count", "omega1", "omega2"])
        for record, classification in rows:
            freqs = list(classification.frequencies) + ["", ""]
            e_v = "inf" if record.e_min_v_infinite else repr(record.e_min_v)
            writer.writerow([
                repr(record.prescribed_mass), repr(record.e_min), e_v,
                record.e_min_achieved, record.minimizer_kind,
                classification.count, freqs[0], freqs[1],
            ])
