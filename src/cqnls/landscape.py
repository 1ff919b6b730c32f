"""Constrained-minimization landscape and normalized-solution counts.

The scanned frequency curve turns the two constrained problems into
one-dimensional branch inversions: the soliton mass curve has a single
minimum m0 at the critical frequency, so a prescribed mass m meets the
ground-state family 0, 1, or 2 times; the rescaled-soliton mass curve
has its minimum (4/(3 sqrt 3)) M(Q_1) at the beta = 1 frequency and
supplies the admissible competitors for the Pohozaev-constrained problem
below M(Q_1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .curves import (CriticalFrequencies, FrequencyCurve, CRITICAL, STABLE,
                     UNSTABLE, monotone_root)
from .errors import MassBeyondScan
from .functionals import evaluate
from .geometry import rescale_energy_factor, rescale_mass_factor
from .profiles import ShootingConfig
from .shooting import solve_ground_state

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

    def as_dict(self) -> dict:
        return {
            "prescribed_mass": self.prescribed_mass,
            "count": self.count,
            "frequencies": list(self.frequencies),
            "branch_labels": list(self.branch_labels),
            "stability_labels": list(self.stability_labels),
        }


@dataclass(frozen=True)
class LandscapeRecord:
    prescribed_mass: float
    e_min: float              # E_min(m) is finite for every mass
    e_min_achieved: bool
    e_min_v: float | None     # None encodes the +infinity case
    e_min_v_infinite: bool
    minimizer_kind: str

    def as_dict(self) -> dict:
        return {
            "prescribed_mass": self.prescribed_mass,
            "e_min": self.e_min,
            "e_min_achieved": self.e_min_achieved,
            "e_min_v": self.e_min_v,
            "e_min_v_infinite": self.e_min_v_infinite,
            "minimizer_kind": self.minimizer_kind,
        }


def _narrow_bracket(target, branch_points, value_of, lo, hi, increasing):
    """Shrink [lo, hi] using already-scanned curve nodes on the branch.

    The branch value is monotone in omega (rising when ``increasing``), so
    consecutive scanned nodes either bracket the target or push it out to
    an endpoint interval.
    """
    nodes = [(p.omega, value_of(p)) for p in branch_points if lo < p.omega < hi]
    if not nodes:
        return lo, hi
    for (om_a, v_a), (om_b, v_b) in zip(nodes, nodes[1:]):
        if (v_a - target) * (v_b - target) <= 0:
            return om_a, om_b
    if (target < nodes[0][1]) == increasing:
        return lo, nodes[0][0]
    return nodes[-1][0], hi


def _mass(x) -> float:
    return x.mass


def _rescaled_mass(x) -> float:
    return rescale_mass_factor(x.beta) * x.mass


def _branch_roots(m, curve, split, value_min, value_of, cfg, tol=None):
    """(branch, omega, report) at every ground state with value_of = m.

    ``value_of`` reads a curve point or a functional report; its curve has
    the single minimum value_min at ``split``, decreasing on the lower
    branch and increasing on the upper one.  A branch whose scanned values
    never reach m is skipped.
    """
    if tol is None:
        tol = 1e-9 * value_min
    if m < value_min - tol:
        return []
    if abs(m - value_min) <= tol:
        return [(CRITICAL_BRANCH, split, evaluate(solve_ground_state(split, cfg)))]

    def value_at(omega):
        rep = evaluate(solve_ground_state(omega, cfg))
        return value_of(rep), rep

    omegas = curve.omegas()
    roots = []
    for lo, hi, branch in ((float(omegas.min()), split, LOWER_BRANCH),
                           (split, float(omegas.max()), UPPER_BRANCH)):
        lo, hi = _narrow_bracket(m, curve.points, value_of, lo, hi,
                                 increasing=branch == UPPER_BRANCH)
        try:
            omega, _, rep = monotone_root(value_at, m, lo, hi, 1e-12,
                                          not_bracketed=MassBeyondScan,
                                          end_tol=_MASS_REL_TOL * m)
        except MassBeyondScan:
            # a branch can run off the scanned window
            continue
        roots.append((branch, omega, rep))
    return roots


_BRANCH_STABILITY = {LOWER_BRANCH: UNSTABLE, CRITICAL_BRANCH: CRITICAL,
                     UPPER_BRANCH: STABLE}


def classify_normalized(m: float, curve: FrequencyCurve, crit: CriticalFrequencies,
                        cfg: ShootingConfig | None = None,
                        tol: float | None = None) -> ClassificationResult:
    """Count and locate the positive normalized solutions of mass m.

    Counts are over the scanned frequency window: a branch whose scanned
    masses never reach m is skipped, and MassBeyondScan is raised only
    when no branch reaches it at all.
    """
    if m <= 0:
        raise ValueError("prescribed mass must be positive")
    cfg = cfg or ShootingConfig()
    if tol is None:
        tol = 1e-9 * crit.m0
    if m < crit.m0 - tol:
        return ClassificationResult(m, 0, (), (), ())
    roots = _branch_roots(m, curve, crit.omega_star, crit.m0, _mass, cfg, tol)
    if not roots:
        raise MassBeyondScan(f"mass {m} exceeds every scanned branch")
    branches = tuple(branch for branch, _, _ in roots)
    return ClassificationResult(m, len(roots), tuple(omega for _, omega, _ in roots),
                                branches, tuple(_BRANCH_STABILITY[b] for b in branches))


def _ground_branch_energies(m, curve, crit, cfg):
    """E at every ground-state solution with mass m (may be empty)."""
    roots = _branch_roots(m, curve, crit.omega_star, crit.m0, _mass, cfg)
    return [rep.energy for _, _, rep in roots]


def _rescaled_branch_energies(m, curve, crit, cfg):
    """E(R_omega) at every rescaled soliton with mass m (may be empty)."""
    roots = _branch_roots(m, curve, crit.omega_upper_star, crit.m_threshold,
                          _rescaled_mass, cfg)
    return [rescale_energy_factor(rep.beta) * rep.grad_sq for _, _, rep in roots]


def e_min_landscape(m: float, curve: FrequencyCurve, crit: CriticalFrequencies,
                    cfg: ShootingConfig | None = None) -> LandscapeRecord:
    """The five-case structure of E_min(m) and E_min^V(m)."""
    if m <= 0:
        raise ValueError("prescribed mass must be positive")
    cfg = cfg or ShootingConfig()
    tol_q1 = 1e-9 * crit.m_q1

    if m < crit.m_q1 - tol_q1:
        # vanishing infimum, not achieved; the Pohozaev-constrained value
        # is infinite below the rescaled-soliton threshold mass
        if m < crit.m_threshold * (1.0 - 1e-12):
            return LandscapeRecord(m, 0.0, False, None, True, KIND_NONE)
        candidates = _rescaled_branch_energies(m, curve, crit, cfg)
        kind = KIND_RESCALED_SOLITON
        ground = _ground_branch_energies(m, curve, crit, cfg)
        if ground:
            best_ground = min(ground)
            if not candidates or best_ground < min(candidates):
                kind = KIND_GROUND_STATE
            candidates.extend(ground)
        return LandscapeRecord(m, 0.0, False, min(candidates), False, kind)

    if abs(m - crit.m_q1) <= tol_q1:
        return LandscapeRecord(m, 0.0, True, 0.0, False, KIND_BOUNDARY_Q1)

    energies = _ground_branch_energies(m, curve, crit, cfg)
    if not energies:
        raise MassBeyondScan(f"mass {m} exceeds every scanned branch")
    energy = min(energies)
    return LandscapeRecord(m, energy, True, energy, False, KIND_GROUND_STATE)


def certify_e_min_by_flow(m: float, seed_widths=(2.0, 4.0, 8.0),
                          r_max: float = 45.0, spacing: float = 0.01) -> float:
    """Best energy of the mass-projected flow over several seeds."""
    from .flow import mass_projected_flow

    best = math.inf
    for width in seed_widths:
        result = mass_projected_flow(m, r_max=r_max, spacing=spacing,
                                     seed_width=width, grad_tol=1e-9)
        if result.converged and result.energy < best:
            best = result.energy
    if not math.isfinite(best):
        raise MassBeyondScan(f"no flow seed converged for mass {m}")
    return best


def landscape_table(masses, curve, crit, cfg=None):
    """One (LandscapeRecord, ClassificationResult) pair per mass."""
    rows = []
    for m in masses:
        record = e_min_landscape(float(m), curve, crit, cfg)
        classification = classify_normalized(float(m), curve, crit, cfg)
        rows.append((record, classification))
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
