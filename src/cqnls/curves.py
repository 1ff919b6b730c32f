"""Frequency sweeps: the curves beta(omega), M(omega), E(omega), d(omega).

A scan solves the ground state at each grid node and records the scalar
functionals and the ODE tolerance of its solves; every function that reads
the curve solves at that tolerance, so a curve and the solves made from it
are one discrete problem.  Differentiation never touches a neighbouring
frequency: differentiating -Delta Q + omega Q - Q^3 + Q^5 = 0 in omega gives
L+ v = -Q for v = dQ/domega, with L+ = -Delta + omega - 3Q^2 + 5Q^4 the
linearised operator, invertible on radial functions.  In w = r v that is
w'' = (omega - 3Q^2 + 5Q^4) w + rQ with w(0) = 0, solved by Numerov on the
profile's own nodes; past the last node the solution is
(A - c r/(2 sqrt omega)) exp(-sqrt(omega) r) for the tail constant c,
which closes the system exactly.  With z = rQ every pairing is a
one-dimensional integral (4 pi times): M' = 2<Q, v> from z w,
G' = 2<grad Q, grad v> from z' w', E' = G'/2 - <Q^3, v> + <Q^5, v>, and
d'' = M' + <L+ v, v> in its weak form from w'^2 and the potential, which
drops only <R(Q), d^2Q/domega^2> for the residual R(Q) of Q's equation.
Simpson sums them, with closed-form tails; all is repeated on every
second node and Richardson-extrapolated.  Critical frequencies are
located on the monotone beta curve by ``monotone_root``, the one
bracketed root search, shared with the landscape's branch inversions:
a safeguarded Newton iteration with a fresh solve per iterate, whose
slopes come from the same L+ solve on every fourth and every eighth node
(``omega_slopes``; beta' = (L6' G - L6 G')/G^2 with L6' = 6<Q^5, v>).
The scanned nodes bracketing a root lend it their values and, from
their cached profiles, their slopes, each computed once per process.  Stability labels follow the sign
structure of the mass derivative around the critical frequency.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (CqnlsError, EmptyGrid, InnerSolveDiverged, InsufficientCoverage,
                     TargetNotBracketed, ToleranceNotMet)
from .functionals import FunctionalReport, evaluate
from .profiles import OMEGA_MAX, RadialProfile
from .quadrature import simpson_uniform
from .roots import halve
from .shooting import ODE_TOLERANCE, solve_cubic_reference, solve_ground_state

STABLE = "stable"
UNSTABLE = "unstable"
CRITICAL = "critical"
UNCLASSIFIED = "unclassified"
#: largest |beta - target| of a beta inversion's returned iterate
BETA_TOL = 1e-8


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
    d_second: float           # d'' from the weak form of L+ vs (1/2) dM/domega


@dataclass(frozen=True)
class FrequencyCurve:
    """The scanned nodes and the ODE tolerance they were solved at, which
    every fresh solve made from the curve uses too: a root search, a node
    derivative or an asymptotic reference."""

    points: tuple[FrequencyCurvePoint, ...]
    ode_tolerance: float
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


def _unique(values) -> np.ndarray:
    """``np.unique`` of floats: sorted, each value once and NaN, which
    sorts last, once.  ``np.unique`` asks ``np.ma.is_masked`` whether its
    input is masked, and importing ``numpy.ma`` for that costs a process
    11-17 ms."""
    values = np.sort(values, axis=None)
    first = np.ones(values.shape, dtype=bool)
    first[1:] = (values[1:] != values[:-1]) & ~np.isnan(values[:-1])
    return values[first]


#: the frequency at which ``default_omega_grid`` joins its two halves
_GRID_SPLIT = 0.06


def default_omega_grid(n: int = 60, lo: float = 0.004, hi: float = 0.185) -> np.ndarray:
    """Log-spaced toward both endpoints of the production window, half the
    nodes on each side of omega = 0.06.  The split has to lie inside the
    window and both halves need a node, so anything but n >= 3 and
    0 < lo < 0.06 < hi < 3/16 raises ValueError."""
    if not (n >= 3 and 0.0 < lo < _GRID_SPLIT < hi < OMEGA_MAX):
        raise ValueError(f"a frequency grid needs at least 3 nodes and a window with "
                         f"0 < omega_min < {_GRID_SPLIT} < omega_max < 3/16, "
                         f"got grid size {n} and window [{lo}, {hi}]")
    n_low = n // 2
    n_high = n - n_low
    low = lo * (_GRID_SPLIT / lo) ** np.linspace(0.0, 1.0, n_low, endpoint=False)
    gap_hi, gap_mid = OMEGA_MAX - hi, OMEGA_MAX - _GRID_SPLIT
    high = OMEGA_MAX - gap_mid * (gap_hi / gap_mid) ** np.linspace(0.0, 1.0, n_high)
    return _unique(np.concatenate([low, high]))


def scan(omega_grid, ode_tolerance: float = ODE_TOLERANCE) -> FrequencyCurve:
    """One curve point per grid node; per-node solver failures (CqnlsError)
    are recorded, not fatal."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise EmptyGrid("scan grid is empty")
    points, failures = [], []
    for omega in _unique(omega_grid):
        try:
            rep = evaluate(solve_ground_state(float(omega), ode_tolerance))
            points.append(FrequencyCurvePoint.from_report(float(omega), rep))
        except CqnlsError as err:  # per-node failure policy
            failures.append((float(omega), f"{type(err).__name__}: {err}"))
    return FrequencyCurve(points=tuple(points), ode_tolerance=ode_tolerance,
                          failures=tuple(failures))


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """x with lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i],
    by LAPACK's dgtsv (LU with partial pivoting) as
    ``scipy.linalg.solve_banded((1, 1), ...)`` calls it; one row by
    division, as the wrapper takes no empty off-diagonal.  A singular
    matrix or a non-finite x raises ``InnerSolveDiverged``."""
    # imported here, so that commands which solve no L+ load no scipy
    from .lapack import dgtsv
    if len(diag) == 1:
        x = np.asarray(rhs, dtype=float) / diag[0]
    else:
        *_, x, info = dgtsv(lower, diag, upper, rhs)
        if info > 0:
            raise InnerSolveDiverged(f"singular tridiagonal system (dgtsv info={info})")
    if not np.all(np.isfinite(x)):
        raise InnerSolveDiverged("non-finite solution of a tridiagonal solve")
    return x


def _tail_pairing(f0, f1, g0, g1, a):
    """int_0^inf (f0 + f1 s)(g0 + g1 s) exp(-2 a s) ds."""
    return f0 * g0 / (2 * a) + (f0 * g1 + f1 * g0) / (4 * a * a) + f1 * g1 / (4 * a**3)


def _omega_pairings(profile: RadialProfile, stop: int, step: int) -> np.ndarray:
    """(M', G', E', d'', L6') from one solve of L+ v = -Q for v = dQ/domega
    on every ``step``-th node of the profile's first ``stop`` (module
    docstring)."""
    r, q, dq = (x[:stop:step] for x in (profile.grid, profile.values, profile.derivs))
    h, a, omega = r[1] - r[0], profile.decay_rate, profile.omega
    c = profile.tail_constant * math.exp(-a * r[-1])   # z = rQ at the last node
    b = c / (2 * a)                                     # past it w = (w_N - b s) e^{-a s}
    potential = omega - 3 * q**2 + 5 * q**4
    z = r * q
    # Numerov rows for w'' = potential w + z with w(0) = 0, closed by the tail
    near = 1 - h * h / 12 * potential
    w = _solve_tridiagonal(
        np.append(near[1:-2], math.exp(-a * h)), np.append(10 * near[1:-1] - 12, -1.0),
        near[2:], np.append(h * h / 12 * (z[:-2] + 10 * z[1:-1] + z[2:]), b * h))
    w_end = w[-1]
    # w is odd at the origin and follows its tail past the last node
    padded = np.concatenate([[-w[1], -w[0], 0.0], w, [(w_end - b * s) * math.exp(-a * s)
                                                     for s in (h, 2 * h)]])
    dw = (padded[:-4] - 8 * padded[1:-3] + 8 * padded[3:-1] - padded[4:]) / (12 * h)
    w = padded[2:-2]
    dz = q + r * dq
    p0, p1 = -b - a * w_end, a * b                  # w' past the last node
    qv, grad, q3v, q5v, weak = (simpson_uniform(f, h) for f in (
        z * w, dz * dw, z * q**2 * w, z * q**4 * w, dw**2 + potential * w**2))
    # the tails of the nonlinear terms carry a further factor Q(T)^2 and are left out
    qv += _tail_pairing(c, 0.0, w_end, -b, a)
    grad -= a * _tail_pairing(c, 0.0, p0, p1, a)
    weak += _tail_pairing(p0, p1, p0, p1, a) + omega * _tail_pairing(w_end, -b, w_end, -b, a)
    m_prime = 8 * math.pi * qv
    return np.array([m_prime, 8 * math.pi * grad, 4 * math.pi * (grad - q3v + q5v),
                     m_prime + 4 * math.pi * weak, 24 * math.pi * q5v])


def _extrapolated_pairings(profile: RadialProfile, step: int) -> list[float]:
    """``_omega_pairings`` on every ``step``-th node and on every second
    of those, Richardson-extrapolated: (16 fine - coarse)/15."""
    end = profile.grid.size - 1
    end -= end % (4 * step)     # both spacings need an even interval count
    fine, coarse = (_omega_pairings(profile, end + 1, s) for s in (step, 2 * step))
    return ((16 * fine - coarse) / 15).tolist()


def differentiate(curve: FrequencyCurve) -> FrequencyCurve:
    """Fill mass derivatives and cross-check the differential identities.

    Each node's derivatives come from one solve of L+ dQ/domega = -Q on
    its own profile (module docstring), Richardson-extrapolated from the
    profile's spacing and twice it; no neighbouring frequency is solved.
    """
    new_points, final_checks = [], []
    for point in curve.points:
        profile = solve_ground_state(point.omega, curve.ode_tolerance)
        mass_prime, grad_prime, energy_prime, d_second_val, _ = _extrapolated_pairings(profile, 1)
        target = 1.5 * point.mass
        grad_identity = abs(grad_prime - target) / abs(target)
        energy_identity = abs(energy_prime + 0.5 * point.omega * mass_prime) / abs(energy_prime)
        reference = 0.5 * mass_prime
        d_second = abs(d_second_val - reference) / abs(reference)

        new_points.append(replace(point, mass_derivative=mass_prime))
        final_checks.append(DerivativeCheck(
            omega=point.omega, grad_identity=grad_identity,
            energy_identity=energy_identity, d_second=d_second,
        ))
    return replace(curve, points=tuple(new_points), derivative_checks=tuple(final_checks))


#: a Newton slope solves L+ on every _SLOPE_STEP-th profile node and on
#: every second of those
_SLOPE_STEP = 4


@functools.cache
def _solved_pairings(omega: float, ode_tolerance: float, step: int) -> tuple[float, ...]:
    """``_extrapolated_pairings`` of the ground state solved at omega to
    ``ode_tolerance``, once per process: the profile depends on the two
    alone (``solve_ground_state``), and a scanned node that brackets
    several root searches lends each of them the same slopes."""
    return tuple(_extrapolated_pairings(solve_ground_state(omega, ode_tolerance), step))


def omega_slopes(omega: float, ode_tolerance: float,
                 rep: FunctionalReport) -> tuple[float, float]:
    """(M', beta') of the ground state at omega and its report, from the
    L+ solve of ``differentiate`` on every ``_SLOPE_STEP``-th node of its
    profile instead of every one: beta' = (L6' G - L6 G') / G^2.  That
    costs 3/8 of a solve on every node and keeps them within about 1e-8
    of ``differentiate``'s, so a Newton step shrinks the error e of its
    iterate to about 1e-8 e + O(e^2)."""
    mass_prime, grad_prime, _, _, l6_prime = _solved_pairings(omega, ode_tolerance,
                                                              _SLOPE_STEP)
    return mass_prime, (l6_prime * rep.grad_sq - rep.l6 * grad_prime) / rep.grad_sq**2


#: most evaluations of one root search
_MAX_ROOT_STEPS = 100


def _hermite_root(lo, r_lo, s_lo, hi, r_hi, s_hi) -> float:
    """A root inside (lo, hi) of the cubic Hermite interpolant of the
    residuals r_lo, r_hi, of opposite signs, and the slopes s_lo, s_hi, by
    ``halve`` on the unit interval until no float is left; the midpoint
    when a slope is not finite, and ``_inside`` of the root when it rounds
    onto an end."""
    if not (math.isfinite(s_lo) and math.isfinite(s_hi)):
        return 0.5 * (lo + hi)
    h = hi - lo
    d_lo, d_hi = h * s_lo, h * s_hi

    def cubic(t):
        return (((2 * t - 3) * t * t + 1) * r_lo + ((t - 2) * t + 1) * t * d_lo
                + (3 - 2 * t) * t * t * r_hi + (t - 1) * t * t * d_hi)

    a, b = halve(lambda t: (cubic(t) > 0.0) != (r_lo > 0.0), 0.0, 1.0, 0.0)
    return _inside(lo + 0.5 * (a + b) * h, lo, hi)


def _inside(x, lo, hi) -> float:
    """x if it lies inside (lo, hi); the float next to the end it equals,
    since a root that rounds onto an end lies closer to it than any other
    float; otherwise the midpoint.  Bisecting a root that close would
    halve the bracket down to xtol."""
    if lo < x < hi:
        return x
    if x in (lo, hi):
        return math.nextafter(x, hi if x == lo else lo)
    return 0.5 * (lo + hi)


def monotone_root(value_at, slope_at, target: float, nodes, xtol: float,
                  end_tol: float = 0.0):
    """Root of value_at(x) = target on a branch where value_at is monotone.

    ``value_at(x)`` returns ``(value, slope, payload)``; ``nodes`` are the
    known ``(x, value)`` pairs in increasing x, which cost no evaluation,
    and ``slope_at(x)`` is the slope at a node.  The bracket is the first
    pair of consecutive nodes whose values straddle the target; without
    one, the end node nearest it is the candidate.  A bracket end or
    candidate within ``end_tol`` of the target is accepted as it stands; a
    candidate farther off, or no node at all, raises
    ``TargetNotBracketed``.  Otherwise a safeguarded Newton iteration
    starts from the root of the cubic Hermite interpolant on the bracket
    and steps by each iterate's own slope; a step that lands on an end of
    the sign bracket takes the float next to it, and a step beyond it, and
    a zero, non-finite or wrong-sign slope, bisect instead.  It stops once
    an iterate's Newton correction is at most ``xtol``, the bracket is
    narrower than ``xtol``, or after ``_MAX_ROOT_STEPS`` evaluations, and
    returns the evaluated iterate nearest the target as
    ``(x, value, payload)``.
    """
    if not nodes:
        raise TargetNotBracketed(f"{target} not bracketed: no nodes")
    bracket = next(((a, b) for a, b in zip(nodes, nodes[1:])
                    if min(a[1], b[1]) <= target <= max(a[1], b[1])), None)
    ends = bracket or (min(nodes[0], nodes[-1], key=lambda n: abs(n[1] - target)),)
    for x, value in ends:
        if abs(value - target) <= end_tol:
            value, _, payload = value_at(x)
            return x, value, payload
    if bracket is None:
        raise TargetNotBracketed(f"{target} not bracketed by the node values "
                                 f"{nodes[0][1]:.6g} to {nodes[-1][1]:.6g}")
    (lo, value_lo), (hi, value_hi) = bracket
    rising = value_hi > value_lo
    x = _hermite_root(lo, value_lo - target, slope_at(lo), hi, value_hi - target, slope_at(hi))
    evaluated = {}
    for _ in range(_MAX_ROOT_STEPS):
        value, slope, payload = value_at(x)
        evaluated[x] = value, payload
        residual = value - target
        if residual == 0.0:
            break
        if (residual > 0.0) == rising:
            hi = x
        else:
            lo = x
        newton = math.isfinite(slope) and slope != 0.0 and (slope > 0.0) == rising
        step = -residual / slope if newton else math.nan
        if abs(step) <= xtol or hi - lo <= xtol:
            break
        x = _inside(x + step, lo, hi)
    best = min(evaluated, key=lambda x: abs(evaluated[x][0] - target))
    return (best, *evaluated[best])


def branch_evaluators(value_of, slope_of, ode_tolerance: float):
    """``(value_at, slope_at)`` of ``monotone_root`` on the ground states'
    value_of(report), whose omega-derivative is
    slope_of(report, M', beta'); value_at's payload is (profile, report).
    Both solve through ``solve_ground_state``, so at a scanned node, whose
    profile is cached, slope_at costs no solve."""
    def value_at(omega):
        profile = solve_ground_state(omega, ode_tolerance)
        rep = evaluate(profile)
        return (value_of(rep), slope_of(rep, *omega_slopes(omega, ode_tolerance, rep)),
                (profile, rep))

    def slope_at(omega):
        return value_at(omega)[1]

    return value_at, slope_at


def _beta(rep) -> float:
    return rep.beta


def _beta_slope(rep, mass_prime, beta_prime) -> float:
    return beta_prime


def invert_beta(target: float, curve: FrequencyCurve):
    """Frequency with beta(omega) = target by ``monotone_root`` with a fresh
    solve per iterate at the curve's tolerance.

    Exploits strict monotonicity of beta: the scanned nodes bracket the
    target and lend it their beta values and, from their cached profiles,
    their slopes.  The search runs to 1e-12 in omega and returns the
    solved iterate nearest the target as (omega, profile, report);
    ToleranceNotMet is raised when that iterate misses the target by more
    than ``BETA_TOL``.
    """
    beta_at, slope_at = branch_evaluators(_beta, _beta_slope, curve.ode_tolerance)
    nodes = [(p.omega, p.beta) for p in curve.points]
    omega, beta, (profile, rep) = monotone_root(beta_at, slope_at, target, nodes, 1e-12)
    if abs(beta - target) > BETA_TOL:
        raise ToleranceNotMet(
            f"beta = {target} missed by {abs(beta - target):.3g} at omega = "
            f"{omega!r}, beyond BETA_TOL = {BETA_TOL:g}"
        )
    return omega, profile, rep


def _mass_argmin(curve: FrequencyCurve) -> float:
    masses = curve.masses()
    omegas = curve.omegas()
    m_min = masses.min()
    flat = np.nonzero(masses - m_min < 1e-10)[0]
    # deterministic tie-breaking: midpoint of the flat set
    return float(0.5 * (omegas[flat[0]] + omegas[flat[-1]]))


def locate_critical(curve: FrequencyCurve) -> CriticalFrequencies:
    omega_star, _, rep_star = invert_beta(1.0 / 3.0, curve)
    omega_upper, _, rep_upper = invert_beta(1.0, curve)
    m_q1 = rep_upper.mass
    return CriticalFrequencies(
        omega_star=omega_star, omega_upper_star=omega_upper,
        m0=rep_star.mass, m_q1=m_q1,
        m_threshold=(4.0 / (3.0 * math.sqrt(3.0))) * m_q1,
        mass_argmin=_mass_argmin(curve),
    )


def classify_stability(curve: FrequencyCurve, crit: CriticalFrequencies) -> FrequencyCurve:
    """Label each node by its side of the stability threshold omega_star;
    within 1e-6 omega_star of it a node is critical."""
    points = []
    for p in curve.points:
        if abs(p.omega - crit.omega_star) < 1e-6 * crit.omega_star:
            label = CRITICAL
        elif p.omega < crit.omega_star:
            label = UNSTABLE
        else:
            label = STABLE
        points.append(replace(p, stability=label))
    return replace(curve, points=tuple(points))


def asymptotic_check(curve: FrequencyCurve) -> dict:
    """Endpoint laws: small-frequency expansion errors at the nodes with
    omega <= 0.01 against the cubic reference g, solved at the curve's
    tolerance, and endpoint slopes over the nodes with omega >= 0.17."""
    omegas = curve.omegas()
    small = [p for p in curve.points if p.omega <= 0.01]
    large = [p for p in curve.points if p.omega >= 0.17]
    if not small or len(large) < 2:
        raise InsufficientCoverage("asymptotic check needs nodes at omega <= 0.01 and >= 0.17")
    g_rep = evaluate(solve_cubic_reference(curve.ode_tolerance))
    m_g, l6_g, beta_g = g_rep.mass, g_rep.l6, g_rep.beta

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
