"""Collocation continuation for frequencies near the upper endpoint.

Shooting loses the ground state once the frequency approaches 3/16: the
separatrix amplitude hugs the force zero to within less than one double-
precision ulp while the profile develops a long plateau whose front sits
at a radius growing like 1/(3/16 - omega).  Beyond a switch frequency the
solver therefore changes formulation: the profile equation is solved as a
two-point boundary-value problem with adaptive collocation, continued in
frequency from a shooting solution at the switch point.

Each continuation step seeds the next solve by *translating the front*:
the front radius is extrapolated linearly in 1/(3/16 - omega) and the
previous profile is shifted so its front lands at the predicted position.
Accepted rungs are cached at module level, one ladder per configuration,
so repeated solves (frequency scans, derivative stencils) reuse the ladder
instead of rebuilding it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_bvp
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainTooSmall, InnerSolveDiverged
from .profiles import OMEGA_MAX, RadialProfile, ShootingConfig
from .shooting import _matched_profile

#: largest frequency handled by pure shooting; collocation above this
OMEGA_SHOOTING_MAX = 0.155

_TOL = 1e-10
_MAX_NODES = 300_000
_STEP_MAX = 3e-3
_STEP_MIN = 1e-7
_TAIL_MARGIN = 60.0

# accepted continuation rungs per config fingerprint: omega -> (mesh, u, v)
_ladder: dict[str, dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


def _front_radius(mesh: np.ndarray, u: np.ndarray) -> float:
    """Radius where the profile first falls to half its central value."""
    below = np.nonzero(u < 0.5 * u[0])[0]
    if below.size == 0:
        raise DomainTooSmall("profile never falls to half its central value")
    return float(mesh[below[0]])


def _collocation_solve(omega: float, mesh, u, v):
    sw = math.sqrt(omega)
    radius = mesh[-1]

    def fun(r, y):
        return np.vstack([y[1], omega * y[0] - y[0] ** 3 + y[0] ** 5])

    def bc(ya, yb):
        # regularity at the origin; decaying Robin condition matching the
        # e^{-sqrt(omega) r}/r far field at the outer edge
        return np.array([ya[1], yb[1] + yb[0] * (sw + 1.0 / radius)])

    singular = np.array([[0.0, 0.0], [0.0, -2.0]])
    return solve_bvp(fun, bc, mesh, np.vstack([u, v]), S=singular,
                     tol=_TOL, max_nodes=_MAX_NODES)


def _predict(ladder: dict, omega_from: float, omega_to: float):
    """Seed mesh/values for omega_to by front translation from the ladder."""
    mesh, u, v = ladder[omega_from]
    delta_from = OMEGA_MAX - omega_from
    delta_to = OMEGA_MAX - omega_to
    front_from = _front_radius(mesh, u)

    rungs = sorted(ladder)
    if len(rungs) >= 2:
        # linear extrapolation of the front position in 1/(3/16 - omega)
        o2 = omega_from
        o1 = min((o for o in rungs if o != o2), key=lambda o: abs(o - o2))
        d1, d2 = OMEGA_MAX - o1, OMEGA_MAX - o2
        r1 = _front_radius(*ladder[o1][:2])
        slope = (front_from - r1) / (1.0 / d2 - 1.0 / d1)
        front_to = front_from + slope * (1.0 / delta_to - 1.0 / d2)
    else:
        front_to = front_from * delta_from / delta_to

    shift = front_to - front_from
    radius = front_to + _TAIL_MARGIN
    n = max(4001, int(radius / 0.05) + 1)
    mesh_new = np.linspace(0.0, radius, n)

    # the plateau value tracks the force zero of the frequency
    disc_from = math.sqrt(1.0 - 4.0 * omega_from)
    disc_to = math.sqrt(1.0 - 4.0 * omega_to)
    scale = math.sqrt((1.0 + disc_to) / (1.0 + disc_from))

    shifted = np.clip(mesh_new - shift, 0.0, mesh[-1])
    u_new = np.interp(shifted, mesh, u) * scale
    beyond = (mesh_new - shift) > mesh[-1]
    if np.any(beyond):
        over = (mesh_new[beyond] - shift) - mesh[-1]
        u_new[beyond] *= np.exp(-math.sqrt(omega_from) * over)
    v_new = np.gradient(u_new, mesh_new)
    v_new[0] = 0.0
    return mesh_new, u_new, v_new


def _bootstrap(cfg: ShootingConfig) -> dict:
    """A new ladder seeded with a shooting solution at the switch frequency."""
    from .shooting import _solve

    base = _solve(OMEGA_SHOOTING_MAX, cfg, quintic=True)
    radius = _front_radius(base.grid, base.values) + _TAIL_MARGIN
    mesh = np.linspace(0.0, radius, 4001)
    u = base.interpolate(mesh)
    v = np.gradient(u, mesh)
    v[0] = 0.0
    sol = _collocation_solve(OMEGA_SHOOTING_MAX, mesh, u, v)
    if sol.status != 0:
        raise InnerSolveDiverged(
            f"collocation bootstrap at omega={OMEGA_SHOOTING_MAX} failed: {sol.message}"
        )
    return {OMEGA_SHOOTING_MAX: (sol.x, sol.y[0], sol.y[1])}


def _climb(omega: float, cfg: ShootingConfig):
    """Continue the config's ladder in frequency until a rung lands on omega."""
    key = cfg.fingerprint()
    if key not in _ladder:
        _ladder[key] = _bootstrap(cfg)
    ladder = _ladder[key]
    if omega in ladder:
        return ladder[omega]
    # nearest rung in 1/(3/16 - omega), the variable the front is linear in
    target_scale = 1.0 / (OMEGA_MAX - omega)
    current = min(ladder, key=lambda o: abs(1.0 / (OMEGA_MAX - o) - target_scale))

    step = _STEP_MAX
    while current != omega:
        delta = OMEGA_MAX - current
        # empirical convergence radius of the front-translation seed
        step = min(step, _STEP_MAX, max(8.0 * delta * delta, 1e-5))
        direction = 1.0 if omega > current else -1.0
        omega_next = current + direction * step
        if direction * (omega_next - omega) >= 0.0:
            omega_next = omega
        mesh, u, v = _predict(ladder, current, omega_next)
        sol = _collocation_solve(omega_next, mesh, u, v)
        if sol.status == 0 and sol.y[0, 0] > 0.5:
            current = omega_next
            ladder[current] = (sol.x, sol.y[0], sol.y[1])
            step *= 1.4
        else:
            step *= 0.5
            if step < _STEP_MIN:
                raise InnerSolveDiverged(
                    f"collocation continuation stalled at omega={current:.6f} "
                    f"heading for {omega:.6f}: {sol.message}"
                )
    return ladder[omega]


def solve_collocation(omega: float, cfg: ShootingConfig) -> RadialProfile:
    """Ground state by collocation continuation from the shooting regime."""
    mesh, u, v = _climb(omega, cfg)
    amplitude = float(u[0])
    w_lo, w_hi = cfg.matching_window

    below_hi = np.nonzero(u < w_hi * amplitude)[0]
    below_lo = np.nonzero(u < w_lo * amplitude)[0]
    if below_hi.size == 0 or below_lo.size == 0:
        raise DomainTooSmall("collocation domain does not reach the matching window")
    r_a, r_b = float(mesh[below_hi[0]]), float(mesh[below_lo[0]])

    spline = CubicHermiteSpline(mesh, u, v)
    return _matched_profile(lambda grid: (spline(grid), spline(grid, 1)),
                           amplitude, omega, True, r_a, r_b, cfg)
