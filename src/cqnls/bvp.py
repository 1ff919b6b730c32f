"""Collocation continuation for frequencies near the upper endpoint: an
independent oracle for the depth shooting of ``shooting``.

Near 3/16 the separatrix amplitude hugs the force zero to within less than
one double-precision ulp while the profile develops a long plateau whose
front sits at a radius growing like 1/(3/16 - omega).  ``solve_ground_state``
shoots on the log of that gap there; this module solves the same profile
equation another way, as a two-point boundary-value problem with adaptive
collocation, continued in frequency from a shooting solution at
``OMEGA_SHOOTING_MAX``.  No solver path calls it any more.  It is kept as
the cross-method check of the plateau solves (``tests/test_shooting.py``)
and because the benchmark's traced mode wraps ``solve_bvp`` and
``solve_collocation`` here; it can go once the benchmark stops wrapping
them.

Each continuation step seeds the next solve by *translating the front*:
the front radius is extrapolated linearly in 1/(3/16 - omega) and the
previous profile is shifted so its front lands at the predicted position.
Accepted rungs are cached at module level, one ladder per ODE tolerance,
so repeated solves (frequency scans, derivative stencils) reuse the ladder
instead of rebuilding it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_bvp
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainTooSmall, InnerSolveDiverged
from .profiles import OMEGA_MAX, RadialProfile
from .shooting import ODE_TOLERANCE, _matched_profile

#: frequency the ladder starts from, with a shooting solve there
OMEGA_SHOOTING_MAX = 0.155

_TOL = 1e-10
_MAX_NODES = 300_000
_STEP_MAX = 3e-3
_STEP_MIN = 1e-7
_TAIL_MARGIN = 60.0

# accepted continuation rungs per ODE tolerance: omega -> (mesh, u, v)
_ladder: dict[float, dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


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


def _bootstrap(ode_tolerance: float) -> dict:
    """A new ladder seeded with the ground state at ``OMEGA_SHOOTING_MAX``."""
    from .shooting import solve_ground_state

    base = solve_ground_state(OMEGA_SHOOTING_MAX, ode_tolerance)
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


def _climb(omega: float, ode_tolerance: float):
    """Continue the tolerance's ladder in frequency until a rung lands on omega."""
    if ode_tolerance not in _ladder:
        _ladder[ode_tolerance] = _bootstrap(ode_tolerance)
    ladder = _ladder[ode_tolerance]
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


def solve_collocation(omega: float, ode_tolerance: float = ODE_TOLERANCE) -> RadialProfile:
    """Ground state by collocation continuation from ``OMEGA_SHOOTING_MAX``."""
    mesh, u, v = _climb(omega, ode_tolerance)
    spline = CubicHermiteSpline(mesh, u, v)
    return _matched_profile(lambda grid: (spline(grid), spline(grid, 1)),
                            float(u[0]), omega, True, float(mesh[-1]), math.inf)
