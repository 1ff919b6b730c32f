"""Mass-projected imaginary-time gradient flow (independent oracle).

Discrete gradient descent on the energy with renormalization to a fixed
mass after every step.  The flow shares nothing with the shooting or
collocation solvers: it works in the substituted variable w = r*u on its
own uniform grid (``SPACING``) with a fourth-order finite-difference
Laplacian, so a converged flow profile is an independent certificate for
a solver profile of the same mass, and the Lagrange multiplier it
converges to is an independent read of the frequency.  A saddle state,
which the flow would leave, is certified against the same discrete
first-order conditions (``laplacian_banded``, ``_multiplier``) without
running the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowDiverged
from .lapack import dpbsv
from .profiles import even_grid
from .quadrature import simpson_uniform

#: node spacing of the flow grid
SPACING = 0.01
#: pseudo-time step of the lagged-potential backward Euler step
TIME_STEP = 2.0
#: relative projected-gradient norm at which the flow has converged
GRADIENT_TOL = 1e-9
#: iterations before the flow gives up unconverged
MAX_ITERATIONS = 60_000


def laplacian_banded(n: int, h: float) -> np.ndarray:
    """Banded form of the fourth-order matrix for -w'' on w_1..w_n.

    Boundary closure: w is odd through r = 0 (w = r*u with u even), so
    w(-h) = -w(h); homogeneous Dirichlet beyond r = R.
    """
    inv = 1.0 / (12.0 * h * h)
    ab = np.zeros((5, n))
    ab[0, 2:] = 1.0 * inv           # superdiagonal +2
    ab[1, 1:] = -16.0 * inv         # superdiagonal +1
    ab[2, :] = 30.0 * inv           # diagonal
    ab[3, :-1] = -16.0 * inv        # subdiagonal -1
    ab[4, :-2] = 1.0 * inv          # subdiagonal -2
    ab[2, 0] -= 1.0 * inv           # fold of the odd image point w(-h)
    return ab


def _apply_banded(ab: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = ab[2] * w
    out[:-1] += ab[1, 1:] * w[1:]
    out[1:] += ab[3, :-1] * w[:-1]
    out[:-2] += ab[0, 2:] * w[2:]
    out[2:] += ab[4, :-2] * w[:-2]
    return out


def _solve_shifted(lap: np.ndarray, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (lap + diag(shift)) x = rhs for ``lap`` in banded form.

    The matrix is symmetric positive definite whenever the shift is
    positive: on the odd extension the fourth-order stencil has the symbol
    4 (1 - cos theta)(7 - cos theta) / (12 h^2) >= 0, and the flow's shift
    1/TIME_STEP + u^4 - u^2 is at least 1/4.  So it is solved by banded
    Cholesky, pbsv, on its lower half, which is ``lap``'s last three rows
    in LAPACK's layout: the arguments ``solveh_banded(..., lower=True)``
    passes, in Fortran order so that LAPACK factors the array in place.
    A matrix that is not positive definite raises FlowDiverged; a
    non-finite one is left to the caller's check of the solution.
    """
    ab = np.array(lap[2:], order="F")
    ab[0] += shift
    *_, x, info = dpbsv(ab, rhs, lower=1, overwrite_ab=1)
    if info != 0:
        raise FlowDiverged(f"singular flow step (dpbsv info={info})")
    return x


def _derivative(w: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """w'(0) and w' on the interior grid, fourth order, w odd through 0."""
    n = w.size
    full = np.concatenate(([0.0], w))
    d = np.empty(n + 1)
    # centred stencil at nodes 0..n-2, with odd images below r = 0
    ext = np.concatenate((-full[2:0:-1], full))
    d[:n - 1] = (8.0 * (ext[3:n + 2] - ext[1:n]) - (ext[4:n + 3] - ext[:n - 1])) / (12.0 * h)
    # one-sided closure at the outer edge (field is exponentially small)
    d[n - 1] = (full[n] - full[n - 2]) / (2.0 * h)
    d[n] = (full[n] - full[n - 1]) / h
    return float(d[0]), d


def _multiplier(lap: np.ndarray, w: np.ndarray,
                u_sq: np.ndarray) -> tuple[float, np.ndarray]:
    """Lagrange multiplier mu of the discrete cubic-quintic equation and its
    residual."""
    force = -_apply_banded(lap, w) + w * u_sq - w * u_sq * u_sq
    mu = float(np.dot(force, w) / np.dot(w, w))
    return mu, force - mu * w


@dataclass(frozen=True)
class FlowResult:
    mass: float
    energy: float
    multiplier: float
    gradient_norm: float
    iterations: int
    converged: bool


def _energy(grid, u, du) -> float:
    h = float(grid[1] - grid[0])
    w2 = grid * grid
    integrand = (0.5 * du * du - 0.25 * u**4) * w2 + (u**6 / 6.0) * w2
    return 4.0 * math.pi * simpson_uniform(integrand, h)


def mass_projected_flow(mass: float, r_max: float = 40.0,
                        seed_width: float = 4.0) -> FlowResult:
    """Descend the energy at fixed mass until the projected gradient is flat.

    The seed is the Gaussian exp(-(r/seed_width)^2) on [0, r_max].  Returns
    the energy of the state after ``GRADIENT_TOL`` is met or
    ``MAX_ITERATIONS`` steps, with its gradient norm; ``multiplier`` is the
    discrete Lagrange multiplier, i.e. the frequency the profile solves
    the equation at.  A singular or non-finite step
    raises FlowDiverged.
    """
    if not (math.isfinite(mass) and mass > 0):
        raise ValueError(f"mass must be finite and positive, got {mass}")
    grid = even_grid(r_max, SPACING)
    r = grid[1:]
    n = r.size
    w = r * np.exp(-((r / seed_width) ** 2))
    lap = laplacian_banded(n, SPACING)

    def discrete_mass(wv):
        return 4.0 * math.pi * simpson_uniform(
            np.concatenate(([0.0], wv * wv)), SPACING)

    w *= math.sqrt(mass / discrete_mass(w))
    inv_r2 = 1.0 / (r * r)

    gradient_norm = np.inf
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        # lagged-potential backward Euler: the whole potential sits inside
        # the implicit solve, so the step stays stable at a large TIME_STEP
        u_sq = (w * w) * inv_r2
        w_new = _solve_shifted(lap, 1.0 / TIME_STEP + (u_sq * u_sq - u_sq),
                               w / TIME_STEP)
        if not np.all(np.isfinite(w_new)):
            raise FlowDiverged("flow produced non-finite iterates")
        m_now = discrete_mass(w_new)
        if m_now <= 0 or not math.isfinite(m_now):
            raise FlowDiverged("flow mass collapsed")
        w = w_new * math.sqrt(mass / m_now)

        if iterations % 10 == 0 or iterations == MAX_ITERATIONS:
            mu, resid = _multiplier(lap, w, (w * w) * inv_r2)
            gradient_norm = float(np.linalg.norm(resid) / np.linalg.norm(w))
            if gradient_norm < GRADIENT_TOL:
                break
            if mu < -1e6:
                raise FlowDiverged("flow multiplier ran away, grid too small")

    u = np.concatenate(([0.0], w / r))
    du0, dw = _derivative(w, SPACING)
    u[0] = du0  # u(0) = w'(0) by l'Hopital
    du = np.empty_like(u)
    du[1:] = (dw[1:] - u[1:]) / r
    du[0] = 0.0
    energy = _energy(grid, u, du)
    if not math.isfinite(energy) or energy < -1e8:
        raise FlowDiverged("flow energy decreased without bound")
    mu, _ = _multiplier(lap, w, (w * w) * inv_r2)
    return FlowResult(
        mass=mass, energy=energy, multiplier=mu, gradient_norm=gradient_norm,
        iterations=iterations, converged=gradient_norm < GRADIENT_TOL,
    )
