"""Mass-projected imaginary-time gradient flow (independent oracle).

Discrete gradient descent on the energy with renormalization to a fixed
mass after every step.  The flow shares nothing with the shooting or
collocation solvers: it works in the substituted variable w = r*u on its
own uniform grid with a fourth-order finite-difference Laplacian, so a
converged flow profile is an independent certificate for a solver profile
of the same mass, and the Lagrange multiplier it converges to is an
independent read of the frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import FlowDiverged
from .profiles import even_grid
from .quadrature import simpson_uniform


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


def _multiplier(lap: np.ndarray, w: np.ndarray, u_sq: np.ndarray,
                quintic: bool) -> tuple[float, np.ndarray]:
    """Lagrange multiplier mu of the discrete equation and its residual."""
    force = -_apply_banded(lap, w) + w * u_sq
    if quintic:
        force -= w * u_sq * u_sq
    mu = float(np.dot(force, w) / np.dot(w, w))
    return mu, force - mu * w


def projected_gradient(values: np.ndarray, spacing: float,
                       quintic: bool = True) -> tuple[float, float]:
    """Multiplier and relative projected-gradient norm of a sampled profile.

    Evaluates the flow's own discrete first-order conditions at an
    externally supplied profile (values on the uniform grid starting at
    r = 0) without running the flow.  Useful for certifying states that
    are saddle points of the constrained problem, where the flow itself
    would not remain nearby for long times.
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    r = spacing * np.arange(1, n + 1)
    w = r * values[1:]
    mu, resid = _multiplier(laplacian_banded(n, spacing), w, (w * w) / (r * r), quintic)
    return mu, float(np.linalg.norm(resid) / np.linalg.norm(w))


@dataclass(frozen=True)
class FlowResult:
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    mass: float
    energy: float
    multiplier: float
    gradient_norm: float
    iterations: int
    converged: bool


def _energy(grid, u, du, quintic: bool) -> float:
    h = float(grid[1] - grid[0])
    w2 = grid * grid
    integrand = (0.5 * du * du - 0.25 * u**4) * w2
    if quintic:
        integrand += (u**6 / 6.0) * w2
    return 4.0 * math.pi * simpson_uniform(integrand, h)


def mass_projected_flow(mass: float, r_max: float = 40.0, spacing: float = 0.01,
                        seed_width: float = 4.0, seed_values: np.ndarray | None = None,
                        dt: float = 2.0, grad_tol: float = 1e-9,
                        max_iters: int = 60_000, quintic: bool = True) -> FlowResult:
    """Descend the energy at fixed mass until the projected gradient is flat.

    ``seed_values`` (on the same grid) overrides the default Gaussian seed.
    Returns the converged state; ``multiplier`` is the discrete Lagrange
    multiplier, i.e. the frequency the profile solves the equation at.
    """
    if mass <= 0:
        raise ValueError("mass must be positive")
    grid = even_grid(r_max, spacing)
    r = grid[1:]
    n = r.size

    if seed_values is not None:
        u0 = np.asarray(seed_values, dtype=float)
        if u0.size != grid.size:
            raise ValueError("seed_values must live on the flow grid")
        w = r * u0[1:]
    else:
        w = r * np.exp(-((r / seed_width) ** 2))

    lap = laplacian_banded(n, spacing)

    def discrete_mass(wv):
        return 4.0 * math.pi * simpson_uniform(
            np.concatenate(([0.0], wv * wv)), spacing)

    w *= math.sqrt(mass / discrete_mass(w))
    inv_r2 = 1.0 / (r * r)

    gradient_norm = np.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        # lagged-potential backward Euler: the whole potential sits inside
        # the implicit solve, so the step stays stable for large dt
        u_sq = (w * w) * inv_r2
        potential = -u_sq
        if quintic:
            potential += u_sq * u_sq
        step_matrix = lap.copy()
        step_matrix[2] += 1.0 / dt + potential
        w_new = solve_banded((2, 2), step_matrix, w / dt)
        if not np.all(np.isfinite(w_new)):
            raise FlowDiverged("flow produced non-finite iterates")
        m_now = discrete_mass(w_new)
        if m_now <= 0 or not math.isfinite(m_now):
            raise FlowDiverged("flow mass collapsed")
        w = w_new * math.sqrt(mass / m_now)

        if iterations % 10 == 0 or iterations == max_iters:
            mu, resid = _multiplier(lap, w, (w * w) * inv_r2, quintic)
            gradient_norm = float(np.linalg.norm(resid) / np.linalg.norm(w))
            if gradient_norm < grad_tol:
                break
            if mu < -1e6:
                raise FlowDiverged("flow multiplier ran away, grid too small")

    u = np.concatenate(([0.0], w / r))
    du0, dw = _derivative(w, spacing)
    u[0] = du0  # u(0) = w'(0) by l'Hopital
    du = np.empty_like(u)
    du[1:] = (dw[1:] - u[1:]) / r
    du[0] = 0.0
    energy = _energy(grid, u, du, quintic)
    if not math.isfinite(energy) or energy < -1e8:
        raise FlowDiverged("flow energy decreased without bound")
    mu, _ = _multiplier(lap, w, (w * w) * inv_r2, quintic)
    return FlowResult(
        grid=grid, values=u, derivs=du, mass=mass, energy=energy,
        multiplier=mu, gradient_norm=gradient_norm, iterations=iterations,
        converged=gradient_norm < grad_tol,
    )
