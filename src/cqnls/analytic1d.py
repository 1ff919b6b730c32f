"""Closed-form one-dimensional soliton used as an exact oracle.

The 1D cubic-quintic profile equation has the explicit even solution

    phi(x) = 2 sqrt( omega / (1 + sqrt(1 - 16 omega/3) cosh(2 sqrt(omega) x)) )

on the same frequency window (0, 3/16).  It exercises the quadrature
engine's 1D mode against adaptive reference integration and verifies the
1D Nehari-type identity, validating the code path shared with the 3D
functionals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .profiles import TEST_FUNCTION, RadialProfile, even_grid
from .quadrature import radial_grad_sq, radial_moment
from .shooting import check_frequency


def soliton_1d(omega: float, x):
    """The closed-form 1D soliton, even in x."""
    check_frequency(omega)
    x = np.asarray(x, dtype=float)
    k = math.sqrt(1.0 - 16.0 * omega / 3.0)
    den = 1.0 + k * np.cosh(2.0 * math.sqrt(omega) * x)
    out = 2.0 * np.sqrt(omega / den)
    return out if out.ndim else float(out)


def soliton_1d_derivative(omega: float, x):
    """d/dx of the closed form (odd in x)."""
    check_frequency(omega)
    x = np.asarray(x, dtype=float)
    k = math.sqrt(1.0 - 16.0 * omega / 3.0)
    sw = math.sqrt(omega)
    den = 1.0 + k * np.cosh(2.0 * sw * x)
    out = -2.0 * omega * k * np.sinh(2.0 * sw * x) * den ** (-1.5)
    return out if out.ndim else float(out)


def soliton_profile_1d(omega: float, spacing: float = 0.005,
                       x_max: float | None = None) -> RadialProfile:
    """Sample the closed form on a half-line grid (even extension)."""
    check_frequency(omega)
    if x_max is None:
        # reach machine-negligible tails: phi^2 ~ exp(-2 sqrt(omega) x)
        x_max = 40.0 / math.sqrt(omega)
    grid = even_grid(x_max, spacing)
    return RadialProfile(
        grid=grid, values=soliton_1d(omega, grid),
        derivs=soliton_1d_derivative(omega, grid),
        omega=omega, amplitude=float(soliton_1d(omega, 0.0)),
        tail_constant=0.0, truncation_radius=float(grid[-1]),
        kind=TEST_FUNCTION, decay_rate=0.0,
    )


def validate_quadrature_1d(omega: float) -> dict:
    """Toolkit quadrature (1D mode) versus adaptive reference integration."""
    profile = soliton_profile_1d(omega)
    grid, vals, ders = profile.grid, profile.values, profile.derivs
    upper = float(grid[-1])

    results = {}
    for name, power in (("l2_sq", 2), ("l4_4", 4), ("l6_6", 6)):
        ours = radial_moment(grid, vals, power, dim=1)
        ref, _ = quad(lambda x, p=power: soliton_1d(omega, x) ** p,
                      0.0, upper, epsabs=1e-14, epsrel=1e-13, limit=400)
        ref *= 2.0  # even extension to the full line
        results[name] = {"quadrature": ours, "reference": ref,
                         "rel_error": abs(ours - ref) / ref}
    grad_ours = radial_grad_sq(grid, ders, dim=1)
    grad_ref, _ = quad(lambda x: soliton_1d_derivative(omega, x) ** 2,
                       0.0, upper, epsabs=1e-14, epsrel=1e-13, limit=400)
    grad_ref *= 2.0
    results["grad_sq"] = {"quadrature": grad_ours, "reference": grad_ref,
                          "rel_error": abs(grad_ours - grad_ref) / grad_ref}

    grad = grad_ours
    nehari = grad + omega * radial_moment(grid, vals, 2, dim=1) \
        + radial_moment(grid, vals, 6, dim=1) - radial_moment(grid, vals, 4, dim=1)
    results["nehari_residual"] = abs(nehari) / grad
    return results
