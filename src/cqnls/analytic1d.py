"""Closed-form one-dimensional soliton used as an exact oracle.

The 1D cubic-quintic profile equation has the explicit even solution

    phi(x) = 2 sqrt( omega / (1 + sqrt(1 - 16 omega/3) cosh(2 sqrt(omega) x)) )

on the same frequency window (0, 3/16).  Its integrals have closed
forms too, so it checks composite Simpson (``quadrature.simpson_uniform``,
the rule every 3D integral uses) against exact values and verifies the
1D Nehari-type identity.
"""

from __future__ import annotations

import math

import numpy as np

from .profiles import TEST_FUNCTION, RadialProfile, even_grid
from .quadrature import simpson_uniform
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


def soliton_profile_1d(omega: float) -> RadialProfile:
    """Sample the closed form on a half-line grid of spacing 0.005 (even
    extension)."""
    check_frequency(omega)
    # reach machine-negligible tails: phi^2 ~ exp(-2 sqrt(omega) x)
    grid = even_grid(40.0 / math.sqrt(omega), 0.005)
    return RadialProfile(
        grid=grid, values=soliton_1d(omega, grid),
        derivs=soliton_1d_derivative(omega, grid),
        omega=omega, tail_constant=0.0, kind=TEST_FUNCTION, decay_rate=0.0,
    )


def validate_quadrature_1d(omega: float) -> dict:
    """Composite Simpson versus the closed-form integrals.

    The integrands are even, so each full-line integral is twice the
    Simpson sum over the half-line grid.  With y = 2 sqrt(omega) x,
    phi^2 = 4 omega / (1 + k cosh y), so
    int phi^(2n) dx = (4 omega)^n J_n / (2 sqrt(omega)) with
    J_n = int dy / (1 + k cosh y)^n; for c = sqrt(1 - k^2) and
    L = atanh(c) these are J_1 = 2L/c, J_2 = 2L/c^3 - 2/c^2 and
    J_3 = (3 - c^2) L/c^5 - 3/c^4.  The first integral of the profile
    equation, phi'^2 = omega phi^2 - phi^4/2 + phi^6/3, gives the gradient
    term.  J_3 cancels as c -> 0: about 1e-12 relative at omega = 0.01.
    """
    profile = soliton_profile_1d(omega)
    h = profile.spacing
    ours = {name: 2.0 * simpson_uniform(profile.values**power, h)
            for name, power in (("l2_sq", 2), ("l4_4", 4), ("l6_6", 6))}
    ours["grad_sq"] = 2.0 * simpson_uniform(profile.derivs**2, h)

    c = 4.0 * math.sqrt(omega / 3.0)
    big_l = math.atanh(c)
    j = (2.0 * big_l / c, 2.0 * big_l / c**3 - 2.0 / c**2,
         (3.0 - c * c) * big_l / c**5 - 3.0 / c**4)
    l2, l4, l6 = ((4.0 * omega) ** n * j[n - 1] / (2.0 * math.sqrt(omega))
                  for n in (1, 2, 3))
    exact = {"l2_sq": l2, "l4_4": l4, "l6_6": l6,
             "grad_sq": omega * l2 - 0.5 * l4 + l6 / 3.0}

    results = {name: {"quadrature": ours[name], "reference": ref,
                      "rel_error": abs(ours[name] - ref) / ref}
               for name, ref in exact.items()}
    nehari = ours["grad_sq"] + omega * ours["l2_sq"] + ours["l6_6"] - ours["l4_4"]
    results["nehari_residual"] = abs(nehari) / ours["grad_sq"]
    return results
