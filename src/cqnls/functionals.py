"""Scalar functionals of radial profiles: mass, energy, Pohozaev, beta.

They come from four full-space integrals of the profile u: the mass
int u^2, int u^4, int u^6 and ||grad u||^2.  Each is 4*pi times the
composite Simpson sum against r^2 over the stored grid plus the closed
form of the matched tail past its last node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import CUBIC_REFERENCE, GROUND_STATE, RadialProfile
from .quadrature import simpson_uniform, tail_grad_sq, tail_moment


@dataclass(frozen=True)
class FunctionalReport:
    mass: float
    energy: float
    pohozaev: float
    beta: float
    grad_sq: float
    l4: float
    l6: float
    nehari_residual: float
    pohozaev_residual: float


def evaluate(profile: RadialProfile) -> FunctionalReport:
    """All seven integrals plus the equation-residual diagnostics.

    The Nehari residual is populated only for profiles that solve an
    equation (ground states and the cubic reference); the Pohozaev
    residual uses the scaling identity matching the profile's equation.
    """
    profile.require_finite()
    h, weight, T = profile.spacing, profile.grid**2, profile.truncation_radius
    c, a = profile.tail_constant, profile.decay_rate

    mass, l4, l6 = (4.0 * np.pi * (simpson_uniform(profile.values**p * weight, h)
                                   + tail_moment(c, a, T, p)) for p in (2, 4, 6))
    grad_sq = 4.0 * np.pi * (simpson_uniform(profile.derivs**2 * weight, h)
                             + tail_grad_sq(c, a, T))

    energy = 0.5 * grad_sq - 0.25 * l4 + l6 / 6.0
    pohozaev = grad_sq + l6 - 0.75 * l4
    beta = l6 / grad_sq

    nehari = np.nan
    poh_res = abs(pohozaev) / (3.0 * grad_sq)
    if profile.kind == GROUND_STATE and profile.omega is not None:
        nehari = abs(grad_sq + profile.omega * mass + l6 - l4) / grad_sq
    elif profile.kind == CUBIC_REFERENCE:
        nehari = abs(grad_sq + mass - l4) / grad_sq
        poh_res = abs(grad_sq / 3.0 + mass - 0.5 * l4) / grad_sq

    return FunctionalReport(
        mass=mass, energy=energy, pohozaev=pohozaev, beta=beta,
        grad_sq=grad_sq, l4=l4, l6=l6,
        nehari_residual=float(nehari), pohozaev_residual=float(poh_res),
    )


def f_alpha(profile: RadialProfile, alpha: float, report: FunctionalReport | None = None) -> float:
    """Dilation- and amplitude-invariant Gagliardo-Nirenberg-type quotient."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rep = report if report is not None else evaluate(profile)
    l2 = np.sqrt(rep.mass)
    l6_norm = rep.l6 ** (1.0 / 6.0)
    grad = np.sqrt(rep.grad_sq)
    return float(l2 * l6_norm ** (3.0 * alpha / (1.0 + alpha)) * grad ** (3.0 / (1.0 + alpha)) / rep.l4)
