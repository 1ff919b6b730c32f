"""Rescaled solitons, the Q_alpha correspondence, and the constants C_alpha.

The rescaled soliton is the unique dilation/amplitude rescale of a ground
state that lands on the beta = 1/3, zero-Pohozaev normalization.  Q_alpha
is the ground state whose frequency satisfies beta(omega) = alpha; it
minimizes the dilation-invariant quotient F_alpha, whose reciprocal
infimum is C_alpha.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import FrequencyCurve, invert_beta
from .errors import AlphaOutOfRange, CqnlsError, KindMismatch, TargetNotBracketed
from .functionals import FunctionalReport, evaluate, f_alpha
from .profiles import (GROUND_STATE, RESCALED_SOLITON, RadialProfile,
                       ShootingConfig, test_function_profile)


def rescale_soliton(ground: RadialProfile,
                    report: FunctionalReport | None = None) -> RadialProfile:
    """The beta = 1/3 rescale: R(x) = s * P(lam * x) with the canonical
    amplitude factor s = sqrt((1+beta)/(4 beta)) and dilation
    lam = 3(1+beta)/(4 sqrt(3 beta))."""
    if ground.kind != GROUND_STATE:
        raise KindMismatch("rescale_soliton expects a ground state")
    rep = report if report is not None else evaluate(ground)
    beta = rep.beta
    s = math.sqrt((1.0 + beta) / (4.0 * beta))
    lam = 3.0 * (1.0 + beta) / (4.0 * math.sqrt(3.0 * beta))
    return RadialProfile(
        grid=ground.grid / lam,
        values=s * ground.values,
        derivs=s * lam * ground.derivs,
        omega=ground.omega,
        amplitude=s * ground.amplitude,
        tail_constant=s * ground.tail_constant / lam,
        truncation_radius=ground.truncation_radius / lam,
        kind=RESCALED_SOLITON,
        decay_rate=ground.decay_rate * lam,
    )


def rescale_mass_factor(beta: float) -> float:
    """Prefactor in M(R) = factor * M(P)."""
    return 16.0 * math.sqrt(3.0 * beta) / (9.0 * (1.0 + beta) ** 2)


def rescale_energy_factor(beta: float) -> float:
    """Prefactor in E(R) = factor * grad_sq(P)."""
    return 1.0 / (9.0 * math.sqrt(3.0 * beta))


def q_alpha(alpha: float, curve: FrequencyCurve,
            cfg: ShootingConfig | None = None) -> RadialProfile:
    """The minimizer Q_alpha: the ground state with beta(omega) = alpha."""
    if alpha <= 0:
        raise AlphaOutOfRange("alpha must be positive")
    try:
        _, profile, _ = invert_beta(alpha, curve, cfg)
    except TargetNotBracketed as err:
        raise AlphaOutOfRange(str(err)) from err
    return profile


def c_alpha(alpha: float, q: RadialProfile,
            report: FunctionalReport | None = None, check: bool = True) -> float:
    """The sharp constant C_alpha evaluated on the minimizer Q_alpha."""
    if q.kind != GROUND_STATE:
        raise KindMismatch("c_alpha expects the ground-state minimizer Q_alpha")
    rep = report if report is not None else evaluate(q)
    l2 = math.sqrt(rep.mass)
    grad = math.sqrt(rep.grad_sq)
    prefactor = 4.0 * (1.0 + alpha) / (3.0 * alpha ** (alpha / (2.0 * (1.0 + alpha))))
    value = prefactor / (l2 * grad ** ((1.0 - alpha) / (1.0 + alpha)))
    if check:
        attained = f_alpha(q, alpha, rep) * value
        if abs(attained - 1.0) > 1e-8:
            raise CqnlsError(
                f"minimizer does not attain the infimum: F_alpha * C_alpha = {attained!r}"
            )
    return value


def random_test_functions(count: int, seed: int = 0, r_max: float = 16.0,
                          spacing: float = 0.005) -> list[RadialProfile]:
    """Seeded positive radial test functions (1 + c1 r + c2 r^2) e^{-sigma r^2}.

    Draws are rejected until the profile is strictly positive on the grid,
    so every returned function is admissible for the quotient bounds.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c1, c2 = rng.uniform(-1.0, 1.0, size=2)
        sigma = rng.uniform(0.2, 2.0)

        def poly(r):
            return 1.0 + c1 * r + c2 * r**2

        profile = test_function_profile(
            lambda r: poly(r) * np.exp(-sigma * r**2),
            lambda r: (c1 + 2.0 * c2 * r - 2.0 * sigma * r * poly(r)) * np.exp(-sigma * r**2),
            r_max, spacing)
        if np.all(profile.values > 0.0):
            out.append(profile)
    return out
