"""Radial quadrature on uniform grids plus analytic exponential-tail moments.

Full-space integrals reduce to weighted half-line integrals,
``int f dx = S_d * int_0^inf f(r) r^(d-1) dr`` with ``S_3 = 4*pi`` and
``S_1 = 2`` (even functions).  Stored profiles are integrated by composite
Simpson; the matched tail ``c*exp(-a*r)/r`` is integrated in closed form
through the exponential integral ``E_n``, taken as ``e^x E_n(x)`` times
the power of ``c*exp(-a*T)`` so that no factor overflows or underflows
where ``c`` grows like ``exp(a*T)``.
"""

from __future__ import annotations

import math

import numpy as np

_SOLID_ANGLE = {1: 2.0, 3: 4.0 * np.pi}

# cephes constants of ``expn``
_EULER = 0.57721566490153286060
_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996843e2
_BIG = 1.44115188075855872e17


def _expn_fraction(n: int, x: float) -> float:
    """``exp(x) E_n(x)`` for n >= 1 and x > 1: cephes' continued fraction
    (DLMF 8.19.17) before its final factor ``exp(-x)``."""
    k, pkm2, qkm2, pkm1, qkm1 = 1, 1.0, x, 1.0, x + n
    ans = pkm1 / qkm1
    while True:
        k += 1
        yk, xk = (1.0, float(n + (k - 1) // 2)) if k & 1 else (x, float(k // 2))
        pk = pkm1 * yk + pkm2 * xk
        qk = qkm1 * yk + qkm2 * xk
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2, pkm1, qkm2, qkm1 = pkm2 / _BIG, pkm1 / _BIG, qkm2 / _BIG, qkm1 / _BIG
        if not t > _MACHEP:
            return ans


def _expn_scaled(n: int, x: float) -> float:
    """``exp(x) E_n(x)`` for 0 <= n <= 50 and x > 0, finite where ``E_n``
    underflows (x past ``_MAXLOG``)."""
    if n == 0:
        return 1.0 / x
    if x > 1.0:
        return _expn_fraction(n, x)
    return math.exp(x) * expn(n, x)


def expn(n: int, x: float) -> float:
    """Exponential integral ``E_n(x) = int_1^inf exp(-x t) t^(-n) dt`` for
    0 <= n <= 50, by cephes' algorithm as in ``scipy.special.expn``: a
    continued fraction (DLMF 8.19.17) for x > 1 and the power series
    (DLMF 8.19.8) below.  NaN for n < 0 or x < 0, as scipy.
    """
    if math.isnan(x) or n < 0 or x < 0:
        return math.nan
    if n > 50:
        raise ValueError("expn is implemented for n <= 50")
    if x > _MAXLOG:
        return 0.0
    if x == 0.0:
        return math.inf if n < 2 else 1.0 / (n - 1.0)
    if n == 0:
        return math.exp(-x) / x
    if x > 1.0:
        return _expn_fraction(n, x) * math.exp(-x)
    psi = -_EULER - math.log(x)
    for i in range(1, n):
        psi = psi + 1.0 / i
    z, xk, yk, pk = -x, 0.0, 1.0, 1.0 - n
    ans = 0.0 if n == 1 else 1.0 / pk
    while True:
        xk += 1.0
        yk *= z / xk
        pk += 1.0
        if pk != 0.0:
            ans += yk / pk
        t = abs(yk / ans) if ans != 0.0 else 1.0
        if not t > _MACHEP:
            return z ** (n - 1.0) * psi / math.gamma(n) - ans


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid; odd interval counts fall back
    to a 3/8 closing rule on the last three intervals."""
    y = np.asarray(y, dtype=float)
    n = y.size - 1
    if n < 2:
        return float(np.trapezoid(y, dx=h))
    if n % 2 == 0:
        return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))
    head = simpson_uniform(y[: n - 2], h) if n > 3 else 0.0
    tail38 = 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
    return head + tail38


def tail_moment(c: float, a: float, T: float, power: int, dim: int = 3) -> float:
    """Tail contribution of ``(c e^{-a r}/r)^power`` against ``r^(dim-1)``.

    That is c^p E_n(p a T) / T^(n-1) with n = p - dim + 1, formed as
    (c e^{-a T})^p times e^(p a T) E_n(p a T): c^p alone overflows near the
    upper frequency endpoint, where c grows like e^{a T}.
    """
    if c == 0.0 or a <= 0.0:
        return 0.0
    n = power - dim + 1
    if n < 0:
        raise ValueError("unsupported moment")
    return (c * math.exp(-a * T))**power * _expn_scaled(n, power * a * T) / T ** (n - 1)


def tail_grad_sq(c: float, a: float, T: float) -> float:
    """Tail contribution of ``(u')^2`` against ``r^2`` for the matched 3D
    tail ``u = c e^{-a r}/r``.

    (u')^2 r^2 = c^2 e^{-2 a r} (a^2 + 2a/r + 1/r^2), so the tail is
    (c e^{-a T})^2 (a^2 T F_0 + 2a F_1 + F_2/T) with F_n = e^x E_n(x) at
    x = 2aT, scaled as in ``tail_moment``: near the upper frequency
    endpoint c^2 alone overflows and e^{-2aT} alone is subnormal.
    """
    if c == 0.0 or a <= 0.0:
        return 0.0
    x = 2.0 * a * T
    return (c * math.exp(-a * T))**2 * (
        a * a * T * _expn_scaled(0, x) + 2.0 * a * _expn_scaled(1, x) + _expn_scaled(2, x) / T)


def radial_moment(grid: np.ndarray, samples: np.ndarray, power: int, dim: int = 3,
                  tail_constant: float = 0.0, decay_rate: float = 0.0) -> float:
    """Full-space integral of ``u^power`` for the sampled radial function."""
    h = float(grid[1] - grid[0])
    weight = grid ** (dim - 1)
    core = simpson_uniform(samples**power * weight, h)
    tail = tail_moment(tail_constant, decay_rate, float(grid[-1]), power, dim)
    return _SOLID_ANGLE[dim] * (core + tail)


def radial_grad_sq(grid: np.ndarray, derivs: np.ndarray, dim: int = 3,
                   tail_constant: float = 0.0, decay_rate: float = 0.0) -> float:
    """Full-space integral of ``|grad u|^2`` from stored derivative samples."""
    h = float(grid[1] - grid[0])
    weight = grid ** (dim - 1)
    core = simpson_uniform(derivs**2 * weight, h)
    tail = 0.0
    if dim == 3:
        tail = tail_grad_sq(tail_constant, decay_rate, float(grid[-1]))
    return _SOLID_ANGLE[dim] * (core + tail)
