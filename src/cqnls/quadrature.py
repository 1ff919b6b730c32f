"""Composite Simpson on uniform grids plus analytic exponential-tail moments.

A radial full-space integral is ``int f dx = 4*pi * int_0^inf f(r) r^2 dr``.
Stored profiles are integrated by composite Simpson over their even
number of grid intervals.  The matched tail ``c*exp(-a*r)/r`` past the
last node T is integrated in closed form through the exponential
integral ``E_n``, taken as ``e^x E_n(x)`` times the power of
``c*exp(-a*T)`` so that no factor overflows or underflows where ``c``
grows like ``exp(a*T)``; its arguments x >= 2aT lie past 1, where
cephes' continued fraction alone gives ``E_n``.
"""

from __future__ import annotations

import math

import numpy as np

# cephes constants of the continued fraction of ``expn``
_MACHEP = 1.11022302462515654042e-16
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
    """``exp(x) E_n(x)`` for n >= 0 and x > 1, finite where ``E_n``
    underflows.  Tail arguments are p*a*T >= 2aT, and every profile's
    tail starts past aT = 7.8, so no caller needs the series for x <= 1."""
    if not x > 1.0:
        raise ValueError(f"tail argument {x} is not above 1")
    if n == 0:
        return 1.0 / x
    return _expn_fraction(n, x)


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid with an even number of
    intervals, which every profile grid has (``profiles.even_grid``)."""
    y = np.asarray(y, dtype=float)
    n = y.size - 1
    if n < 2 or n % 2:
        raise ValueError(f"composite Simpson needs an even number of intervals, got {n}")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def tail_moment(c: float, a: float, T: float, power: int) -> float:
    """Tail contribution of ``(c e^{-a r}/r)^power`` against ``r^2``.

    That is c^p E_n(p a T) / T^(n-1) with n = p - 2, formed as
    (c e^{-a T})^p times e^(p a T) E_n(p a T): c^p alone overflows near the
    upper frequency endpoint, where c grows like e^{a T}.
    """
    if c == 0.0 or a <= 0.0:
        return 0.0
    n = power - 2
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

