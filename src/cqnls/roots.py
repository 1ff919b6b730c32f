"""Brent's bracketed root search on Python floats.

A port of scipy's C ``brentq`` (Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4): the same iterates, the same function
evaluations and the same stopping test, without loading
``scipy.optimize``.  It locates the shooting events on the dense DOP853
output (``shooting._first_event``).
"""

from __future__ import annotations

import math

#: scipy's smallest relative tolerance, four machine epsilons
RTOL = 4.0 * 2.220446049250313e-16


def brentq(f, a: float, b: float, xtol: float, rtol: float = RTOL,
           maxiter: int = 100) -> float:
    """Root of ``f`` on [a, b], where f(a) and f(b) differ in sign.

    Stops once the bracket is narrower than ``xtol + rtol * |x|`` and
    returns the last iterate after ``maxiter`` iterations, as scipy's
    ``brentq(..., disp=False)``.  An end where f vanishes is returned at
    once.  Ends of one sign, a NaN value and tolerances that scipy
    refuses raise ``ValueError``.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # the end with the smaller value becomes the iterate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # an underflowed denominator: C gets inf or NaN, which fails
                # the step test below and bisects
                stry = math.inf
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur
