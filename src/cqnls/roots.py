"""Bracketed bisection on Python floats.

Every sign search in cqnls that halves a bracket goes through ``halve``:
the shooting dichotomy (``shooting._bisect``), the event roots inside one
DOP853 step (``shooting._first_event``) and the root of a cubic Hermite
interpolant (``curves._hermite_root``).
"""

from __future__ import annotations


def halve(upper, lo: float, hi: float, tolerance: float) -> tuple[float, float]:
    """Bisect (lo, hi) on the predicate ``upper``: where ``upper(mid)``
    holds, mid becomes hi, else lo.  Stops once ``hi - lo <= tolerance *
    lo`` or the midpoint is no longer strictly inside, so a tolerance of 0
    halves until no float is left between the ends; returns (lo, hi).
    The ends themselves are never evaluated."""
    while hi - lo > tolerance * lo:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if upper(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
