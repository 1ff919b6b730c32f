import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqnls.roots import RTOL, brentq

scipy_brentq = pytest.importorskip("scipy.optimize").brentq


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)
    return wrapped, calls


def _both(f, a, b, xtol):
    """(result, evaluation points) of the port and of scipy's brentq; a
    ValueError stands for the result."""
    results = []
    for solver in (brentq, lambda f, a, b, xtol: scipy_brentq(f, a, b, xtol=xtol, disp=False)):
        g, calls = _counted(f)
        try:
            results.append((solver(g, a, b, xtol), calls))
        except ValueError:
            results.append(("ValueError", calls))
    return results


@settings(max_examples=300, deadline=None)
@given(coefs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
       lo=st.floats(-3.0, 3.0), width=st.floats(1e-6, 6.0),
       log_xtol=st.floats(-15.0, -1.0))
@example(coefs=[0.0, 1.0], lo=-1.0, width=2.0, log_xtol=-12.0)
@example(coefs=[-1.0, 0.0, 1.0], lo=-2.0, width=2.0, log_xtol=-14.0)
# the interpolation's denominator underflows to zero: scipy's C code
# divides into inf or NaN and bisects
@example(coefs=[1.2331757325854203e-179] * 2, lo=-1.75, width=1.5, log_xtol=-12.0)
def test_matches_scipy_on_polynomials(coefs, lo, width, log_xtol):
    # monotone or not on the bracket: the same returned float, the same
    # evaluation points, or the same refusal of a bracket without a sign
    # change
    def f(x):
        return sum(c * x**k for k, c in enumerate(coefs))
    ours, theirs = _both(f, lo, lo + width, 10.0**log_xtol)
    assert ours == theirs


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["sin", "exp", "atan", "cbrt"]), scale=st.floats(0.1, 20.0),
       shift=st.floats(-1.0, 1.0), lo=st.floats(-3.0, 0.0), hi=st.floats(0.0, 3.0),
       log_xtol=st.floats(-15.0, -1.0))
def test_matches_scipy_on_transcendental_functions(kind, scale, shift, lo, hi, log_xtol):
    f = {"sin": lambda x: math.sin(scale * x) - 0.5 * shift,
         "exp": lambda x: math.exp(scale * x) - math.exp(shift),
         "atan": lambda x: math.atan(scale * (x - shift)),
         "cbrt": lambda x: math.copysign(abs(x - shift) ** (1.0 / 3.0), x - shift)}[kind]
    ours, theirs = _both(f, lo, hi, 10.0**log_xtol)
    assert ours == theirs


def test_refusals():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, 1e-12, rtol=RTOL / 2.0)
    # an end where f vanishes is the root, at no further cost
    f, calls = _counted(lambda x: x - 1.0)
    assert brentq(f, 1.0, 3.0, 1e-12) == 1.0 and calls == [1.0, 3.0]


def test_iteration_cap_returns_last_iterate():
    # scipy's disp=False: after maxiter iterations the last iterate stands
    f = lambda x: math.atan(50.0 * (x - 0.3))  # noqa: E731
    for maxiter in (1, 3, 5):
        assert brentq(f, -1.0, 1.0, 1e-15, maxiter=maxiter) == scipy_brentq(
            f, -1.0, 1.0, xtol=1e-15, maxiter=maxiter, disp=False)
