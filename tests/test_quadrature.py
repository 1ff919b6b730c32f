import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cqnls.functionals import evaluate
from cqnls.profiles import TEST_FUNCTION, RadialProfile
from cqnls.profiles import test_function_profile as make_test_function
from cqnls.quadrature import (_expn_fraction, _expn_scaled, simpson_uniform, tail_grad_sq,
                              tail_moment)


class TestSimpsonUniform:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 11, 100, 101])
    def test_exact_on_cubics(self, n):
        # odd interval counts are refused: no profile grid has one
        h = 1.0 / n
        x = h * np.arange(n + 1)
        if n % 2:
            with pytest.raises(ValueError):
                simpson_uniform(x**3 - 2 * x**2 + 5, h)
            return
        value = simpson_uniform(x**3 - 2 * x**2 + 5, h)
        assert value == pytest.approx(0.25 - 2.0 / 3.0 + 5.0, rel=1e-13)

    @pytest.mark.parametrize("nodes", [0, 1])
    def test_fewer_than_two_intervals_raise(self, nodes):
        with pytest.raises(ValueError):
            simpson_uniform(np.ones(nodes), 0.1)

    @settings(deadline=None)
    @given(n=st.integers(2, 400), length=st.floats(0.1, 10.0),
           coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
    def test_exact_on_cubics_any_node_count(self, n, length, coeffs):
        # n intervals: even counts are exact, odd ones are refused
        h = length / n
        x = h * np.arange(n + 1)
        y = sum(c * x**k for k, c in enumerate(coeffs))
        if n % 2:
            with pytest.raises(ValueError):
                simpson_uniform(y, h)
            return
        exact = sum(c * x[-1] ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        scale = sum(abs(c) * x[-1] ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        assert abs(simpson_uniform(y, h) - exact) <= 1e-12 * (scale + 1e-300)

    def test_fourth_order_convergence(self):
        errors = []
        for n in (64, 128):
            h = math.pi / n
            x = h * np.arange(n + 1)
            errors.append(abs(simpson_uniform(np.sin(x), h) - 2.0))
        assert errors[0] / errors[1] > 12.0  # ~16 expected


class TestTails:
    def test_tail_moment_matches_quadrature(self):
        c, a, T = 0.7, 1.2, 4.0
        for power in (2, 4, 6):
            ref, _ = quad(lambda r: (c * math.exp(-a * r) / r)**power * r**2,
                          T, np.inf)
            assert tail_moment(c, a, T, power) == pytest.approx(ref, rel=1e-10)

    def test_tail_moment_past_the_power_overflow(self):
        # the tail of the ground state at omega = 0.186: c**6 alone
        # overflows, and the moment is e^{6 log c - 6 a T} E_4(6 a T)/T^3
        c, a, T = 3.749669469097631e56, math.sqrt(0.186), 313.2
        x = 6.0 * a * T
        assert x > 709.8  # E_4(x) underflows
        # E_4(x) e^x = 1/x (1 - 4/x + 20/x^2 - 120/x^3 + ...) asymptotically
        scaled = (1.0 - 4.0 / x + 20.0 / x**2 - 120.0 / x**3 + 840.0 / x**4) / x
        expected = math.exp(6.0 * (math.log(c) - a * T)) * scaled / T**3
        assert tail_moment(c, a, T, 6) == pytest.approx(expected, rel=1e-11)

    def test_tail_grad_sq_matches_quadrature(self):
        c, a, T = 0.7, 1.2, 4.0

        def du(r):
            return -c * math.exp(-a * r) * (a / r + 1.0 / r**2)

        ref, _ = quad(lambda r: du(r)**2 * r**2, T, np.inf)
        assert tail_grad_sq(c, a, T) == pytest.approx(ref, rel=1e-10)

    def test_tail_grad_sq_past_the_power_overflow(self):
        # the tail of the ground state at omega = 0.186964: c**2 alone
        # overflows, e^{-2aT} alone is subnormal, and the tail is
        # e^{2 log c - 2aT} (a^2 T e^x E_0(x) + 2a e^x E_1(x) + e^x E_2(x)/T)
        c, a, T = 4.54517539441896e154, 0.432393339449164, 827.52
        x = 2.0 * a * T
        assert math.exp(-x) < sys.float_info.min

        def scaled(n):
            # e^x E_n(x) = 1/x sum_k (-1)^k n(n+1)...(n+k-1)/x^k asymptotically
            return sum((-1.0) ** k * math.prod(range(n, n + k)) / x**k for k in range(7)) / x

        expected = math.exp(2.0 * (math.log(c) - a * T)) * (
            a * a * T * scaled(0) + 2.0 * a * scaled(1) + scaled(2) / T)
        assert tail_grad_sq(c, a, T) == pytest.approx(expected, rel=1e-12)


class TestExpn:
    """The scaled exponential integral against scipy.special.expn."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), x=st.floats(1.0, 720.0, exclude_min=True))
    @example(n=2, x=709.78)
    @example(n=1, x=1.0000000000000002)
    def test_continued_fraction_bit_equal(self, n, x):
        from scipy.special import expn as scipy_expn

        expected = scipy_expn(n, x)
        if x > 7.09782712893383996843e2:
            # past the log of the largest double cephes returns 0
            assert expected == 0.0
        else:
            assert _expn_fraction(n, x) * math.exp(-x) == expected

    @pytest.mark.parametrize("n, x", [(0, 0.5), (0, 30.0), (2, 0.5), (2, 1.0), (4, 3.0),
                                      (4, 700.0)])
    def test_scaled_is_exp_times_expn(self, n, x):
        # every tail argument is at least 2aT, far past 1
        from scipy.special import expn as scipy_expn

        if x <= 1.0:
            with pytest.raises(ValueError):
                _expn_scaled(n, x)
        else:
            assert _expn_scaled(n, x) == pytest.approx(math.exp(x) * scipy_expn(n, x),
                                                       rel=1e-14)


class TestRadialMoments:
    """The full-space integrals of ``functionals.evaluate``."""

    def setup_method(self):
        # spacing 0.005 on [0, 12]
        self.gaussian = evaluate(make_test_function(
            lambda r: np.exp(-r**2 / 2.0), lambda r: -r * np.exp(-r**2 / 2.0)))

    def test_gaussian_mass_3d(self):
        # int exp(-|x|^2) dx = pi^(3/2)
        assert self.gaussian.mass == pytest.approx(math.pi**1.5, rel=1e-12)

    def test_gaussian_grad_3d(self):
        # int |grad e^{-r^2/2}|^2 dx = (3/2) pi^(3/2)
        assert self.gaussian.grad_sq == pytest.approx(1.5 * math.pi**1.5, rel=1e-11)

    def test_tail_completes_truncated_integral(self):
        # start the grid away from the 1/r singularity of the tail form
        grid = np.linspace(1.0, 6.0, 1001)
        a, c = 1.0, 2.0
        vals = c * np.exp(-a * grid) / grid
        profile = RadialProfile(grid=grid, values=vals, derivs=-vals * (a + 1.0 / grid),
                                omega=None, tail_constant=c, kind=TEST_FUNCTION,
                                decay_rate=a)
        # int_1^inf (c e^{-r}/r)^2 r^2 dr = c^2 e^{-2}/2
        expected = 4.0 * math.pi * c * c * math.exp(-2.0) / 2.0
        assert evaluate(profile).mass == pytest.approx(expected, rel=1e-9)
