import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cqnls.quadrature import (exp_power_tail, radial_grad_sq, radial_moment,
                              simpson_uniform, tail_grad_sq, tail_moment)


class TestSimpsonUniform:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 11, 100, 101])
    def test_exact_on_cubics(self, n):
        h = 1.0 / n
        x = h * np.arange(n + 1)
        value = simpson_uniform(x**3 - 2 * x**2 + 5, h)
        assert value == pytest.approx(0.25 - 2.0 / 3.0 + 5.0, rel=1e-13)

    @settings(deadline=None)
    @given(n=st.integers(2, 400), length=st.floats(0.1, 10.0),
           coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
    def test_exact_on_cubics_any_node_count(self, n, length, coeffs):
        # n intervals: even counts use pure Simpson, odd ones the 3/8 closure
        h = length / n
        x = h * np.arange(n + 1)
        y = sum(c * x**k for k, c in enumerate(coeffs))
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
    def test_exp_power_tail_n0(self):
        assert exp_power_tail(2.0, 0, 3.0) == pytest.approx(
            math.exp(-6.0) / 2.0, rel=1e-13)

    def test_exp_power_tail_matches_quadrature(self):
        for n in (1, 2, 3):
            ref, _ = quad(lambda r, n=n: math.exp(-1.5 * r) / r**n, 2.0, np.inf)
            assert exp_power_tail(1.5, n, 2.0) == pytest.approx(ref, rel=1e-10)

    def test_exp_power_tail_rejects_nonpositive_decay(self):
        with pytest.raises(ValueError):
            exp_power_tail(0.0, 1, 1.0)

    def test_tail_moment_matches_quadrature(self):
        c, a, T = 0.7, 1.2, 4.0
        for power in (2, 4, 6):
            ref, _ = quad(lambda r: (c * math.exp(-a * r) / r)**power * r**2,
                          T, np.inf)
            assert tail_moment(c, a, T, power) == pytest.approx(ref, rel=1e-10)

    def test_tail_grad_sq_matches_quadrature(self):
        c, a, T = 0.7, 1.2, 4.0

        def du(r):
            return -c * math.exp(-a * r) * (a / r + 1.0 / r**2)

        ref, _ = quad(lambda r: du(r)**2 * r**2, T, np.inf)
        assert tail_grad_sq(c, a, T) == pytest.approx(ref, rel=1e-10)


class TestRadialMoments:
    def setup_method(self):
        self.grid = np.linspace(0.0, 12.0, 2401)
        self.vals = np.exp(-self.grid**2 / 2.0)
        self.ders = -self.grid * self.vals

    def test_gaussian_mass_3d(self):
        # int exp(-|x|^2) dx = pi^(3/2)
        assert radial_moment(self.grid, self.vals, 2, dim=3) == pytest.approx(
            math.pi**1.5, rel=1e-12)

    def test_gaussian_mass_1d(self):
        assert radial_moment(self.grid, self.vals, 2, dim=1) == pytest.approx(
            math.sqrt(math.pi), rel=1e-12)

    def test_gaussian_grad_3d(self):
        # int |grad e^{-r^2/2}|^2 dx = (3/2) pi^(3/2)
        assert radial_grad_sq(self.grid, self.ders, dim=3) == pytest.approx(
            1.5 * math.pi**1.5, rel=1e-11)

    def test_tail_completes_truncated_integral(self):
        # start the grid away from the 1/r singularity of the tail form
        grid = np.linspace(1.0, 6.0, 1001)
        a, c = 1.0, 2.0
        vals = c * np.exp(-a * grid) / grid
        full = radial_moment(grid, vals, 2, dim=3, tail_constant=c, decay_rate=a)
        # int_1^inf (c e^{-r}/r)^2 r^2 dr = c^2 e^{-2}/2
        expected = 4.0 * math.pi * c * c * math.exp(-2.0) / 2.0
        assert full == pytest.approx(expected, rel=1e-9)
