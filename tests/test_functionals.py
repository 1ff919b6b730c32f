import math
from dataclasses import asdict

import numpy as np
import pytest

from cqnls.cli import RESIDUAL_GATE
from cqnls.functionals import evaluate, f_alpha
from cqnls.profiles import test_function_profile as make_test_function
from cqnls.shooting import solve_ground_state


def gaussian_profile(sigma=1.0, amp=1.0, r_max=14.0):
    return make_test_function(
        lambda r: amp * np.exp(-sigma * r**2),
        lambda r: -2.0 * sigma * amp * r * np.exp(-sigma * r**2),
        r_max=r_max, spacing=0.004)


class TestEvaluate:
    def test_gaussian_closed_forms(self):
        rep = evaluate(gaussian_profile())
        # int e^{-2 r^2} dx = (pi/2)^{3/2}; higher powers scale as p^{-3/2}
        assert rep.mass == pytest.approx((math.pi / 2.0) ** 1.5, rel=1e-12)
        assert rep.l4 == pytest.approx((math.pi / 4.0) ** 1.5, rel=1e-12)
        assert rep.l6 == pytest.approx((math.pi / 6.0) ** 1.5, rel=1e-12)
        assert rep.grad_sq == pytest.approx(3.0 * (math.pi / 2.0) ** 1.5, rel=1e-11)

    def test_energy_consistency(self):
        rep = evaluate(gaussian_profile())
        assert rep.energy == pytest.approx(
            0.5 * rep.grad_sq - 0.25 * rep.l4 + rep.l6 / 6.0, rel=1e-14)
        assert rep.pohozaev == pytest.approx(
            rep.grad_sq + rep.l6 - 0.75 * rep.l4, rel=1e-14)
        assert rep.beta == pytest.approx(rep.l6 / rep.grad_sq, rel=1e-14)

    def test_residuals_only_for_solutions(self):
        rep = evaluate(gaussian_profile())
        assert math.isnan(rep.nehari_residual)

    def test_finite_near_the_upper_endpoint(self):
        # the tail constant at 0.186 is 3.7e56, past the sixth root of the
        # largest double (2.4e51)
        rep = evaluate(solve_ground_state(0.186))
        assert all(math.isfinite(value) for value in asdict(rep).values())
        assert max(rep.nehari_residual, rep.pohozaev_residual) < 1e-9

    def test_within_the_gate_at_the_depth_limit(self):
        # the tail constant at 0.186966 is 1.7e155: its square alone
        # overflows, and e^{-2aT} alone is subnormal (2aT = 719)
        rep = evaluate(solve_ground_state(0.186966))
        assert all(math.isfinite(value) for value in asdict(rep).values())
        assert max(rep.nehari_residual, rep.pohozaev_residual) < RESIDUAL_GATE


class TestFAlpha:
    def test_amplitude_invariance(self):
        base = f_alpha(gaussian_profile(amp=1.0), 1.0)
        scaled = f_alpha(gaussian_profile(amp=3.7), 1.0)
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_dilation_invariance(self):
        base = f_alpha(gaussian_profile(sigma=1.0), 0.5)
        dilated = f_alpha(gaussian_profile(sigma=4.0, r_max=10.0), 0.5)
        assert dilated == pytest.approx(base, rel=1e-9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            f_alpha(gaussian_profile(), 0.0)
