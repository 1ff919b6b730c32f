import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.curves import FrequencyCurve
from cqnls.errors import AlphaOutOfRange, KindMismatch, ToleranceNotMet
from cqnls.functionals import evaluate, f_alpha
from cqnls.geometry import (c_alpha, q_alpha, random_test_functions,
                            rescale_energy_factor, rescale_mass_factor,
                            rescale_soliton)
from cqnls.shooting import ODE_TOLERANCE, solve_ground_state


class TestRescaleSoliton:
    def test_lands_on_normalization(self, ground_009):
        rep_r = evaluate(rescale_soliton(ground_009))
        assert rep_r.beta == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep_r.pohozaev == pytest.approx(0.0, abs=1e-8 * rep_r.grad_sq)

    @settings(max_examples=6, deadline=None)
    @given(omega=st.floats(0.01, 0.15))
    def test_lands_on_normalization_across_window(self, omega):
        # criterion 01's residual tolerance, on the rescale of any P_omega
        rep_r = evaluate(rescale_soliton(solve_ground_state(omega)))
        assert rep_r.beta == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep_r.pohozaev_residual < 1e-7

    def test_factors_match_quadrature(self, ground_009):
        rep = evaluate(ground_009)
        rep_r = evaluate(rescale_soliton(ground_009))
        assert rep_r.mass == pytest.approx(
            rescale_mass_factor(rep.beta) * rep.mass, rel=1e-10)
        assert rep_r.energy == pytest.approx(
            rescale_energy_factor(rep.beta) * rep.grad_sq, rel=1e-10)

    def test_mass_factor_peaks_at_third(self):
        # the rescale is the identity exactly on the beta = 1/3 state
        betas = np.linspace(0.05, 3.0, 200)
        factors = [rescale_mass_factor(b) for b in betas]
        assert rescale_mass_factor(1.0 / 3.0) == pytest.approx(1.0, abs=1e-14)
        assert max(factors) <= 1.0 + 1e-12

    def test_rejects_test_functions(self):
        funcs = random_test_functions(1)
        with pytest.raises(KindMismatch):
            rescale_soliton(funcs[0])


class TestQCAlpha:
    def test_q_alpha_hits_target_beta(self, curve):
        q = q_alpha(0.5, curve)
        assert evaluate(q).beta == pytest.approx(0.5, abs=1e-8)

    def test_minimizer_attains_quotient(self, curve):
        q = q_alpha(1.0, curve)
        c = c_alpha(1.0, q)
        assert f_alpha(q, 1.0) * c == pytest.approx(1.0, abs=1e-8)

    def test_non_minimizer_raises_typed_error(self, ground_009):
        # beta(0.09) is not 1/2, so P_0.09 does not attain the F_1/2 infimum
        with pytest.raises(ToleranceNotMet, match="does not attain"):
            c_alpha(0.5, ground_009)

    def test_rejects_unreachable_alpha(self, curve):
        with pytest.raises(AlphaOutOfRange):
            q_alpha(1e5, curve)
        with pytest.raises(AlphaOutOfRange):
            q_alpha(-1.0, curve)
        # a curve without points brackets nothing
        with pytest.raises(AlphaOutOfRange):
            q_alpha(0.5, FrequencyCurve(points=(), ode_tolerance=ODE_TOLERANCE))


class TestRandomTestFunctions:
    def test_deterministic_and_positive(self):
        a = random_test_functions(5, seed=3)
        b = random_test_functions(5, seed=3)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.values, pb.values)
            assert np.all(pa.values > 0.0)

    def test_quotient_bound_on_sample(self, curve):
        q = q_alpha(1.0, curve)
        bound = 1.0 / c_alpha(1.0, q)
        for u in random_test_functions(10, seed=11):
            assert f_alpha(u, 1.0) >= bound - 1e-9
