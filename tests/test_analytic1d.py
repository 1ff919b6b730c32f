import math

import numpy as np
import pytest

from cqnls.analytic1d import (soliton_1d, soliton_1d_derivative,
                              soliton_profile_1d, validate_quadrature_1d)
from cqnls.errors import FrequencyOutOfWindow


class TestClosedForm:
    def test_window_enforced(self):
        for omega in (0.0, 3.0 / 16.0, 0.5):
            with pytest.raises(FrequencyOutOfWindow):
                soliton_1d(omega, 0.0)

    def test_endpoint_limit_amplitude(self):
        # as omega -> 3/16 the central value approaches sqrt(3)/2
        value = soliton_1d(3.0 / 16.0 - 1e-12, 0.0)
        assert value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-5)

    def test_even_symmetry(self):
        x = np.linspace(0.0, 10.0, 101)
        assert np.allclose(soliton_1d(0.1, x), soliton_1d(0.1, -x), rtol=1e-15)

    def test_decreasing_for_positive_x(self):
        x = np.linspace(0.0, 20.0, 2001)
        assert np.all(np.diff(soliton_1d(0.08, x)) < 0.0)

    def test_derivative_matches_finite_differences(self):
        x = np.linspace(-5.0, 5.0, 41)
        h = 1e-6
        fd = (soliton_1d(0.1, x + h) - soliton_1d(0.1, x - h)) / (2.0 * h)
        assert np.allclose(soliton_1d_derivative(0.1, x), fd, atol=1e-9)

    @pytest.mark.parametrize("omega", [0.02, 0.1, 0.18])
    def test_ode_residual(self, omega):
        # -phi'' + omega phi - phi^3 + phi^5 = 0 by high-order differences
        x = np.linspace(-8.0, 8.0, 33)
        h = 1e-3
        stencil = (-soliton_1d(omega, x - 2 * h) + 16 * soliton_1d(omega, x - h)
                   - 30 * soliton_1d(omega, x) + 16 * soliton_1d(omega, x + h)
                   - soliton_1d(omega, x + 2 * h)) / (12.0 * h * h)
        phi = soliton_1d(omega, x)
        residual = -stencil + omega * phi - phi**3 + phi**5
        assert np.max(np.abs(residual)) < 1e-8


class TestQuadratureValidation:
    @pytest.mark.parametrize("omega", [0.05, 0.1])
    def test_integrals_match_reference(self, omega):
        report = validate_quadrature_1d(omega)
        for key in ("l2_sq", "l4_4", "l6_6", "grad_sq"):
            assert report[key]["rel_error"] < 1e-10

    @pytest.mark.parametrize("omega", [0.05, 0.1, 0.18])
    def test_closed_forms_match_adaptive_quadrature(self, omega):
        # the exact references against scipy's quad of the closed-form
        # soliton over the sampled half-line, doubled
        from scipy.integrate import quad

        upper = float(soliton_profile_1d(omega).grid[-1])
        report = validate_quadrature_1d(omega)
        for key, integrand in (("l2_sq", lambda x: soliton_1d(omega, x) ** 2),
                               ("l4_4", lambda x: soliton_1d(omega, x) ** 4),
                               ("l6_6", lambda x: soliton_1d(omega, x) ** 6),
                               ("grad_sq", lambda x: soliton_1d_derivative(omega, x) ** 2)):
            ref, _ = quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-13, limit=400)
            assert report[key]["reference"] == pytest.approx(2.0 * ref, rel=1e-12)

    def test_nehari_identity_1d(self):
        assert validate_quadrature_1d(0.1)["nehari_residual"] < 1e-9

    def test_integrals_continuous_in_omega(self):
        masses = [validate_quadrature_1d(om)["l2_sq"]["quadrature"]
                  for om in np.linspace(0.05, 0.07, 5)]
        gaps = np.abs(np.diff(masses))
        assert np.all(gaps < 0.2 * np.abs(masses[0]))

    def test_profile_grid_even_interval_count(self):
        profile = soliton_profile_1d(0.1)
        assert profile.grid.size % 2 == 1
