"""Mass-projected gradient flow: the independent oracle for the toolkit.

The frozen numbers below were produced by this flow (lagged-potential
implicit descent, fourth-order pentadiagonal Laplacian, r_max = 45,
spacing = 0.01) and are used both as regression anchors and as the
cross-check that the shooting/collocation pipeline lands on the same
branch states.
"""

import numpy as np
import pytest

from cqnls.flow import (_derivative, laplacian_banded, mass_projected_flow,
                        projected_gradient)
from cqnls.functionals import evaluate
from cqnls.shooting import solve_cubic_reference, solve_ground_state

# frozen flow-oracle outputs: mass -> (multiplier, energy)
FLOW_ANCHORS = {
    260.0: (0.0600148706, -0.5617433293),
    300.0: (0.0684875894, -1.8508990681),
    480.0: (0.0903341616, -9.1266188798),
}


class TestLaplacianBanded:
    def test_consistency_on_smooth_odd_function(self):
        # w = r e^{-r^2} is odd through the origin, as required
        h = 0.01
        n = 1000
        r = h * np.arange(1, n + 1)
        w = r * np.exp(-r**2)
        exact = -(4.0 * r**3 - 6.0 * r) * np.exp(-r**2)  # -w''
        ab = laplacian_banded(n, h)
        from cqnls.flow import _apply_banded
        err = np.max(np.abs(_apply_banded(ab, w) - exact)[: n // 2])
        assert err < 1e-7  # fourth order at h = 0.01


def test_derivative_matches_loop_reference():
    # the vectorised stencil keeps the per-node arithmetic of this loop
    rng = np.random.default_rng(7)
    w, h = rng.standard_normal(301), 0.01
    n = w.size
    full = np.concatenate(([0.0], w))
    ext = np.concatenate((-full[2:0:-1], full))
    expected = np.empty(n + 1)
    for k in range(n - 1):
        i = k + 2
        expected[k] = (8.0 * (ext[i + 1] - ext[i - 1])
                       - (ext[i + 2] - ext[i - 2])) / (12.0 * h)
    expected[n - 1] = (full[n] - full[n - 2]) / (2.0 * h)
    expected[n] = (full[n] - full[n - 1]) / h
    d0, d = _derivative(w, h)
    assert np.array_equal(d, expected) and d0 == expected[0]


class TestFlowConvergence:
    @pytest.mark.parametrize("mass", sorted(FLOW_ANCHORS))
    def test_frozen_anchor(self, mass):
        result = mass_projected_flow(mass, r_max=45.0, spacing=0.01,
                                     seed_width=4.0)
        mu_ref, energy_ref = FLOW_ANCHORS[mass]
        assert result.converged
        assert result.gradient_norm < 1e-9
        assert result.mass == pytest.approx(mass, rel=1e-12)
        assert result.multiplier == pytest.approx(mu_ref, abs=1e-8)
        assert result.energy == pytest.approx(energy_ref, rel=1e-7)

    def test_cross_check_against_solver_branch(self, cfg):
        # the flow multiplier is a frequency; the ODE solver at that
        # frequency must reproduce the prescribed mass and energy
        mu_ref, energy_ref = FLOW_ANCHORS[300.0]
        rep = evaluate(solve_ground_state(mu_ref, cfg))
        assert rep.mass == pytest.approx(300.0, rel=1e-4)
        assert rep.energy == pytest.approx(energy_ref, rel=1e-4)

    def test_seed_independence(self):
        a = mass_projected_flow(300.0, seed_width=2.0, r_max=45.0)
        b = mass_projected_flow(300.0, seed_width=8.0, r_max=45.0)
        assert a.energy == pytest.approx(b.energy, rel=1e-8)
        assert a.multiplier == pytest.approx(b.multiplier, abs=1e-8)


class TestProjectedGradient:
    def test_certifies_solver_ground_state(self, cfg):
        profile = solve_ground_state(0.09, cfg)
        grid = np.arange(0.0, 85.0 + 1e-9, 0.01)
        mu, gnorm = projected_gradient(profile.interpolate(grid), 0.01)
        assert mu == pytest.approx(0.09, abs=1e-6)
        assert gnorm < 1e-6

    def test_certifies_cubic_reference(self, cfg):
        # the cubic state is a saddle of the constrained flow (its mass is
        # supercritical), so it is certified by the first-order conditions
        # rather than by running the flow
        profile = solve_cubic_reference(cfg)
        grid = np.arange(0.0, 24.0 + 1e-9, 0.02)
        mu, gnorm = projected_gradient(profile.interpolate(grid), 0.02,
                                       quintic=False)
        assert mu == pytest.approx(1.0, abs=1e-5)
        assert gnorm < 1e-4
