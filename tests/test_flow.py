"""Mass-projected gradient flow: the independent oracle for the toolkit.

The frozen numbers below were produced by this flow (lagged-potential
implicit descent, fourth-order pentadiagonal Laplacian, r_max = 45,
spacing = 0.01) and are used both as regression anchors and as the
cross-check that the shooting/collocation pipeline lands on the same
branch states.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls import flow
from cqnls.errors import FlowDiverged
from cqnls.flow import (TIME_STEP, _apply_banded, _derivative, _multiplier, _solve_shifted,
                        laplacian_banded, mass_projected_flow)
from cqnls.functionals import evaluate
from cqnls.landscape import certify_e_min_by_flow
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
        err = np.max(np.abs(_apply_banded(ab, w) - exact)[: n // 2])
        assert err < 1e-7  # fourth order at h = 0.01

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 400), h=st.floats(0.005, 0.2), scale=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**32 - 1))
    def test_every_flow_step_matrix_is_positive_definite(self, n, h, scale, seed):
        # on the odd extension the stencil's symbol
        # 4 (1 - cos t)(7 - cos t) / (12 h^2) is nonnegative, and
        # 1/TIME_STEP + u^4 - u^2 >= 1/4 for every real u: banded Cholesky
        # takes any step matrix, u^2 = 1/2 (the least shift) among them
        rng = np.random.default_rng(seed)
        u = scale * rng.standard_normal(n)
        u[rng.integers(n)] = math.sqrt(0.5)
        shift = 1.0 / TIME_STEP + (u**4 - u**2)
        x = _solve_shifted(laplacian_banded(n, h), shift, rng.standard_normal(n))
        assert np.all(np.isfinite(x))


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
        result = mass_projected_flow(mass, r_max=45.0, seed_width=4.0)
        mu_ref, energy_ref = FLOW_ANCHORS[mass]
        assert result.converged
        assert result.gradient_norm < 1e-9
        assert result.mass == pytest.approx(mass, rel=1e-12)
        assert result.multiplier == pytest.approx(mu_ref, abs=1e-8)
        assert result.energy == pytest.approx(energy_ref, rel=1e-7)

    def test_cross_check_against_solver_branch(self):
        # the flow multiplier is a frequency; the ODE solver at that
        # frequency must reproduce the prescribed mass and energy
        mu_ref, energy_ref = FLOW_ANCHORS[300.0]
        rep = evaluate(solve_ground_state(mu_ref))
        assert rep.mass == pytest.approx(300.0, rel=1e-4)
        assert rep.energy == pytest.approx(energy_ref, rel=1e-4)

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_a_mass_that_is_not_finite_and_positive(self, mass):
        # a non-finite mass would reach the banded solve and fail there
        for flow in (mass_projected_flow, certify_e_min_by_flow):
            with pytest.raises(ValueError, match="mass must be finite and positive"):
                flow(mass)

    @pytest.mark.parametrize("info, solution, message", [
        (1, 0.0, "singular flow step"),
        (0, math.nan, "non-finite iterates"),
    ])
    def test_a_failed_step_diverges(self, monkeypatch, info, solution, message):
        # a singular step matrix, or one whose solve is not finite, ends the
        # flow with its own error, not a LAPACK or input-check one
        def fails(ab, b, lower, overwrite_ab):
            return ab, np.full_like(b, solution), info
        monkeypatch.setattr(flow, "dpbsv", fails)
        with pytest.raises(FlowDiverged, match=message):
            mass_projected_flow(300.0)

    def test_seed_independence(self):
        a = mass_projected_flow(300.0, seed_width=2.0, r_max=45.0)
        b = mass_projected_flow(300.0, seed_width=8.0, r_max=45.0)
        assert a.energy == pytest.approx(b.energy, rel=1e-8)
        assert a.multiplier == pytest.approx(b.multiplier, abs=1e-8)


def _substituted(values, spacing):
    """The flow's Laplacian, w = r u and u^2 for a profile sampled on the
    uniform grid from r = 0."""
    n = values.size - 1
    r = spacing * np.arange(1, n + 1)
    w = r * values[1:]
    return laplacian_banded(n, spacing), w, (w * w) / (r * r)


class TestProjectedGradient:
    """Solver profiles against the flow's discrete first-order conditions:
    the multiplier mu and the relative norm of the projected gradient,
    without running the flow."""

    def test_certifies_solver_ground_state(self):
        profile = solve_ground_state(0.09)
        grid = np.arange(0.0, 85.0 + 1e-9, 0.01)
        lap, w, u_sq = _substituted(profile.interpolate(grid), 0.01)
        mu, resid = _multiplier(lap, w, u_sq)
        assert mu == pytest.approx(0.09, abs=1e-6)
        assert np.linalg.norm(resid) / np.linalg.norm(w) < 1e-6

    def test_certifies_cubic_reference(self):
        # the cubic state is a saddle of the constrained flow (its mass is
        # supercritical), so it is certified by the first-order conditions
        # of -w'' + w u^2 = mu w rather than by running the flow
        profile = solve_cubic_reference()
        grid = np.arange(0.0, 24.0 + 1e-9, 0.02)
        lap, w, u_sq = _substituted(profile.interpolate(grid), 0.02)
        force = -_apply_banded(lap, w) + w * u_sq
        mu = np.dot(force, w) / np.dot(w, w)
        assert mu == pytest.approx(1.0, abs=1e-5)
        assert np.linalg.norm(force - mu * w) / np.linalg.norm(w) < 1e-4
