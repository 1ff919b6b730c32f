import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls import bvp, shooting
from cqnls.errors import BracketFailure, FrequencyOutOfWindow
from cqnls.functionals import evaluate
from cqnls.profiles import CUBIC_REFERENCE, GROUND_STATE, ShootingConfig
from cqnls.shooting import (TrajectoryClass, classify_trajectory,
                            force_upper_zero, hamiltonian_upper_root,
                            solve_cubic_reference, solve_ground_state)


class TestWindow:
    @pytest.mark.parametrize("omega", [0.0, -0.1, 3.0 / 16.0, 0.2])
    def test_rejects_outside_window(self, omega):
        with pytest.raises(FrequencyOutOfWindow):
            solve_ground_state(omega)

    def test_force_upper_zero_closed_form(self):
        omega = 0.09
        u2 = force_upper_zero(omega)
        assert omega - u2**2 + u2**4 == pytest.approx(0.0, abs=1e-15)

    def test_hamiltonian_root_above_force_zero(self):
        for omega in (0.01, 0.09, 0.18):
            assert hamiltonian_upper_root(omega) > force_upper_zero(omega)


class TestClassifyTrajectory:
    def test_small_amplitude_turns_upward(self):
        label = classify_trajectory(1e-3, 0.09)
        assert label is TrajectoryClass.TURNS_UPWARD

    def test_near_separatrix_crosses_zero(self):
        a = force_upper_zero(0.09) * (1.0 - 1e-13)
        label = classify_trajectory(a, 0.09)
        assert label is TrajectoryClass.CROSSES_ZERO

    def test_above_force_zero_turns_upward(self):
        # beyond the force zero the restoring force reverses sign at once
        a = force_upper_zero(0.09) * 1.05
        assert classify_trajectory(a, 0.09) is TrajectoryClass.TURNS_UPWARD

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            classify_trajectory(0.0, 0.09)


class TestGroundState:
    @pytest.mark.parametrize("omega", [0.01, 0.09, 0.15])
    def test_residuals_in_shooting_regime(self, omega, cfg):
        rep = evaluate(solve_ground_state(omega, cfg))
        assert rep.nehari_residual < 1e-9
        assert rep.pohozaev_residual < 1e-9

    @pytest.mark.parametrize("omega", [0.17, 0.185])
    def test_residuals_in_collocation_regime(self, omega, cfg):
        rep = evaluate(solve_ground_state(omega, cfg))
        assert rep.nehari_residual < 1e-7
        assert rep.pohozaev_residual < 1e-7

    def test_profile_positive_and_decreasing(self, ground_009):
        assert np.all(ground_009.values > 0.0)
        assert np.all(np.diff(ground_009.values) < 0.0)
        assert ground_009.kind == GROUND_STATE
        assert ground_009.decay_rate == pytest.approx(math.sqrt(0.09))

    def test_amplitude_below_separatrix(self, ground_009):
        assert 0.0 < ground_009.amplitude < force_upper_zero(0.09)

    def test_cache_returns_same_object(self, cfg):
        assert solve_ground_state(0.09, cfg) is solve_ground_state(0.09, cfg)

    def test_mass_continuous_across_solver_switch(self, cfg):
        # the shooting/collocation handoff must not kink the mass curve
        masses = [evaluate(solve_ground_state(om, cfg)).mass
                  for om in (0.150, 0.154, 0.158, 0.162)]
        gaps = np.diff(masses)
        assert np.all(gaps > 0.0)
        assert gaps[2] < 3.0 * gaps[0]


class TestCubicReference:
    def test_residuals(self, cubic_g):
        rep = evaluate(cubic_g)
        assert rep.nehari_residual < 1e-9
        assert rep.pohozaev_residual < 1e-9
        assert cubic_g.kind == CUBIC_REFERENCE

    def test_amplitude_matches_literature(self, cubic_g):
        # the cubic ground state has central amplitude ~4.3374
        assert cubic_g.amplitude == pytest.approx(4.3374, abs=2e-4)


def test_collocation_ladder_per_config(monkeypatch):
    # a second configuration above the switch builds its own ladder from
    # its own shooting solve instead of reusing the first one's rungs
    monkeypatch.setattr(bvp, "_ladder", {})
    monkeypatch.setattr(shooting, "_profile_cache", {})
    seeds = []
    real_solve = shooting._solve

    def spy(omega, cfg, quintic, **kwargs):
        seeds.append(cfg)
        return real_solve(omega, cfg, quintic, **kwargs)
    monkeypatch.setattr(shooting, "_solve", spy)
    default, loose = ShootingConfig(), ShootingConfig(ode_tolerance=1e-11)
    bvp.solve_collocation(0.156, default)
    bvp.solve_collocation(0.156, loose)
    assert seeds == [default, loose]


def _assert_same_profile(warm, cold):
    assert warm.amplitude == cold.amplitude
    assert np.array_equal(warm.values, cold.values)
    assert warm.tail_constant == cold.tail_constant


def _bisect(omega, cfg, prediction=None):
    radius = shooting.default_max_radius(omega)
    return shooting._bisect_amplitude(omega, cfg, True, radius, prediction)


@pytest.fixture(scope="module")
def cold_073(cfg):
    """Cold bisection bracket at omega = 0.073 and its midpoint."""
    bracket = _bisect(0.073, cfg)
    return bracket, 0.5 * (bracket[0] + bracket[1])


def test_collocation_bootstrap_caches_switch_profile(cfg, monkeypatch):
    # the ladder is seeded through the one ground-state entry point, so the
    # switch-point profile is cached and equals a cold shooting solve
    monkeypatch.setattr(bvp, "_ladder", {})
    monkeypatch.setattr(shooting, "_profile_cache", {})
    solve_ground_state(0.17, cfg)
    switch = shooting._profile_cache[(bvp.OMEGA_SHOOTING_MAX, cfg.fingerprint())]
    _assert_same_profile(switch, shooting._solve(bvp.OMEGA_SHOOTING_MAX, cfg, True))


class TestWarmStart:
    """Cached neighbours shorten the bisection and never change its result."""

    @staticmethod
    def _warm_and_cold(omega, cfg, neighbours, monkeypatch):
        monkeypatch.setattr(shooting, "_profile_cache", {})
        for neighbour in neighbours:
            solve_ground_state(neighbour, cfg)
        calls = []
        real_ivp = shooting.solve_ivp

        def counted(*args, **kwargs):
            calls.append(1)
            return real_ivp(*args, **kwargs)
        monkeypatch.setattr(shooting, "solve_ivp", counted)
        warm = solve_ground_state(omega, cfg)
        warm_calls = len(calls)
        cold = shooting._solve(omega, cfg, True)
        assert warm_calls < len(calls) - warm_calls
        return warm, cold

    @pytest.mark.parametrize("omega", [0.004, 0.073, 0.155])
    def test_matches_cold_solve(self, omega, cfg, monkeypatch):
        neighbours = (omega * (1.0 - 2e-4), omega * (1.0 - 1e-4))
        _assert_same_profile(*self._warm_and_cold(omega, cfg, neighbours, monkeypatch))

    def test_configured_bracket(self, monkeypatch):
        cfg = ShootingConfig(amplitude_bracket=(0.5, 0.95))
        _assert_same_profile(*self._warm_and_cold(0.073, cfg, (0.0729, 0.07295),
                                                  monkeypatch))

    @pytest.mark.parametrize("shift", [1e-4, -1e-4, 1e-9, -1e-9])
    def test_wrong_prediction_climbs(self, shift, cfg, cold_073):
        # the claimed error is far below the miss, so the first check fails
        bracket, a = cold_073
        assert _bisect(0.073, cfg, (a * (1.0 + shift), 1e-12 * a)) == bracket

    @pytest.mark.parametrize("a_pred", [-1.0, 1e-9, 5.0])
    def test_prediction_outside_bracket(self, a_pred, cfg, cold_073):
        bracket, _ = cold_073
        assert _bisect(0.073, cfg, (a_pred, 1e-6)) == bracket

    @pytest.mark.parametrize("bracket", [(0.5, 0.85), (0.5, 1.0)])
    def test_failing_bracket_still_raises(self, bracket, cfg, monkeypatch):
        # (0.5, 0.85) misses the root; (0.5, 1.0) holds it, but its upper end
        # lies past the force zero, where trajectories turn upward again
        bad = ShootingConfig(amplitude_bracket=bracket)
        monkeypatch.setattr(shooting, "_profile_cache", {})
        for neighbour in (0.0729, 0.07295):
            shooting._profile_cache[(neighbour, bad.fingerprint())] = \
                solve_ground_state(neighbour, cfg)
        assert shooting._predict_amplitude(0.073, bad) is not None
        with pytest.raises(BracketFailure):
            solve_ground_state(0.073, bad)


@settings(max_examples=6, deadline=None)
@given(omega=st.floats(0.004, 0.155), sign=st.sampled_from([-1.0, 1.0]),
       miss=st.floats(-16.0, -2.0), err=st.floats(-16.0, -2.0))
def test_any_prediction_gives_the_cold_bracket(omega, sign, miss, err):
    cfg = ShootingConfig()
    cold = _bisect(omega, cfg)
    a = 0.5 * (cold[0] + cold[1])
    prediction = (a * (1.0 + sign * 10.0**miss), a * 10.0**err)
    assert _bisect(omega, cfg, prediction) == cold
