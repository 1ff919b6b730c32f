import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqnls import bvp, shooting
from cqnls.curves import default_omega_grid
from cqnls.errors import BracketFailure, CqnlsError, FrequencyOutOfWindow
from cqnls.functionals import evaluate
from cqnls.profiles import CUBIC_REFERENCE, GROUND_STATE, ShootingConfig
from cqnls.shooting import (OMEGA_SHOOTING_MAX, TrajectoryClass,
                            classify_trajectory, force_upper_zero,
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
    def test_residuals_in_plateau_regime(self, omega, cfg):
        rep = evaluate(solve_ground_state(omega, cfg))
        assert rep.nehari_residual < 1e-9
        assert rep.pohozaev_residual < 1e-9

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
        # the switch from amplitude to plateau shooting must not kink the
        # mass curve
        masses = [evaluate(solve_ground_state(om, cfg)).mass
                  for om in (0.150, 0.154, 0.158, 0.162)]
        gaps = np.diff(masses)
        assert np.all(gaps > 0.0)
        assert gaps[2] < 3.0 * gaps[0]


def _identity_errors(omega, rep):
    """Criterion 01's residuals and closed-form errors of one report."""
    energy_formula = (1.0 - rep.beta) / 6.0 * rep.grad_sq
    mass_formula = (rep.beta + 1.0) / (3.0 * omega) * rep.grad_sq
    return (rep.nehari_residual, rep.pohozaev_residual,
            abs(rep.energy - energy_formula) / abs(energy_formula),
            abs(rep.mass - mass_formula) / mass_formula)


def test_tail_fit_retries_shallow_half():
    # at ode_tolerance 1e-8 the trajectory turns upward soon after the
    # matching window and bends its deep end, while its shallow half still
    # fits the decay law
    omega = 0.15417194583513705
    profile = solve_ground_state(omega, ShootingConfig(ode_tolerance=1e-8))
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7


@pytest.mark.parametrize("spacing", [0.01, 0.02])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("omega", [0.004, 0.073, 0.154, 0.155, 0.16, 0.185])
def test_configuration_matrix(omega, tol, spacing):
    # either a solve that passes criterion 01's gate, or a typed error
    cfg = ShootingConfig(ode_tolerance=tol, grid_spacing=spacing)
    try:
        rep = evaluate(solve_ground_state(omega, cfg))
    except CqnlsError:
        return
    assert max(_identity_errors(omega, rep)) < 1e-7


class TestPlateau:
    """Shooting on s = ln(eps) above OMEGA_SHOOTING_MAX."""

    def test_agrees_with_collocation(self, cfg):
        grid = default_omega_grid(60, 0.004, 0.185)
        for omega in [*grid[grid > OMEGA_SHOOTING_MAX], 0.185]:
            shot = evaluate(solve_ground_state(omega, cfg))
            oracle = evaluate(bvp.solve_collocation(omega, cfg))
            for name in ("mass", "energy", "beta", "grad_sq"):
                assert getattr(shot, name) == pytest.approx(getattr(oracle, name),
                                                            rel=1e-9), (omega, name)
            d_shot = shot.energy + 0.5 * omega * shot.mass
            d_oracle = oracle.energy + 0.5 * omega * oracle.mass
            assert d_shot == pytest.approx(d_oracle, rel=1e-9), omega

    def test_independent_of_solve_order(self, cfg, monkeypatch):
        monkeypatch.setattr(shooting, "_profile_cache", {})
        fresh = solve_ground_state(0.18, cfg)
        monkeypatch.setattr(shooting, "_profile_cache", {})
        for omega in (0.16, 0.17, 0.175, 0.185):
            solve_ground_state(omega, cfg)
        later = solve_ground_state(0.18, cfg)
        assert later is not fresh
        _assert_same_profile(later, fresh)
        assert np.array_equal(later.derivs, fresh.derivs)
        assert later.truncation_radius == fresh.truncation_radius

    def test_linear_start_matches_through_plateau(self, cfg):
        # the oracle integrates the deviation through the whole plateau from
        # the Taylor start (delta = 0); the linear start's own error is
        # about its deviation delta, so delta = 1e-8 shows in the depth
        omega = 0.18
        radius = shooting.default_max_radius(omega)

        def depth(delta=None):
            shot = shooting._PlateauShot(omega, cfg, radius)
            if delta is not None:
                shot.delta = delta
            return shot.solve()[0]

        oracle = depth(0.0)
        assert abs(depth() - oracle) < 1e-10
        assert abs(depth(1e-8) - oracle) > 1e-8

    def test_amplitude_at_force_zero(self, cfg):
        # above about 0.18 the gap eps is below one ulp of u+
        profile = solve_ground_state(0.185, cfg)
        assert profile.amplitude == force_upper_zero(0.185)
        assert profile.values[0] == profile.amplitude
        assert np.all(np.diff(profile.values) <= 0.0)


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
    bvp.solve_collocation(0.17, cfg)
    switch = shooting._profile_cache[(bvp.OMEGA_SHOOTING_MAX, cfg.fingerprint())]
    _assert_same_profile(switch, shooting._solve(bvp.OMEGA_SHOOTING_MAX, cfg, True))


@settings(max_examples=200, deadline=None)
@given(coefs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       degree=st.integers(0, 3),
       offsets=st.lists(st.integers(0, 6), min_size=4, max_size=4, unique=True),
       omega0=st.floats(0.004, 0.15), h=st.floats(1e-3, 1e-2),
       t=st.floats(0.0, 6.0))
def test_newton_predict_is_exact_on_cubics(coefs, degree, offsets, omega0, h, t):
    coefs = coefs[:degree + 1]

    def poly(omega):
        x = (omega - omega0) / h
        return sum(c * x**k for k, c in enumerate(coefs))

    omega = omega0 + h * t
    value, err = shooting._newton_predict(
        omega, [(omega0 + h * k, poly(omega0 + h * k)) for k in offsets])
    # the largest value the polynomial can take on the node span; divided
    # differences over nodes h apart on a span of 6h amplify rounding by
    # up to 6^3, so "exact" means within 1e-12 of it (2.7e-14 seen)
    scale = sum(abs(c) * 6.0**k for k, c in enumerate(coefs)) + 1e-300
    assert abs(value - poly(omega)) <= 1e-12 * scale
    if degree < 3:
        # the last Newton term, a third divided difference, is rounding
        assert err <= 1e-12 * scale


class TestWarmStart:
    """Cached neighbours shorten the bisection and never change its result."""

    @staticmethod
    def _warm_and_cold(omega, cfg, neighbours, monkeypatch):
        monkeypatch.setattr(shooting, "_profile_cache", {})
        for neighbour in neighbours:
            solve_ground_state(neighbour, cfg)
        # count trajectory classifications: both solves make one dense pass
        calls = []
        real_classify = shooting._dop853_classify

        def counted(*args, **kwargs):
            calls.append(1)
            return real_classify(*args, **kwargs)
        monkeypatch.setattr(shooting, "_dop853_classify", counted)
        warm = solve_ground_state(omega, cfg)
        warm_calls = len(calls)
        cold = shooting._solve(omega, cfg, True)
        assert warm_calls < len(calls) - warm_calls
        return warm, cold

    @pytest.mark.parametrize("omega", [0.004, 0.073, 0.155, 0.16, 0.185])
    def test_matches_cold_solve(self, omega, cfg, monkeypatch):
        neighbours = (omega * (1.0 - 2e-4), omega * (1.0 - 1e-4))
        _assert_same_profile(*self._warm_and_cold(omega, cfg, neighbours, monkeypatch))

    def test_configured_bracket(self, cfg, cold_073):
        # a bracket other than the default: the replay steers through its
        # own tree and lands on its own cold bracket
        classify = functools.partial(classify_trajectory, omega=0.073, cfg=cfg)
        cold = shooting._bisect(classify, 0.5, 0.95, cfg.bisection_tolerance)
        _, a = cold_073
        for err in (1e-12 * a, 1e-6):
            assert shooting._bisect(classify, 0.5, 0.95, cfg.bisection_tolerance,
                                    (a, err)) == cold

    @pytest.mark.parametrize("shift", [1e-4, -1e-4, 1e-9, -1e-9])
    def test_wrong_prediction_climbs(self, shift, cfg, cold_073):
        # the claimed error is far below the miss, so the first check fails
        bracket, a = cold_073
        assert _bisect(0.073, cfg, (a * (1.0 + shift), 1e-12 * a)) == bracket

    @pytest.mark.parametrize("a_pred", [-1.0, 1e-9, 5.0])
    def test_prediction_outside_bracket(self, a_pred, cfg, cold_073):
        bracket, _ = cold_073
        assert _bisect(0.073, cfg, (a_pred, 1e-6)) == bracket

    @pytest.mark.parametrize("bracket", [(0.5, 0.85), (0.9, 0.95)])
    def test_failing_bracket_still_raises(self, bracket, cfg, cold_073):
        # both brackets miss the root (about 0.8805), one from each side; a
        # prediction at the root must not hide that
        classify = functools.partial(classify_trajectory, omega=0.073, cfg=cfg)
        _, a = cold_073
        with pytest.raises(BracketFailure):
            shooting._bisect(classify, *bracket, cfg.bisection_tolerance, (a, 1e-6))


@settings(max_examples=6, deadline=None)
@given(omega=st.floats(0.004, 0.155), sign=st.sampled_from([-1.0, 1.0]),
       miss=st.floats(-16.0, -2.0), err=st.floats(-16.0, -2.0))
def test_any_prediction_gives_the_cold_bracket(omega, sign, miss, err):
    cfg = ShootingConfig()
    cold = _bisect(omega, cfg)
    a = 0.5 * (cold[0] + cold[1])
    prediction = (a * (1.0 + sign * 10.0**miss), a * 10.0**err)
    assert _bisect(omega, cfg, prediction) == cold


@settings(max_examples=4, deadline=None)
@given(omega=st.floats(0.156, 0.185), sign=st.sampled_from([-1.0, 1.0]),
       miss=st.floats(-16.0, -2.0), err=st.floats(-16.0, -2.0))
def test_any_depth_prediction_gives_the_cold_bracket(omega, sign, miss, err):
    cfg = ShootingConfig()
    shot = shooting._PlateauShot(omega, cfg, shooting.default_max_radius(omega))
    bracket = (-math.log(shot.p - 1e-6), shooting._MAX_LOG_DEPTH,
               cfg.bisection_tolerance)
    cold = shooting._bisect(shot.classify, *bracket, relative=True)
    x = 0.5 * (cold[0] + cold[1])
    prediction = (x * (1.0 + sign * 10.0**miss), x * 10.0**err)
    assert shooting._bisect(shot.classify, *bracket, prediction, relative=True) == cold


def _solve_ivp_class(a, omega, cfg, quintic, max_radius):
    label, _, sol = shooting._integrate(a, omega, cfg, quintic, max_radius)
    return label, sol.t.size - 1


@settings(max_examples=8, deadline=None)
@given(omega=st.floats(0.004, 0.155), sign=st.sampled_from([-1.0, 1.0]),
       log_offset=st.floats(-9.0, math.log10(0.3)),
       tol=st.sampled_from([1e-8, 1e-10, 1e-12]),
       quintic=st.just(True), max_radius=st.just(None))
@example(omega=0.004, sign=-1.0, log_offset=-9.0, tol=1e-12, quintic=True, max_radius=None)
@example(omega=0.004, sign=1.0, log_offset=-6.0, tol=1e-8, quintic=True, max_radius=None)
@example(omega=0.155, sign=-1.0, log_offset=-9.0, tol=1e-12, quintic=True, max_radius=None)
@example(omega=0.155, sign=-1.0, log_offset=-2.0, tol=1e-10, quintic=True, max_radius=None)
@example(omega=1.0, sign=1.0, log_offset=-9.0, tol=1e-12, quintic=False, max_radius=None)
@example(omega=1.0, sign=-1.0, log_offset=-4.0, tol=1e-8, quintic=False, max_radius=None)
@example(omega=0.073, sign=1.0, log_offset=-9.0, tol=1e-12, quintic=True, max_radius=2.0)
def test_float_stepper_matches_solve_ivp(omega, sign, log_offset, tol, quintic, max_radius):
    # the same class as solve_ivp, near and far from the root amplitude, and
    # the same accepted DOP853 steps up to one: at these tolerances the step
    # sizes follow the rounding of the error estimate, which numpy's dot
    # products (fused multiply-adds) round differently, so on about 0.1 % of
    # samples the event falls one step earlier or later
    cfg = ShootingConfig(ode_tolerance=tol)
    radius = max_radius or shooting.default_max_radius(omega)
    root = 0.5 * sum(shooting._bisect_amplitude(omega, cfg, quintic,
                                                shooting.default_max_radius(omega)))
    a = root * (1.0 + sign * 10.0**log_offset)
    assume(a < force_upper_zero(omega, quintic))
    label, steps = shooting._dop853_classify(a, omega, cfg, quintic, radius)
    label_ivp, steps_ivp = _solve_ivp_class(a, omega, cfg, quintic, radius)
    assert label is label_ivp
    assert abs(steps - steps_ivp) <= 1
    if max_radius is not None:
        # too short to leave the plateau near the root
        assert label is TrajectoryClass.UNDETERMINED


def test_both_events_in_one_step_defer_to_solve_ivp(cfg, monkeypatch):
    # a step that changes the sign of both events is decided by the root
    # order on solve_ivp's dense output
    omega, a = 0.073, 0.88
    real_step = shooting._dop853_step

    def both_fire(rhs, r, u, up, fu, fp, h):
        _, _, ku, kp = real_step(rhs, r, u, up, fu, fp, h)
        return -a, a, ku, kp
    monkeypatch.setattr(shooting, "_dop853_step", both_fire)
    calls = []
    real_integrate = shooting._integrate

    def spy(*args, **kwargs):
        calls.append(kwargs.get("dense", False))
        return real_integrate(*args, **kwargs)
    monkeypatch.setattr(shooting, "_integrate", spy)
    radius = shooting.default_max_radius(omega)
    result = shooting._dop853_classify(a, omega, cfg, True, radius)
    assert calls == [False]
    monkeypatch.setattr(shooting, "_integrate", real_integrate)
    assert result == _solve_ivp_class(a, omega, cfg, True, radius)
