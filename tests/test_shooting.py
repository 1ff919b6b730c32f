import functools
import math
import os
import runpy
import subprocess
import sys
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqnls import bvp, depth_table, shooting
from cqnls.errors import BracketFailure, FrequencyOutOfWindow
from cqnls.functionals import evaluate
from cqnls.profiles import CUBIC_REFERENCE, GROUND_STATE
from cqnls.shooting import (TrajectoryClass, force_upper_zero,
                            solve_cubic_reference, solve_ground_state)

#: where the plateau regime starts, for the tests that split there: the
#: frequency from which ``bvp.solve_collocation``'s ladder once took over
#: from shooting (``bvp.OMEGA_SHOOTING_MAX``)
PLATEAU_START = 0.155

#: bvp.solve_collocation's values at the upper nodes of the 60-node
#: default grid on [0.004, 0.185] as it was at 044af8d, and at 0.185; they
#: are frequencies like any other, and need not be the grid's nodes now
COLLOCATION_ORACLE = Path(__file__).resolve().parent / "data" / "collocation_oracle.csv"


class TestWindow:
    @pytest.mark.parametrize("omega", [0.0, -0.1, 3.0 / 16.0, 0.2])
    def test_rejects_outside_window(self, omega):
        with pytest.raises(FrequencyOutOfWindow):
            solve_ground_state(omega)

    def test_force_upper_zero_closed_form(self):
        omega = 0.09
        u2 = force_upper_zero(omega)
        assert omega - u2**2 + u2**4 == pytest.approx(0.0, abs=1e-15)


class TestTolerance:
    def test_rejects_bad_tolerance(self):
        for tol in (math.nan, math.inf, -1e-12, 0.0, 1e-4, 1e-3, 0.1, 2.0):
            for solve in (functools.partial(solve_ground_state, 0.09, tol),
                          functools.partial(solve_cubic_reference, tol)):
                with pytest.raises(ValueError, match="ode_tolerance"):
                    solve()

    def test_default_and_loose_tolerances_accepted(self):
        assert shooting.ODE_TOLERANCE == 1e-12
        assert shooting.MAX_ODE_TOLERANCE == 1e-5
        for tol in (shooting.ODE_TOLERANCE, 1e-8, shooting.MAX_ODE_TOLERANCE):
            shooting.check_tolerance(tol)


class TestGroundState:
    @pytest.mark.parametrize("omega", [0.01, 0.09, 0.15])
    def test_residuals_in_shooting_regime(self, omega):
        rep = evaluate(solve_ground_state(omega))
        assert rep.nehari_residual < 1e-9
        assert rep.pohozaev_residual < 1e-9

    @pytest.mark.parametrize("omega", [0.17, 0.185])
    def test_residuals_in_plateau_regime(self, omega):
        rep = evaluate(solve_ground_state(omega))
        assert rep.nehari_residual < 1e-9
        assert rep.pohozaev_residual < 1e-9

    def test_profile_positive_and_decreasing(self, ground_009):
        assert np.all(ground_009.values > 0.0)
        assert np.all(np.diff(ground_009.values) < 0.0)
        assert ground_009.kind == GROUND_STATE
        assert ground_009.decay_rate == pytest.approx(math.sqrt(0.09))

    def test_amplitude_below_separatrix(self, ground_009):
        assert 0.0 < ground_009.amplitude < force_upper_zero(0.09)

    def test_cache_returns_same_object(self):
        assert solve_ground_state(0.09) is solve_ground_state(0.09)

    def test_mass_continuous_across_solver_switch(self):
        # the mass curve has no kink across 0.155, where the collocation
        # ladder starts
        masses = [evaluate(solve_ground_state(om)).mass
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


@pytest.mark.parametrize("spacing", [shooting.GRID_SPACING])
@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("omega", [0.004, 0.073, 0.154, 0.155, 0.16, 0.185])
def test_configuration_matrix(omega, tol, spacing):
    # every tolerance solves the window's edges and both sides of 0.155,
    # where the collocation ladder starts, within criterion 01's gate, on
    # the one grid spacing
    profile = solve_ground_state(omega, tol)
    assert profile.spacing == pytest.approx(spacing, rel=1e-12)
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7


#: plateau frequencies whose profiles at 1e-8 fitted their tails on a
#: leading quarter of the matching window while their dense pass left the
#: plateau from a switch state that no residual run had seen; sampled on
#: the run of their root, they fit the whole window
_LOOSE_PLATEAU = (0.16839416768298837, 0.17639191892263195, 0.18010405197739462,
                  0.18104179063366335)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(omega=st.floats(0.004, 0.185), tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
@example(omega=_LOOSE_PLATEAU[0], tol=1e-8)
@example(omega=_LOOSE_PLATEAU[1], tol=1e-8)
@example(omega=_LOOSE_PLATEAU[2], tol=1e-8)
@example(omega=_LOOSE_PLATEAU[3], tol=1e-8)
@example(omega=0.1297550200803213, tol=1e-8)
def test_window_solves_within_the_gate(omega, tol):
    # criterion 01's gate across the window at every tolerance, with the
    # four examples of ``_LOOSE_PLATEAU`` at 1e-8 and one that the amplitude
    # shot missed (Nehari 1.6e-7; 1.1e-10 on the depth)
    profile = solve_ground_state(omega, tol)
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7


def test_loose_plateau_profile_within_the_gate():
    # about 3 % of the plateau range missed the gate at 1e-8 (Nehari 8.2e-7
    # here) while its dense q pass ran at 1e-8: the step ends were accurate
    # to 1e-9, the interpolant between the long plateau steps was not.
    # Every q run, residual, class or dense, now runs at 1e-10 or tighter
    # (Nehari 2.0e-10)
    omega = 0.16970101197014903
    profile = solve_ground_state(omega, 1e-8)
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7


@pytest.mark.parametrize("omega, tol", [(0.1668273092369478, 1e-8),
                                        (0.18427309236947792, 1e-10),
                                        (0.15417194583513705, 1e-8)])
def test_profile_fits_the_whole_window(omega, tol):
    # sampled on the run whose root the secant found, a profile follows the
    # decay law over the whole matching window: it runs to the window's end
    # (the first node below its lower level, or the node before), its tail
    # constant is the mean over all of it, and it meets criterion 01's gate.
    # A plateau profile sampled off that run fitted 0.1668 on a leading
    # quarter and 0.1843 on a half (whole-window mismatch 0.11 and 2.7e-3);
    # the amplitude shot at 0.15417 turned upward just past the window and
    # fitted on its shallow half
    profile = solve_ground_state(omega, tol)
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7
    a, (w_lo, w_hi) = profile.amplitude, shooting.MATCHING_WINDOW
    assert profile.values[-1] < 1.1 * w_lo * a
    start = np.flatnonzero(profile.values < w_hi * a)[0]
    rw = profile.grid[start:]
    zw = profile.values[start:] * rw * np.exp(math.sqrt(omega) * rw)
    c = float(np.mean(zw))
    assert profile.tail_constant == pytest.approx(c, rel=1e-15)
    assert np.max(np.abs(zw - c)) / c <= shooting.TAIL_TOL


@pytest.mark.parametrize("omega", [0.1869, 0.186966])
def test_depth_limit_solves_at_1e_8(omega):
    # the plateau run at 1e-8 turned within 2 % past the front, and the
    # profile sampled off it had not decayed below the matching window
    # (DomainTooSmall); on its root's own run it meets criterion 01's gate
    profile = solve_ground_state(omega, 1e-8)
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7


@pytest.mark.parametrize("omega", [0.17, 0.185])
def test_loose_plateau_solves_at_1e_5(omega):
    # these raised DomainTooSmall (tail fit mismatch 6.5e-3 and 1.9e-3)
    rep = evaluate(solve_ground_state(omega, 1e-5))
    assert max(rep.nehari_residual, rep.pohozaev_residual) < 10.0 * 1e-5


def test_profile_does_not_follow_the_stop_radius(ground_009):
    # the run's stop radius is set by rounding; past the end of the matching
    # window it changes nothing in the profile
    a = ground_009.amplitude
    segments = []
    _, _, r_stop = _run_of_u(a, 0.09, shooting.ODE_TOLERANCE, True,
                             shooting.default_max_radius(0.09), segments=segments)
    trajectory = shooting._DenseTrajectory(segments)

    def sample(grid):
        return trajectory(np.maximum(grid, shooting.TAYLOR_START_STEP))
    profiles = [shooting._matched_profile(sample, a, 0.09, True, stop, math.inf)
                for stop in (r_stop, 1.25 * r_stop)]
    assert profiles[0].truncation_radius < 0.98 * r_stop
    _assert_identical_profiles(*profiles)
    # nor past the node after the first step that ends below the window:
    # sampled only to there, a ground state's profile is the whole grid's
    for omega in (0.01, 0.09, 0.185):
        for tol in TOLERANCES:
            build = shooting._dense_pass(shooting._DepthShot(omega, tol),
                                         _ground_root(omega, tol))[1]
            pass_sample, *args, r_level = build.args
            sizes = []

            def counted(grid, pass_sample=pass_sample):
                sizes.append(grid.size)
                return pass_sample(grid)
            trimmed = shooting._matched_profile(counted, *args, r_level)
            whole = shooting._matched_profile(counted, *args, math.inf)
            # one sample to the window's end, one of the whole grid
            assert len(sizes) == 2 and sizes[0] < sizes[1], (omega, tol)
            _assert_identical_profiles(trimmed, whole)
    # where no node up to r_level is below the window the whole grid is
    # sampled after them
    whole_size = sizes[1]
    sizes.clear()
    _assert_identical_profiles(shooting._matched_profile(counted, *args, 1.0), whole)
    assert sizes == [round(1.0 / shooting.GRID_SPACING) + 2, whole_size]


def _assert_identical_profiles(p, q):
    for name in ("grid", "values", "derivs"):
        assert np.array_equal(getattr(p, name), getattr(q, name))
    assert p.tail_constant == q.tail_constant


class TestPlateau:
    """Depth shooting above PLATEAU_START, where the plateau forms."""

    def test_agrees_with_collocation(self):
        # the collocation oracle's values are stored: re-running
        # bvp.solve_collocation at these nodes took seconds
        lines = [line for line in COLLOCATION_ORACLE.read_text().splitlines()
                 if not line.startswith("#")]
        names = lines[0].split(",")
        assert names == ["omega", "mass", "energy", "beta", "grad_sq", "d"]
        for line in lines[1:]:
            oracle = dict(zip(names, map(float, line.split(","))))
            omega = oracle["omega"]
            shot = evaluate(solve_ground_state(omega))
            for name in ("mass", "energy", "beta", "grad_sq"):
                assert getattr(shot, name) == pytest.approx(oracle[name],
                                                            rel=1e-9), (omega, name)
            d_shot = shot.energy + 0.5 * omega * shot.mass
            assert d_shot == pytest.approx(oracle["d"], rel=1e-9), omega

    def test_independent_of_solve_order(self, monkeypatch):
        monkeypatch.setattr(shooting, "_profile_cache", {})
        fresh = solve_ground_state(0.18)
        monkeypatch.setattr(shooting, "_profile_cache", {})
        for omega in (0.16, 0.17, 0.175, 0.185):
            solve_ground_state(omega)
        later = solve_ground_state(0.18)
        assert later is not fresh
        _assert_same_profile(later, fresh)
        assert np.array_equal(later.derivs, fresh.derivs)
        assert later.truncation_radius == fresh.truncation_radius

    def test_linear_start_matches_through_plateau(self):
        # the oracle integrates the deviation through the whole plateau from
        # the Taylor start (delta = 0); the linear start's own error is
        # about its deviation delta, so delta = 1e-8 shows in the depth
        omega = 0.18

        def depth(delta=None):
            shot = shooting._DepthShot(omega, shooting.ODE_TOLERANCE)
            if delta is not None:
                shot.delta = delta
            return shooting._root(shot, shooting._predict(omega))[0]

        oracle = depth(0.0)
        assert abs(depth() - oracle) < 1e-10
        assert abs(depth(1e-8) - oracle) > 1e-8

    def test_amplitude_at_force_zero(self):
        # above about 0.18 the gap eps is below one ulp of u+
        profile = solve_ground_state(0.185)
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

    def spy(omega, ode_tolerance, quintic, **kwargs):
        seeds.append(ode_tolerance)
        return real_solve(omega, ode_tolerance, quintic, **kwargs)
    monkeypatch.setattr(shooting, "_solve", spy)
    default, loose = shooting.ODE_TOLERANCE, 1e-11
    bvp.solve_collocation(0.156, default)
    bvp.solve_collocation(0.156, loose)
    assert seeds == [default, loose]


def _assert_same_profile(warm, cold):
    assert warm.amplitude == cold.amplitude
    assert np.array_equal(warm.values, cold.values)
    assert warm.tail_constant == cold.tail_constant


def test_collocation_bootstrap_caches_switch_profile(monkeypatch):
    # the ladder is seeded through the one ground-state entry point, so the
    # switch-point profile is cached and equals a shooting solve
    monkeypatch.setattr(bvp, "_ladder", {})
    monkeypatch.setattr(shooting, "_profile_cache", {})
    bvp.solve_collocation(0.17)
    tol = shooting.ODE_TOLERANCE
    switch = shooting._profile_cache[(bvp.OMEGA_SHOOTING_MAX, tol)]
    _assert_same_profile(switch, shooting._solve(bvp.OMEGA_SHOOTING_MAX, tol, True))


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
    value = shooting._newton_predict(
        omega, [(omega0 + h * k, poly(omega0 + h * k)) for k in offsets])
    # the largest value the polynomial can take on the node span; divided
    # differences over nodes h apart on a span of 6h amplify rounding by
    # up to 6^3, so "exact" means within 1e-12 of it (2.7e-14 seen)
    scale = sum(abs(c) * 6.0**k for k, c in enumerate(coefs)) + 1e-300
    assert abs(value - poly(omega)) <= 1e-12 * scale


TOLERANCES = [1e-8, 1e-10, 1e-12]


def _shot(omega, tol, quintic=True):
    """The shot ``shooting._solve`` makes, and the start it takes."""
    if not quintic:
        return shooting._AmplitudeShot(1.0, tol), depth_table.CUBIC_AMPLITUDE
    return shooting._DepthShot(omega, tol), shooting._predict(omega)


def _run_of_u(a, omega, tol, quintic, radius, start=None, segments=None):
    """``shooting._shoot`` on the problem of the shot ``shooting._solve``
    makes (the ground state's or the cubic reference's) from ``start``, by
    default the Taylor start of amplitude ``a``."""
    shot = (shooting._DepthShot(omega, tol) if quintic
            else shooting._AmplitudeShot(omega, tol))
    if start is None:
        h0 = shooting.TAYLOR_START_STEP
        start = (h0, *shooting._taylor_start(a, h0, omega, quintic))
    return shooting._shoot(shot, a, start, radius, segments)


def _ground_root(omega, tol, quintic=True):
    """The ground state's shooting parameter as ``shooting._solve`` finds it:
    the depth -ln(u+ - u(0)), or the cubic reference's amplitude."""
    return shooting._parameter(*_shot(omega, tol, quintic))[0]


def _ground_amplitude(omega, tol, quintic=True):
    """The central amplitude of ``_ground_root``'s ground state."""
    if not quintic:
        return _ground_root(omega, tol, False)
    return force_upper_zero(omega) - math.exp(-_ground_root(omega, tol))


#: largest relative distance of two roots of the matching residual from
#: different starts: the runs at two parameters 1e-12 apart can take
#: different step sequences, and the residual jumps there by up to about
#: 1e-12 of the root (9.2e-13 at omega = 0.18 and 1e-12, 1.3e-12 at 1e-8; the
#: worst of 2200 draws)
START_SPREAD = 2e-12


#: relative width of the bracket of the classes that a root found from any
#: start must lie in
CLASS_BRACKET = 1e-9


def _assert_any_start_gives_the_class_bracket(omega, tol, sign, log_offset):
    # a start off the table's prediction lands on the same root, inside
    # the bracket of the classes bisected to ``CLASS_BRACKET``.
    # Derandomized, so that a failing draw cannot slip in and out
    shot, start = _shot(omega, tol)
    root = shooting._parameter(shot, start)[0]
    moved = shooting._parameter(shot, root * (1.0 + sign * 10.0**log_offset))[0]
    assert moved == pytest.approx(root, rel=START_SPREAD, abs=0.0)
    lo, hi = shooting._bisect(shot, CLASS_BRACKET)
    assert lo <= moved <= hi


#: at 1e-8 a start 1.7e-12 (relative, in the depth) below the root met a
#: jump of the amplitude shot's residual, where its secant did not settle
#: within its steps
_JUMP = (0.12967610279981695, 1e-8, -1.0, math.log10(1.7e-12))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(omega=st.floats(0.004, PLATEAU_START), tol=st.sampled_from(TOLERANCES),
       sign=st.sampled_from([-1.0, 1.0]), log_offset=st.floats(-12.0, -8.0))
@example(omega=0.155, tol=1e-12, sign=-1.0, log_offset=-8.0)
@example(*_JUMP)
def test_any_prediction_gives_the_class_bracket(omega, tol, sign, log_offset):
    _assert_any_start_gives_the_class_bracket(omega, tol, sign, log_offset)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(omega=st.floats(0.1551, 0.185), tol=st.sampled_from(TOLERANCES),
       sign=st.sampled_from([-1.0, 1.0]), log_offset=st.floats(-12.0, -8.0))
@example(omega=0.185, tol=1e-8, sign=-1.0, log_offset=-8.0)
def test_any_depth_prediction_gives_the_class_bracket(omega, tol, sign, log_offset):
    _assert_any_start_gives_the_class_bracket(omega, tol, sign, log_offset)


def _marches(monkeypatch):
    """The list that gets one entry per ``_march`` run: "residual" for a
    run of u of the matching residual (one that stops at the matching
    level or has its events off), "u" for any other run of u (a class's
    run or the dense pass) and "q" for a run of the plateau's q."""
    runs, real_march = [], shooting._march

    def counted(problem, params, *args, **kwargs):
        if problem is shooting._PLATEAU:
            runs.append("q")
        else:
            runs.append("residual" if params[3] != -math.inf or params[1] == math.inf else "u")
        return real_march(problem, params, *args, **kwargs)
    monkeypatch.setattr(shooting, "_march", counted)
    return runs


def test_few_residual_marches_per_solve(monkeypatch):
    # from the table's prediction the secant takes two steps, rarely three:
    # at most four runs of the residual.  The root's dense pass and one
    # probe check it: two runs of u more, each with its run of q above the
    # switch.  A solve whose secant meets a jump of the residual bisects
    # the classes instead; on the depth none of 1000 frequencies over the
    # window does at these tolerances
    runs = _marches(monkeypatch)
    bisected = []
    for tol in TOLERANCES:
        for omega, quintic in [*((float(w), True) for w in np.linspace(0.004, 0.185, 37)),
                               (1.0, False)]:
            runs.clear()
            shot, start = _shot(omega, tol, quintic)
            try:
                shooting._root(shot, start)
            except BracketFailure:
                bisected.append((omega, tol))
            else:
                assert runs.count("u") == 2, (omega, tol)
                assert runs.count("q") in (0, len(runs) - runs.count("q")), (omega, tol)
            assert runs.count("residual") <= 4, (omega, tol)
    assert len(bisected) <= 1 and all(tol == 1e-8 for _, tol in bisected), bisected


def _amplitude_bracket(lo, hi, omega=0.073):
    """The depth shot at omega with its bracket set to the depths of the
    amplitudes lo and hi."""
    shot = shooting._DepthShot(omega, shooting.ODE_TOLERANCE)
    shot.bracket = (-math.log(shot.p - lo), -math.log(shot.p - hi))
    return shot


class TestWarmStart:
    """A solve does not depend on what came before it, and a start or a
    bracket that misses the root raises."""

    @pytest.mark.parametrize("omega", [0.004, 0.073, 0.155, 0.16, 0.185])
    def test_matches_cold_solve(self, omega, monkeypatch):
        # no cache feeds a solve's start, so solving neighbours first
        # changes nothing in the profile
        monkeypatch.setattr(shooting, "_profile_cache", {})
        cold = solve_ground_state(omega)
        monkeypatch.setattr(shooting, "_profile_cache", {})
        for neighbour in (omega * (1.0 - 2e-4), omega * (1.0 - 1e-4)):
            solve_ground_state(neighbour)
        warm = solve_ground_state(omega)
        assert warm is not cold
        for name in ("grid", "values", "derivs"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))
        assert warm.tail_constant == cold.tail_constant

    def test_configured_bracket(self):
        # a bracket of amplitudes other than the default bisects to the
        # amplitude of the secant's root
        shot = _amplitude_bracket(0.5, 0.95)
        lo, hi = shooting._bisect(shot, shooting.BISECTION_TOLERANCE)
        assert shot.p - math.exp(-0.5 * (lo + hi)) == pytest.approx(
            _ground_amplitude(0.073, shooting.ODE_TOLERANCE), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("quintic, a_pred", [(True, -1.0), (True, 1e-9), (False, 0.5)],
                             ids=["-1.0", "1e-09", "cubic-0.5"])
    def test_prediction_outside_bracket(self, quintic, a_pred):
        # from a start outside the bracket no run falls to the matching
        # level: a depth whose amplitude is negative or tiny, or a cubic
        # amplitude whose force pushes away from zero
        if quintic:
            shot = shooting._DepthShot(0.073, shooting.ODE_TOLERANCE)
            start = -math.log(shot.p - a_pred)
        else:
            shot, start = shooting._AmplitudeShot(1.0, shooting.ODE_TOLERANCE), a_pred
        assert not shot.bracket[0] <= start <= shot.bracket[1]
        with pytest.raises(BracketFailure, match="does not fall"):
            shooting._root(shot, start)

    @pytest.mark.parametrize("bracket", [(0.5, 0.85), (0.9, 0.95)])
    def test_failing_bracket_still_raises(self, bracket):
        # both brackets miss the root (about 0.8805), one from each side
        with pytest.raises(BracketFailure):
            shooting._bisect(_amplitude_bracket(*bracket), shooting.BISECTION_TOLERANCE)


@pytest.mark.parametrize("omega", [0.09, 0.17])
def test_root_off_the_dichotomy_raises(omega, monkeypatch):
    # a secant root 1e-9 off (relative) classifies on one side only: above
    # the root its dense pass crosses zero and the probe below it does too,
    # below the root both turn upward.  The solve then takes the midpoint
    # of the bisected classes, with the profile of its dense pass
    real_secant, real_classify = shooting._secant, shooting._classify_at
    probes = []
    monkeypatch.setattr(shooting, "_classify_at",
                        lambda shot, x: probes.append(x) or real_classify(shot, x))
    shot, start = _shot(omega, shooting.ODE_TOLERANCE)
    lo, hi = shooting._bisect(shot, shooting.BISECTION_TOLERANCE)
    for shift in (1e-9, -1e-9):
        monkeypatch.setattr(shooting, "_secant",
                            lambda shot, x0, shift=shift: real_secant(shot, x0) * (1.0 + shift))
        probes.clear()
        with pytest.raises(BracketFailure, match="not bracketed"):
            shooting._root(shot, start)
        x = real_secant(shot, start) * (1.0 + shift)
        assert probes == [x * (1.0 - math.copysign(shooting._PROBE, shift))]
        root, profile = shooting._parameter(shot, start)
        assert root == 0.5 * (lo + hi)
        _assert_same_profile(profile, shooting._dense_pass(shot, root)[1]())


@settings(max_examples=10, deadline=None, derandomize=True)
@given(omega=st.floats(0.004, 0.185), tol=st.sampled_from(TOLERANCES))
def test_accepted_root_passes_both_probes(omega, tol):
    # the check classifies the root's dense pass and one probe beside it;
    # every root it accepts also has the old check's two probes on either
    # side, the one below turning upward and the one above crossing zero
    shot, start = _shot(omega, tol)
    try:
        root = shooting._root(shot, start)[0]
    except BracketFailure:
        return
    assert [shooting._classify_at(shot, root * (1.0 + sign * shooting._PROBE))
            for sign in (-1.0, 1.0)] == [TrajectoryClass.TURNS_UPWARD,
                                         TrajectoryClass.CROSSES_ZERO]


def test_undetermined_pass_classifies_both_probes(monkeypatch):
    # where the root's dense pass has no class, both probes check the root
    real_pass, real_classify = shooting._dense_pass, shooting._classify_at
    monkeypatch.setattr(shooting, "_dense_pass", lambda shot, x: (
        TrajectoryClass.UNDETERMINED, real_pass(shot, x)[1]))
    probes = []
    monkeypatch.setattr(shooting, "_classify_at",
                        lambda shot, x: probes.append(x) or real_classify(shot, x))
    shot, start = _shot(0.09, shooting.ODE_TOLERANCE)
    root, profile = shooting._root(shot, start)
    assert probes == [root * (1.0 - shooting._PROBE), root * (1.0 + shooting._PROBE)]
    _assert_identical_profiles(profile, real_pass(shot, root)[1]())


@pytest.mark.parametrize("omega, tol", [(0.1, 1e-5), (0.16, 1e-6), (0.1869, 1e-10)])
def test_secant_failure_bisects_the_classes(omega, tol, monkeypatch):
    # where the residual's rounding reaches the secant's stop or the check's
    # probes (loose tolerances, the depth limit; 0.1869 is the table's last
    # node) the classes are bisected, and the solve keeps Nehari and
    # Pohozaev within ten tolerances
    monkeypatch.setattr(shooting, "_profile_cache", {})
    shot, start = shooting._DepthShot(omega, tol), shooting._predict(omega)
    with pytest.raises(BracketFailure):
        shooting._root(shot, start)
    rep = evaluate(solve_ground_state(omega, tol))
    assert max(rep.nehari_residual, rep.pohozaev_residual) < 10.0 * tol


def test_start_that_turns_before_the_matching_level():
    # at 1e-8 a start 1e-7 (relative, in the depth) below the root turns
    # upward before its run falls to the matching level; the classes are
    # then bisected.  The table's prediction lies within 7.2e-9 of the root
    omega, tol = 0.12967610279981695, 1e-8
    shot, start = _shot(omega, tol)
    root = shooting._parameter(shot, start)[0]
    far = root * (1.0 - 1e-7)
    with pytest.raises(BracketFailure, match="does not fall"):
        shooting._root(shot, far)
    assert shooting._parameter(shot, far)[0] == pytest.approx(root, rel=START_SPREAD, abs=0.0)


def test_secant_that_does_not_settle_raises(monkeypatch):
    # a residual with no root: the steps never come below the stop
    real_march = shooting._march

    def shifted(problem, params, *args, **kwargs):
        event, steps, r, u, up = real_march(problem, params, *args, **kwargs)
        if problem is shooting._AMPLITUDE and params[1] == math.inf:
            u = abs(u) + 1.0
        return event, steps, r, u, up
    monkeypatch.setattr(shooting, "_march", shifted)
    with pytest.raises(BracketFailure):
        shooting._root(*_shot(0.09, shooting.ODE_TOLERANCE))


@pytest.mark.parametrize("omega", [0.002, 0.003])
def test_cold_start_below_the_table(omega, monkeypatch):
    # below the table's span the classes are bisected, and the profile
    # meets criterion 01's gate
    monkeypatch.setattr(shooting, "_profile_cache", {})
    assert shooting._predict(omega) is None
    profile = solve_ground_state(omega)
    assert max(_identity_errors(omega, evaluate(profile))) < 1e-7


class TestDepthTable:
    """The stored depth table starts every solve inside its span."""

    @staticmethod
    def _short_and_cold(omega, quintic, monkeypatch):
        # the table's start takes five runs of u, three of the residual
        # and two that check the root, each with its run of q above the
        # switch, and lands on the root of the solve with no start, which
        # bisects the classes
        runs = _marches(monkeypatch)
        shot, start = _shot(omega, shooting.ODE_TOLERANCE, quintic)
        seeded = shooting._root(shot, start)[0]
        assert len(runs) - runs.count("q") <= 5
        assert runs.count("q") <= 5
        cold = shooting._parameter(shot, None)[0]
        assert cold == pytest.approx(seeded, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("omega", [0.004, 0.073, 0.15, 0.16, 0.185])
    def test_seeded_solve_is_short_and_cold(self, omega, monkeypatch):
        self._short_and_cold(omega, True, monkeypatch)

    def test_seeded_cubic_reference(self, monkeypatch):
        self._short_and_cold(1.0, False, monkeypatch)

    def test_table_is_current(self):
        # a solver change that moves the roots must regenerate the table
        # (scripts/make_depth_table.py) rather than slow every solve
        script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts"
                                    / "make_depth_table.py"))
        stored = depth_table.GROUND_DEPTHS
        assert depth_table.ODE_TOLERANCE == shooting.ODE_TOLERANCE
        assert [omega for omega, _ in stored] == script["nodes"]()
        # the nodes nearest a small, a mid and a plateau frequency
        for target in (0.0035, 0.07, 0.18):
            omega, depth = min(stored, key=lambda node: abs(node[0] - target))
            assert script["cold_depth"](omega) == depth
        assert script["cubic_amplitude"]() == depth_table.CUBIC_AMPLITUDE

    @pytest.mark.parametrize("target", [0.0035, 0.07, 0.18])
    def test_solve_without_a_start_returns_the_row(self, target, monkeypatch):
        # a solve with no start from the table takes the bisection that
        # made its rows: at the nodes nearest a small, a mid and a plateau
        # frequency it returns the stored depth bit for bit
        monkeypatch.setattr(shooting, "_profile_cache", {})
        monkeypatch.setattr(shooting, "_predict", lambda omega: None)
        omega, depth = min(depth_table.GROUND_DEPTHS, key=lambda node: abs(node[0] - target))
        assert (solve_ground_state(omega).amplitude
                == force_upper_zero(omega) - math.exp(-depth))

    def test_cubic_reference_without_a_start_returns_the_row(self, monkeypatch):
        monkeypatch.setattr(shooting, "_profile_cache", {})
        amplitude = depth_table.CUBIC_AMPLITUDE
        monkeypatch.setattr(depth_table, "CUBIC_AMPLITUDE", None)
        assert solve_cubic_reference().amplitude == amplitude

    def test_past_the_depth_limit(self):
        with pytest.raises(BracketFailure, match="deeper than the depth limit"):
            solve_ground_state(0.1872)


def test_solve_above_the_table_bisects_once(monkeypatch):
    # above the table's span a solve bisects the classes once, with no
    # secant or second bisection ahead of it: the bracket's two ends, 47
    # halvings and the root's dense pass take 98 runs of q and u
    monkeypatch.setattr(shooting, "_profile_cache", {})
    runs = _marches(monkeypatch)
    assert shooting._predict(0.18692) is None
    solve_ground_state(0.18692)
    assert len(runs) <= 100


def test_cold_solve_runs_without_the_depth_table():
    # scripts/make_depth_table.py regenerates the table by bisection, so a
    # table that fails to import must not stop it: only the solves read it
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_depth_table.py"
    code = ("import runpy, sys; sys.modules['cqnls.depth_table'] = None\n"
            f"print(repr(runpy.run_path({str(script)!r})['cold_depth'](0.09)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == runpy.run_path(str(script))["cold_depth"](0.09)


def test_tableau_is_scipys():
    # read from the source file at first use, without importing
    # scipy.integrate
    from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

    tableau = shooting._dop853_tableau()
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER", "B", "C",
                 "E3", "E5", "D"):
        assert np.array_equal(tableau[name], getattr(scipy_tableau, name)), name
    # row s of A holds the s coefficients of stage s
    assert tableau["A"] == tuple(tuple(row[:s]) for s, row in enumerate(scipy_tableau.A))
    assert tableau["D"] == tuple(map(tuple, scipy_tableau.D))


@functools.cache
def _generic_kernel():
    """DOP853's step, error norm and dense output as stage loops over
    scipy's tableau, each weighted sum a ``total(map(mul, ...))``: the
    reference of the straight-line march that ``shooting._marcher``
    generates.  ``total`` is ``sum`` as Python 3.11 adds floats, left to
    right from 0; from 3.12 ``sum`` compensates its rounding."""
    from scipy.integrate._ivp import dop853_coefficients as t

    n = t.N_STAGES
    a = [tuple(map(float, t.A[s, :s])) for s in range(t.N_STAGES_EXTENDED)]
    c, b, e3, e5 = (tuple(map(float, v)) for v in (t.C, t.B, t.E3, t.E5))
    d = [tuple(map(float, row)) for row in t.D]

    def total(terms):
        return functools.reduce(add, terms, 0)

    def stage(rhs, r, u, up, h, ku, kp, s):
        g_u, g_p = rhs(r + c[s] * h, u + total(map(mul, ku, a[s])) * h,
                       up + total(map(mul, kp, a[s])) * h)
        ku.append(g_u)
        kp.append(g_p)

    def step(rhs, r, u, up, fu, fp, h):
        ku, kp = [fu], [fp]
        for s in range(1, n):
            stage(rhs, r, u, up, h, ku, kp, s)
        u_new = u + h * total(map(mul, ku, b))
        up_new = up + h * total(map(mul, kp, b))
        g_u, g_p = rhs(r + h, u_new, up_new)
        return u_new, up_new, ku + [g_u], kp + [g_p]

    def error_norm(ku, kp, h, scale_u, scale_p):
        e5u, e5p = total(map(mul, ku, e5)) / scale_u, total(map(mul, kp, e5)) / scale_p
        e3u, e3p = total(map(mul, ku, e3)) / scale_u, total(map(mul, kp, e3)) / scale_p
        e5_sq, e3_sq = e5u * e5u + e5p * e5p, e3u * e3u + e3p * e3p
        if e5_sq == 0.0 and e3_sq == 0.0:
            return 0.0
        return abs(h) * e5_sq / math.sqrt((e5_sq + 0.01 * e3_sq) * 2.0)

    def dense_segment(rhs, r, u, up, r_new, u_new, up_new, ku, kp):
        h, ku, kp = r_new - r, list(ku), list(kp)
        for s in range(n + 1, t.N_STAGES_EXTENDED):
            stage(rhs, r, u, up, h, ku, kp, s)
        rows = []
        for y, y_new, k in ((u, u_new, ku), (up, up_new, kp)):
            dy = y_new - y
            rows.append((dy, h * k[0] - dy, 2 * dy - h * (k[n] + k[0]),
                         *(h * total(map(mul, k, row)) for row in d)))
        return shooting._Segment(r, r_new, u, up, *rows)

    return step, error_norm, dense_segment


def _callback_march(rhs, r, u, up, r_end, rtol, events, directions, atol=None,
                    first_step=None, segments=None):
    """The DOP853 run as ``shooting._march`` made it before the march was
    generated per right-hand side: the step loop calling ``rhs`` and
    ``events`` back, on the stage loops of ``_generic_kernel``, with the
    march's one stop rule (the end of the step in which an event fires)."""
    atol = rtol * 1e-2 if atol is None else atol
    step, error_norm, dense_segment = _generic_kernel()
    steps = 0
    if not r < r_end:
        return None, steps, r, u, up
    fu, fp = rhs(r, u, up)
    h_abs = (shooting._initial_step(rhs, r, u, up, fu, fp, r_end - r, rtol, atol)
             if first_step is None else min(first_step, r_end - r))
    values = events(r, u, up)
    while r < r_end:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return None, steps, r, u, up
            r_new = min(r + h_abs, r_end)
            h = r_new - r
            u_new, up_new, ku, kp = step(rhs, r, u, up, fu, fp, h)
            error = error_norm(ku, kp, h, atol + max(abs(u), abs(u_new)) * rtol,
                               atol + max(abs(up), abs(up_new)) * rtol)
            if error < 1.0:
                factor = (shooting._MAX_FACTOR if error == 0.0
                          else min(shooting._MAX_FACTOR,
                                   shooting._SAFETY * error ** shooting._ERROR_EXPONENT))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(shooting._MIN_FACTOR,
                            shooting._SAFETY * error ** shooting._ERROR_EXPONENT)
            rejected = True
        steps += 1
        if segments is not None:
            segments.append(dense_segment(rhs, r, u, up, r_new, u_new, up_new, ku, kp))
        new = events(r_new, u_new, up_new)
        fired = [k for k, d in enumerate(directions) if d * values[k] <= 0.0 <= d * new[k]]
        if len(fired) > 1:
            fired[0] = shooting._first_event(
                events, fired, dense_segment(rhs, r, u, up, r_new, u_new, up_new, ku, kp))
        r, u, up, fu, fp = r_new, u_new, up_new, ku[-1], kp[-1]
        if fired:
            # the end of the step, with or without segments
            return fired[0], steps, r, u, up
        values = new
    return None, steps, r, u, up


def _callbacks(kind, omega, depth, a, match):
    """The right-hand side and events of a production run as callbacks,
    written as ``_shoot`` and ``_DepthShot`` wrote them before the march
    was generated from their text, with their directions, and the
    ``shooting`` problem and params that generate the same run."""
    if kind == "plateau":
        shot = shooting._DepthShot(omega, 1e-12)
        kappa, c2, c3, c4, v_switch = shot.kappa, shot.c2, shot.c3, shot.c4, shot.v_switch

        def rhs(r, q, qp):
            v = math.exp(min(kappa * r - depth, 50.0)) * q / r
            return qp, -2.0 * kappa * qp - q * v * (c2 + v * (c3 + v * (c4 - v)))

        def events(r, q, qp):
            return (math.exp(kappa * r - depth) * q / r - v_switch,)
        return rhs, events, (1.0,), shooting._PLATEAU, shot._params(depth)
    quintic = kind == "quintic"
    cross_eps, turn_eps = shooting._event_thresholds(a)
    level = shooting.MATCHING_WINDOW[0] * a if match else -math.inf

    def rhs(r, u, up):
        return up, omega * u - u**3 + (u**5 if quintic else 0.0) - 2.0 * up / r

    def events(r, u, up):
        return u + cross_eps, up - turn_eps, u - level
    return (rhs, events, (-1.0, 1.0, -1.0),
            shooting._AMPLITUDE if quintic else shooting._CUBIC,
            (omega, cross_eps, turn_eps, level))


def _outcome(f, *args):
    """f(*args) flattened to a list, or the type of what it raised."""
    try:
        return _flat(f(*args))
    except ArithmeticError as err:
        return type(err)


def _flat(items):
    flat = []
    for item in items:
        flat.extend(_flat(item) if isinstance(item, (tuple, list)) else [item])
    return flat


def _same(ours, reference):
    """Equal with ``==`` where finite, and not finite where not."""
    if isinstance(reference, type):
        return ours is reference
    return len(ours) == len(reference) and all(
        x == y or (isinstance(x, float) and isinstance(y, float)
                   and not (math.isfinite(x) or math.isfinite(y)))
        for x, y in zip(ours, reference))


#: the amplitude below which cubic starts are drawn: the cubic force
#: u - u^3 stays restoring for every u > 1, so it has no upper zero
_CUBIC_AMPLITUDE_CAP = 20.0


def _upper_amplitude(omega, quintic):
    return force_upper_zero(omega) if quintic else _CUBIC_AMPLITUDE_CAP


#: a start (r, log10 of the first step, u, u') off the trajectories, run
#: for eight first steps
_WILD_STARTS = st.tuples(st.floats(1e-3, 300.0), st.floats(-8.0, 2.0),
                         st.floats(-1e200, 1e200), st.floats(-1e200, 1e200))


@settings(max_examples=300, deadline=None)
@given(problem=st.one_of(st.tuples(st.just("quintic"), st.floats(0.004, 0.1869)),
                         st.tuples(st.just("cubic"), st.just(1.0)),
                         st.tuples(st.just("plateau"), st.floats(0.1551, 0.1869))),
       frac=st.floats(1e-3, 1.0), wild=st.none() | _WILD_STARTS,
       depth=st.floats(1.0, 700.0), log_rtol=st.floats(-13.0, -2.0), dense=st.booleans(),
       match=st.booleans())
@example(problem=("quintic", 0.09), frac=0.5, wild=(1.0, -1.0, 1e62, 0.0), depth=1.0,
         log_rtol=-12.0, dense=True, match=False)
@example(problem=("plateau", 0.185), frac=0.5, wild=(200.0, 1.0, 1e60, -1e60), depth=1.0,
         log_rtol=-12.0, dense=True, match=False)
@example(problem=("cubic", 1.0), frac=0.5, wild=(1e-3, -8.0, 0.0, 0.0), depth=1.0,
         log_rtol=-12.0, dense=True, match=False)
@example(problem=("plateau", 0.1596706622027397), frac=0.5,
         wild=(0.1051677604860266, -2.5234, -1.4122323403712673e+78, -3.2797941281376995e+151),
         depth=340.1501961519341, log_rtol=-12.0, dense=True,
         match=False)  # only the last stage overflows
@example(problem=("quintic", 0.09), frac=0.95, wild=None, depth=1.0, log_rtol=-12.0,
         dense=True, match=True)  # falls through the matching level, then crosses zero
def test_kernel_matches_the_generic_stage_loops(problem, frac, wild, depth, log_rtol, dense,
                                                match):
    # the march generated from a problem's text rounds every weighted sum
    # as sum() does on Python 3.11, so a whole run (event, accepted steps,
    # stop state and every dense segment) is the same bit for bit as the
    # callback loop on the stage loops.  The start is the Taylor start of
    # amplitude frac * u+ (quintic, cubic) or the linear start at depth
    # (plateau), run to the integration radius, or a wild start; with
    # ``match`` the amplitude runs also stop at the matching level.  Where
    # stages overflow, to inf or with an OverflowError from u**5, both
    # raise, or the same values stay finite in both forms: a dropped
    # 0 * inf term can turn the loops' nan into inf, no more
    kind, omega = problem
    rtol = 10.0**log_rtol
    quintic = kind != "cubic"
    a = frac * _upper_amplitude(omega, quintic)
    rhs, events, directions, source, params = _callbacks(kind, omega, depth, a, match)
    atol = first_step = None
    if wild is not None:
        r, log_h, u, up = wild
        first_step = 10.0**log_h
        start, r_end = (r, u, up), r + 8.0 * first_step
    elif kind == "plateau":
        shot = shooting._DepthShot(omega, rtol)
        start, r_end = shot._start(depth)[:3], shot.radius(depth)
        atol, first_step = rtol / (2.0 * shot.kappa), 1.0 / shot.kappa
    else:
        h0 = shooting.TAYLOR_START_STEP
        start = (h0, *shooting._taylor_start(a, h0, omega, quintic))
        r_end = shooting.default_max_radius(omega)
    ours, theirs = ([], []) if dense else (None, None)
    run = _outcome(shooting._march, source, params, *start, r_end, rtol, atol, first_step, ours)
    assert _same(run, _outcome(_callback_march, rhs, *start, r_end, rtol, events, directions,
                               atol, first_step, theirs))
    if dense:
        assert _same(_flat(ours), _flat(theirs))
        # one stop rule: recording the segments leaves the run as it is
        assert _same(run, _outcome(shooting._march, source, params, *start, r_end, rtol, atol,
                                   first_step))


def test_solve_ivp_name_resolves_lazily():
    # the benchmark's traced mode rebinds shooting.solve_ivp; nothing in
    # the module calls it, and other missing names still raise
    from scipy.integrate import solve_ivp

    assert shooting.solve_ivp is solve_ivp
    with pytest.raises(AttributeError):
        shooting.no_such_name


def _ivp_events(events, directions):
    """``_march``-style event values as solve_ivp's terminal events."""
    out = []
    for k, direction in enumerate(directions):
        def event(r, y, k=k):
            return events(r, y[0], y[1])[k]
        event.terminal, event.direction = True, direction
        out.append(event)
    return out


def _solve_ivp_run(rhs, start, r_end, tol, events, directions, atol=None, first_step=None):
    """scipy's solve_ivp DOP853 from ``start`` with the ``_march``
    arguments, dense: the oracle of the float stepper."""
    from scipy.integrate import solve_ivp

    options = {} if first_step is None else {"first_step": first_step}
    return solve_ivp(lambda r, y: rhs(r, y[0], y[1]), (start[0], r_end), start[1:],
                     method="DOP853", rtol=tol, atol=tol * 1e-2 if atol is None else atol,
                     events=_ivp_events(events, directions), dense_output=True, **options)


def _solve_ivp_shot(a, omega, ode_tolerance, quintic, max_radius, start=None):
    """solve_ivp's run with the two shooting events, as ``shooting._shoot``."""
    cross_eps, turn_eps = shooting._event_thresholds(a)
    if start is None:
        h0 = shooting.TAYLOR_START_STEP
        start = (h0, *shooting._taylor_start(a, h0, omega, quintic))
    return _solve_ivp_run(
        lambda r, u, up: (up, shooting._force(u, omega, quintic) - 2.0 * up / r),
        start, max_radius, ode_tolerance,
        lambda r, u, up: (u + cross_eps, up - turn_eps), (-1.0, 1.0))


def _stop(sol):
    """Index of the event that ended a solve_ivp run (None without one) and
    the radius where it stopped."""
    for k, times in enumerate(sol.t_events):
        if times.size:
            return k, float(times[0])
    return None, float(sol.t[-1])


def _solve_ivp_class(a, omega, ode_tolerance, quintic, max_radius):
    sol = _solve_ivp_shot(a, omega, ode_tolerance, quintic, max_radius)
    return shooting._EVENT_CLASSES[_stop(sol)[0]], sol.t.size - 1


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
    radius = max_radius or shooting.default_max_radius(omega)
    a = _ground_amplitude(omega, tol, quintic) * (1.0 + sign * 10.0**log_offset)
    assume(a < _upper_amplitude(omega, quintic))
    label, steps, _ = _run_of_u(a, omega, tol, quintic, radius)
    label_ivp, steps_ivp = _solve_ivp_class(a, omega, tol, quintic, radius)
    assert label is label_ivp
    assert abs(steps - steps_ivp) <= 1
    if max_radius is not None:
        # too short to leave the plateau near the root
        assert label is TrajectoryClass.UNDETERMINED


def test_root_order_decides_between_events_in_one_step(monkeypatch):
    # u'' = -u from u = 1: u falls through 1/2 at r = pi/3 and -u' rises
    # through sin(pi/3 +- 0.004) 4e-3 later or earlier, well inside one
    # step at rtol 1e-8; the run takes the event of the earlier root, as
    # solve_ivp does, and stops at the end of that step, where solve_ivp's
    # root lies
    problem = shooting._Problem("r, u, up", "turn", ("up, -u",), ("u - 0.5", "-up - turn"),
                                (-1.0, 1.0))
    both = []
    real_first_event = shooting._first_event

    def spy(events, fired, segment):
        both.append(len(fired) == 2)
        return real_first_event(events, fired, segment)
    monkeypatch.setattr(shooting, "_first_event", spy)
    start = (0.0, 1.0, 0.0)
    for turn_first in (True, False):
        turn_at = math.pi / 3.0 + (-0.004 if turn_first else 0.004)
        params = (math.sin(turn_at),)
        rhs, events, _ = shooting._marcher(problem)(*params)
        both.clear()
        segments = []
        run = shooting._march(problem, params, *start, 10.0, 1e-8, segments=segments)
        event, _, r_stop, _, _ = run
        assert both == [True]
        ivp_event, ivp_stop = _stop(_solve_ivp_run(rhs, start, 10.0, 1e-8, events,
                                                   problem.directions))
        assert event == ivp_event == (1 if turn_first else 0)
        assert segments[-1].r < ivp_stop < segments[-1].r_new == r_stop
        assert ivp_stop == pytest.approx(turn_at if turn_first else math.pi / 3.0, rel=1e-7)
        # without a dense pass the run is the same
        both.clear()
        assert shooting._march(problem, params, *start, 10.0, 1e-8) == run
        assert both == [True]


def _dense_pair(segments, r_stop, sol):
    """First components of a float dense run and of a solve_ivp run on
    3000 points of their common range."""
    grid = np.linspace(segments[0].r, min(r_stop, _stop(sol)[1]), 3000)
    return shooting._DenseTrajectory(segments)(grid)[0], sol.sol(grid)[0]


def _segment_value(segment, t):
    """(u, u') of one step's dense output at t by the scalar loop of scipy's
    ``Dop853DenseOutput``: the reference of the trajectory's scalar form."""
    x = (t - segment.r) / (segment.r_new - segment.r)
    out = []
    for y0, rows in ((segment.u, segment.rows_u), (segment.up, segment.rows_p)):
        y = 0.0
        for i, row in enumerate(reversed(rows)):
            y += row
            y *= x if i % 2 == 0 else 1 - x
        out.append(y + y0)
    return out


_ENTRIES = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 100.0), h=st.floats(1e-8, 10.0), state=st.tuples(_ENTRIES, _ENTRIES),
       rows=st.lists(_ENTRIES, min_size=14, max_size=14), frac=st.floats(-0.5, 1.5))
def test_trajectory_at_one_radius(r, h, state, rows, frac):
    # event roots evaluate one radius at a time; the values are those of
    # the scalar loop and of the same radius in an array, bit for bit
    segment = shooting._Segment(r, r + h, *state, tuple(rows[:7]), tuple(rows[7:]))
    trajectory = shooting._DenseTrajectory([segment])
    t = r + frac * h
    value = trajectory(t)
    assert value.shape == (2,)
    assert value.tolist() == _segment_value(segment, t)
    assert trajectory(np.array([r, t]))[:, 1].tolist() == value.tolist()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(problem=st.one_of(st.tuples(st.just("ground"), st.floats(0.004, 0.155)),
                         st.just(("cubic", 1.0)),
                         st.tuples(st.just("plateau"), st.sampled_from([0.1551, 0.185]))),
       tol=st.sampled_from([1e-8, 1e-10, 1e-12]), sign=st.sampled_from([-1.0, 1.0]),
       log_offset=st.floats(-7.0, -1.0))
@example(problem=("cubic", 1.0), tol=1e-12, sign=1.0, log_offset=-7.0)
@example(problem=("plateau", 0.1551), tol=1e-10, sign=1.0, log_offset=-7.0)
@example(problem=("plateau", 0.185), tol=1e-8, sign=-1.0, log_offset=-6.0)
def test_dense_pass_matches_solve_ivp(problem, tol, sign, log_offset):
    # the dense pass of the profile builder against solve_ivp's dense
    # output from the same start, at a shooting parameter 10**log_offset
    # (relative) off the root.  Each run stops at the end of the step in
    # which its event fires, so solve_ivp's event root lies in the last
    # segment; it did in all of 400 random draws.  Their largest rounding
    # mismatch: values 8.3e-11 of the amplitude, the event at solve_ivp's
    # root on our dense output 2.9e-11 of the amplitude, the plateau's q
    # 3.2e-14 (relative).  The bounds keep a margin of 3 or more.  One
    # draw (omega 0.1399 at 1e-8, 7.7e-6 below the root) reached 3.3e-9
    # and 1.1e-9, where the growing mode past the turn amplifies the
    # rounding, and a draw where rounding shifts a step (see the test
    # above) would compare runs a local error apart: hence derandomized
    kind, omega = problem
    offset = sign * 10.0**log_offset
    quintic = kind != "cubic"
    radius = shooting.default_max_radius(omega)
    start = None
    if kind == "plateau":
        shot = shooting._DepthShot(omega, tol)
        depth = _ground_root(omega, tol) * (1.0 + offset)
        radius, q_tol = shot.radius(depth), min(tol, 1e-10)
        segments = []
        a, start = shot.start(depth, segments)
        # the profile's q pass is the run of the residuals and classes
        assert shot.start(depth) == (a, start)
        r0, q0, qp0, _ = shot._start(depth)
        rhs, events, _ = shooting._marcher(shooting._PLATEAU)(*shot._params(depth))
        sol_q = _solve_ivp_run(rhs, (r0, q0, qp0), radius, q_tol, events, (1.0,),
                               atol=q_tol / (2.0 * shot.kappa), first_step=1.0 / shot.kappa)
        event_q, r_sw_ivp = _stop(sol_q)
        assert event_q == 0
        assert segments[-1].r <= r_sw_ivp <= segments[-1].r_new == start[0]
        ours, theirs = _dense_pair(segments, start[0], sol_q)
        assert np.max(np.abs(ours - theirs) / np.abs(theirs)) < 3e-12
    else:
        a = _ground_amplitude(omega, tol, quintic) * (1.0 + offset)
        assume(a < _upper_amplitude(omega, quintic))
    segments = []
    label, _, r_stop = _run_of_u(a, omega, tol, quintic, radius, start, segments)
    sol = _solve_ivp_shot(a, omega, tol, quintic, radius, start)
    event, r_stop_ivp = _stop(sol)
    assert label is shooting._EVENT_CLASSES[event]
    assert segments[-1].r <= r_stop_ivp <= segments[-1].r_new == r_stop
    # solve_ivp's event root is a root of the event on our dense output
    # up to the mismatch of the values
    cross_eps, turn_eps = shooting._event_thresholds(a)
    u, up = shooting._DenseTrajectory(segments)(r_stop_ivp)
    assert abs((u + cross_eps, up - turn_eps)[event]) < 1e-10 * a
    ours, theirs = _dense_pair(segments, r_stop, sol)
    assert np.max(np.abs(ours - theirs)) < 3e-10 * a
