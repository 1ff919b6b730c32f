import math

import numpy as np
import pytest

from cqnls import bvp, shooting
from cqnls.errors import FrequencyOutOfWindow
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
    seeds = []
    real_solve = shooting._solve

    def spy(omega, cfg, quintic):
        seeds.append(cfg)
        return real_solve(omega, cfg, quintic)
    monkeypatch.setattr(shooting, "_solve", spy)
    default, loose = ShootingConfig(), ShootingConfig(ode_tolerance=1e-11)
    bvp.solve_collocation(0.156, default)
    bvp.solve_collocation(0.156, loose)
    assert seeds == [default, loose]
