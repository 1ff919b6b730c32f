import numpy as np
import pytest

from cqnls import curves, shooting
from cqnls.curves import (CRITICAL, STABLE, UNSTABLE, CriticalFrequencies,
                          FrequencyCurve, asymptotic_check, classify_stability,
                          default_omega_grid, derivative_step, differentiate,
                          invert_beta, monotone_root, scan)
from cqnls.errors import (EmptyGrid, InsufficientCoverage, InsufficientPoints,
                          MassBeyondScan, TargetNotBracketed, ToleranceNotMet)
from cqnls.functionals import evaluate
from cqnls.profiles import OMEGA_MAX, ShootingConfig


class TestDefaultGrid:
    def test_covers_production_window(self):
        grid = default_omega_grid(60)
        assert grid.size == 60
        assert grid[0] == pytest.approx(0.004)
        assert grid[-1] == pytest.approx(0.185)
        assert np.all(np.diff(grid) > 0.0)
        assert np.all((grid > 0.0) & (grid < OMEGA_MAX))

    def test_refines_both_endpoints(self):
        grid = default_omega_grid(60)
        gaps = np.diff(grid)
        assert gaps[0] < gaps[len(gaps) // 2]
        assert gaps[-1] < gaps[len(gaps) // 2]


class TestScan:
    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            scan(np.array([]))

    def test_per_node_failures_recorded(self, cfg):
        # a node outside the window must not abort the healthy nodes
        swept = scan(np.array([0.05, 0.09, 0.2]), cfg)
        assert len(swept.points) == 2
        assert len(swept.failures) == 1
        assert swept.failures[0][0] == 0.2
        assert "FrequencyOutOfWindow" in swept.failures[0][1]

    def test_code_bugs_propagate(self, monkeypatch):
        # only solver failures (CqnlsError) become failure rows
        def broken(omega, cfg):
            raise RuntimeError("not a solver failure")
        monkeypatch.setattr(curves, "solve_ground_state", broken)
        with pytest.raises(RuntimeError):
            scan(np.array([0.05, 0.09]))

    def test_csv_columns(self, cfg, tmp_path):
        swept = scan(np.array([0.05, 0.09]), cfg)
        swept.to_csv(tmp_path / "curve.csv")
        header = (tmp_path / "curve.csv").read_text().splitlines()[0]
        assert header == "omega,mass,energy,beta,d,grad_sq,mass_derivative,stability"


class TestDifferentiate:
    def test_needs_enough_points(self, cfg):
        swept = scan(np.array([0.05, 0.09]), cfg)
        with pytest.raises(InsufficientPoints):
            differentiate(swept, cfg)

    def test_step_floors_at_small_omega(self):
        assert derivative_step(0.0001) == pytest.approx(1e-6)
        assert derivative_step(0.1) == pytest.approx(1e-5)

    def test_mass_derivative_signs(self, curve, crit):
        # negative on the lower branch, positive on the upper one
        for p in curve.points:
            if p.omega < crit.omega_star - 1e-3:
                assert p.mass_derivative < 0.0
            elif p.omega > crit.omega_star + 1e-3:
                assert p.mass_derivative > 0.0


class TestInvertBeta:
    def test_unreachable_target(self, curve, cfg):
        with pytest.raises(TargetNotBracketed):
            invert_beta(1e6, curve, cfg)

    def test_beta_tolerance_honoured(self, curve, cfg):
        omega, _, rep = invert_beta(1.0 / 3.0, curve, cfg)
        assert abs(rep.beta - 1.0 / 3.0) < 1e-12
        assert 0.0 < omega < OMEGA_MAX


class TestMonotoneRoot:
    """x^3 = target on [0, 1]; the payload records the point evaluated."""

    def cube(self, calls):
        def value_at(x):
            calls.append(x)
            return x**3, ("payload", x)
        return value_at

    def test_returns_best_evaluated_iterate(self):
        calls = []
        x, value, payload = monotone_root(self.cube(calls), 0.125, 0.0, 1.0, 1e-12)
        assert payload == ("payload", x) and value == x**3
        assert abs(value - 0.125) == min(abs(c**3 - 0.125) for c in calls)
        assert abs(x - 0.5) < 1e-12

    def test_known_end_values_cost_no_evaluation(self):
        calls = []
        x, _, _ = monotone_root(self.cube(calls), 0.125, 0.0, 1.0, 1e-12,
                                end_values=(0.0, 1.0))
        assert 0.0 not in calls and 1.0 not in calls
        assert x in calls

    def test_end_point_hit(self):
        calls = []
        x, value, payload = monotone_root(self.cube(calls), 1.0 + 1e-12, 0.0, 1.0,
                                          1e-12, end_tol=1e-9)
        assert (x, value, payload) == (1.0, 1.0, ("payload", 1.0))
        assert calls == [0.0, 1.0]
        # a known end is evaluated once it is the answer
        calls.clear()
        x, _, payload = monotone_root(self.cube(calls), 0.0, 0.0, 1.0, 1e-12,
                                      end_values=(0.0, 1.0))
        assert (x, payload, calls) == (0.0, ("payload", 0.0), [0.0])

    def test_unbracketed_raises_callers_error(self):
        with pytest.raises(TargetNotBracketed):
            monotone_root(self.cube([]), 2.0, 0.0, 1.0, 1e-12)
        with pytest.raises(MassBeyondScan, match="not bracketed"):
            monotone_root(self.cube([]), 2.0, 0.0, 1.0, 1e-12,
                          not_bracketed=MassBeyondScan)


@pytest.fixture(scope="module")
def small_scan():
    cfg = ShootingConfig(ode_tolerance=1e-10)
    swept = scan(default_omega_grid(5, 0.004, 0.15), cfg)
    assert not swept.failures
    return swept, cfg


class TestInvertBetaSmallScan:
    """Both critical inversions on the 5-node [0.004, 0.15] scan."""

    @pytest.mark.parametrize("target", [1.0 / 3.0, 1.0])
    def test_lands_on_target_in_few_solves(self, small_scan, monkeypatch, target):
        swept, cfg = small_scan
        calls = []

        def spy(omega, c):
            calls.append(omega)
            return shooting.solve_ground_state(omega, c)
        monkeypatch.setattr(curves, "solve_ground_state", spy)
        omega, _, rep = invert_beta(target, swept, cfg)
        assert abs(rep.beta - target) < 1e-12
        assert len(calls) <= 16
        assert omega in calls

    def test_fresh_solve_reproduces_mass(self, small_scan, monkeypatch):
        swept, cfg = small_scan
        omega, _, rep = invert_beta(1.0 / 3.0, swept, cfg)
        monkeypatch.setattr(shooting, "_profile_cache", {})
        assert evaluate(shooting.solve_ground_state(omega, cfg)).mass == rep.mass

    def test_unreachable_beta_tol_raises(self, small_scan):
        swept, cfg = small_scan
        with pytest.raises(ToleranceNotMet, match=r"beta = 0\.3333.* missed by"):
            invert_beta(1.0 / 3.0, swept, cfg, beta_tol=1e-20)


class TestCriticalAndStability:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CriticalFrequencies(omega_star=0.06, omega_upper_star=0.02,
                                m0=1.0, m_q1=2.0, m_threshold=1.5,
                                mass_argmin=0.05)
        with pytest.raises(ValueError):
            CriticalFrequencies(omega_star=0.02, omega_upper_star=0.06,
                                m0=1.0, m_q1=2.0, m_threshold=2.5,
                                mass_argmin=0.05)

    def test_measured_ordering(self, crit):
        assert crit.m_threshold < crit.m0 < crit.m_q1
        assert 0.0 < crit.omega_star < crit.omega_upper_star < OMEGA_MAX

    def test_stability_labels_split_at_omega_star(self, curve, crit):
        labelled = classify_stability(curve, crit)
        for p in labelled.points:
            expected = UNSTABLE if p.omega < crit.omega_star else STABLE
            if abs(p.omega - crit.omega_star) < 1e-6 * crit.omega_star:
                expected = CRITICAL
            assert p.stability == expected


class TestAsymptoticCheck:
    def test_needs_endpoint_coverage(self, cfg, cubic_g):
        swept = scan(np.array([0.05, 0.06, 0.07, 0.08, 0.09]), cfg)
        with pytest.raises(InsufficientCoverage):
            asymptotic_check(swept, cubic_g)

    def test_small_omega_errors_shrink(self, curve, cubic_g):
        report = asymptotic_check(curve, cubic_g)
        errors = [e["mass_rel_error"] for e in report["small_omega"]]
        omegas = [e["omega"] for e in report["small_omega"]]
        order = np.argsort(omegas)
        assert errors[order[0]] < errors[order[-1]]
