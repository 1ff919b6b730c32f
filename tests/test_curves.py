import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqnls import curves, landscape, shooting
from cqnls.curves import (CRITICAL, STABLE, UNSTABLE, CriticalFrequencies,
                          _hermite_root, _solve_tridiagonal,
                          asymptotic_check, classify_stability, default_omega_grid,
                          differentiate, invert_beta, monotone_root, omega_slopes, scan)
from cqnls.errors import (EmptyGrid, InnerSolveDiverged, InsufficientCoverage,
                          TargetNotBracketed, ToleranceNotMet)
from cqnls.functionals import evaluate
from cqnls.profiles import OMEGA_MAX


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

    # the floats split no window into 60 increasing nodes up to the last
    # float below 3/16 (nodes repeat) or from a subnormal lo (exp(-t)
    # overflows and the nodes fall to 0, below the window)
    @pytest.mark.parametrize("n, lo, hi", [
        (1, 0.004, 0.185), (6, 0.15, 0.1), (6, 0.0, 0.185), (6, 0.004, OMEGA_MAX),
        (6, float("nan"), 0.185), (60, 0.004, math.nextafter(OMEGA_MAX, 0.0)),
        (60, 5e-324, 0.1)],
        ids=["one-node", "reversed", "zero-min", "max-at-endpoint", "nan-min",
             "last-float-below-max", "subnormal-min"])
    def test_rejects_a_grid_that_leaves_its_window(self, n, lo, hi):
        with pytest.raises(ValueError, match="frequency grid"):
            default_omega_grid(n, lo, hi)

    @pytest.mark.parametrize("n, lo, hi", [
        (6, 0.1, 0.15), (2, 0.004, 0.185), (6, 0.004, 0.05)],
        ids=["window-above-split", "two-nodes", "window-below-split"])
    def test_spans_any_inner_window(self, n, lo, hi):
        # 0.06 is no node or bound of the grid: a window on either side
        # of it, or two nodes, is a grid like any other
        grid = default_omega_grid(n, lo, hi)
        assert grid.size == n and grid[0] == lo and grid[-1] == hi
        assert np.all(np.diff(grid) > 0.0)

    def test_smallest_grid_spans_its_window(self):
        assert default_omega_grid(2, 0.01, 0.1).tolist() == [0.01, 0.1]
        # a middle node halves the window in ln(omega / (3/16 - omega))
        odds = [omega / (OMEGA_MAX - omega) for omega in default_omega_grid(3, 0.01, 0.1)]
        assert odds[1] == pytest.approx(math.sqrt(odds[0] * odds[2]), rel=1e-14)

    # the whole open window: either n increasing nodes from lo to hi, or a
    # ValueError where the floats cannot split it, which is only with hi
    # within 1e-15 of 3/16, lo below 1e-300 or hi - lo below 1e-6 lo
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(n=st.integers(2, 120),
           ends=st.lists(st.floats(5e-324, math.nextafter(OMEGA_MAX, 0.0)),
                         min_size=2, max_size=2))
    def test_any_window_gives_n_increasing_nodes_from_lo_to_hi(self, n, ends):
        lo, hi = sorted(ends)
        resolved = 1e-300 <= lo and hi <= OMEGA_MAX - 1e-15 and hi >= lo * (1.0 + 1e-6)
        try:
            grid = default_omega_grid(n, lo, hi)
        except ValueError:
            assert not resolved
            return
        assert grid.size == n and grid[0] == lo and grid[-1] == hi
        assert np.all(np.diff(grid) > 0.0)
        assert np.all((grid > 0.0) & (grid < OMEGA_MAX))


class TestUnique:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(pool=st.lists(st.floats() | st.sampled_from([0.0, -0.0, math.nan]),
                         min_size=1, max_size=6),
           picks=st.lists(st.integers(0, 5), max_size=20))
    @example(pool=[math.nan, 0.0, -0.0, 1.0, -math.inf], picks=[0, 3, 1, 0, 2, 3, 4, 0])
    def test_equals_np_unique(self, pool, picks):
        # duplicates, signed zeros and NaNs in any order, drawn from a
        # small pool so that values repeat
        values = np.array([pool[i % len(pool)] for i in picks], dtype=float)
        assert np.array_equal(curves._unique(values), np.unique(values), equal_nan=True)


class TestScan:
    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGrid):
            scan(np.array([]))

    def test_per_node_failures_recorded(self):
        # a node outside the window must not abort the healthy nodes
        swept = scan(np.array([0.05, 0.09, 0.2]))
        assert len(swept.points) == 2
        assert len(swept.failures) == 1
        assert swept.failures[0][0] == 0.2
        assert "FrequencyOutOfWindow" in swept.failures[0][1]

    def test_code_bugs_propagate(self, monkeypatch):
        # only solver failures (CqnlsError) become failure rows
        def broken(omega, ode_tolerance):
            raise RuntimeError("not a solver failure")
        monkeypatch.setattr(curves, "solve_ground_state", broken)
        with pytest.raises(RuntimeError):
            scan(np.array([0.05, 0.09]))

    def test_csv_columns(self, tmp_path):
        swept = scan(np.array([0.05, 0.09]))
        swept.to_csv(tmp_path / "curve.csv")
        header = (tmp_path / "curve.csv").read_text().splitlines()[0]
        assert header == "omega,mass,energy,beta,d,grad_sq,mass_derivative,stability"


def derivative_step(omega: float) -> float:
    return 1e-4 * max(omega, 0.01)


def _stencil_reports(omega: float, h: float, ode_tolerance: float):
    return {
        s: evaluate(shooting.solve_ground_state(omega + s * h, ode_tolerance))
        for s in (-1.0, -0.5, 0.5, 1.0)
    }


def _richardson(reports: dict, h: float, value_of) -> float:
    values = {s: value_of(rep) for s, rep in reports.items()}
    wide = (values[1.0] - values[-1.0]) / (2.0 * h)
    narrow = (values[0.5] - values[-0.5]) / h
    return (4.0 * narrow - wide) / 3.0


class TestDifferentiate:
    def test_mass_derivative_signs(self, curve, crit):
        # negative on the lower branch, positive on the upper one
        for p in curve.points:
            if p.omega < crit.omega_star - 1e-3:
                assert p.mass_derivative < 0.0
            elif p.omega > crit.omega_star + 1e-3:
                assert p.mass_derivative > 0.0

    @pytest.mark.parametrize("omega", [0.004, 0.0239, 0.02914, 0.09, 0.17, 0.185])
    def test_agrees_with_the_stencil_oracle(self, omega):
        # the oracle differentiates fresh solves at four neighbouring
        # frequencies, Richardson-extrapolated central differences in omega
        h = derivative_step(omega)
        oracle = _richardson(_stencil_reports(omega, h, shooting.ODE_TOLERANCE), h,
                             landscape._mass)
        (point,) = differentiate(scan([omega])).points
        assert abs(point.mass_derivative - oracle) <= 1e-8 * abs(point.mass_derivative)

    @pytest.mark.parametrize("ode_tolerance", [1e-8, 1e-10])
    def test_criterion_02_holds_at_loose_tolerances(self, ode_tolerance):
        # differentiated at a looser tolerance than the scan, the stencil's
        # second difference mixed the scan's d with its own solves and
        # missed 1e-2: 21 at omega = 0.0239 with 1e-8, 0.47 there with 1e-10
        omegas = [0.004, 0.0239, 0.06, 0.12, 0.17, 0.185]
        mixed = replace(scan(omegas), ode_tolerance=ode_tolerance)
        for swept in (mixed, scan(omegas, ode_tolerance)):
            checks = differentiate(swept).derivative_checks
            assert len(checks) == len(omegas)
            for check in checks:
                assert check.grad_identity < 1e-3, check
                assert check.energy_identity < 1e-3, check
                assert check.d_second < 1e-2, check

    def test_solves_each_node_alone(self, small_scan, monkeypatch):
        # one solve per node, at the node's own frequency: the scan's profile
        swept = small_scan
        calls = []

        def spy(omega, c):
            calls.append((omega, c))
            return shooting.solve_ground_state(omega, c)
        monkeypatch.setattr(curves, "solve_ground_state", spy)
        one = differentiate(replace(swept, points=swept.points[:1]))
        both = differentiate(swept)
        assert calls == [(p.omega, swept.ode_tolerance) for p in swept.points[:1] + swept.points]
        assert one.points[0] == both.points[0]
        assert one.derivative_checks[0] == both.derivative_checks[0]


class TestNewtonSlopes:
    @pytest.mark.parametrize("omega", [0.01, 0.024, 0.055, 0.12, 0.18])
    def test_agree_with_the_stencil_oracle(self, omega):
        # the slopes of a root search's Newton steps, from the L+ solve on
        # every fourth and every eighth profile node, against central
        # differences of fresh solves; 0.055 lies next to the rescaled
        # mass's minimum, where its slope is small
        h = derivative_step(omega)
        reports = _stencil_reports(omega, h, shooting.ODE_TOLERANCE)
        profile = shooting.solve_ground_state(omega)
        rep = evaluate(profile)
        mass_prime, beta_prime = omega_slopes(omega, shooting.ODE_TOLERANCE, rep)
        rescaled_prime = landscape._rescaled_mass_slope(rep, mass_prime, beta_prime)
        for slope, value_of in ((mass_prime, landscape._mass), (beta_prime, lambda r: r.beta),
                                (rescaled_prime, landscape._rescaled_mass)):
            oracle = _richardson(reports, h, value_of)
            assert abs(slope - oracle) <= 1e-6 * abs(oracle)

    def test_each_profile_is_paired_once(self, small_scan, monkeypatch):
        # the nodes bracketing a search lend their slopes from one L+
        # solve per profile (fine and coarse spacing), and a search
        # repeated on the same nodes makes no further L+ solve
        swept = small_scan
        curves._solved_pairings.cache_clear()
        paired, pairings = [], curves._omega_pairings

        def spy(profile, stop, step):
            paired.append(profile.omega)
            return pairings(profile, stop, step)
        monkeypatch.setattr(curves, "_omega_pairings", spy)
        first = invert_beta(1.0 / 3.0, swept)
        assert paired and all(paired.count(omega) == 2 for omega in paired)
        count = len(paired)
        assert invert_beta(1.0 / 3.0, swept)[0] == first[0]
        assert len(paired) == count

    def test_pairings_are_kept_per_tolerance(self):
        curves._solved_pairings.cache_clear()
        for ode_tolerance in (shooting.ODE_TOLERANCE, 1e-10):
            profile = shooting.solve_ground_state(0.09, ode_tolerance)
            assert curves._solved_pairings(0.09, ode_tolerance, 4) == tuple(
                curves._extrapolated_pairings(profile, 4))


def _thomas_longdouble(lower, diag, upper, rhs) -> np.ndarray:
    """Elimination without row exchanges (the Thomas algorithm) in
    ``np.longdouble``: the reference the float64 solve is measured by."""
    lower, diag, upper, rhs = (np.asarray(v, dtype=np.longdouble)
                               for v in (lower, diag, upper, rhs))
    zero = np.longdouble(0.0)
    ratios, x = np.empty_like(diag), np.empty_like(diag)
    ratio = value = zero
    for i, (a, b, c, d) in enumerate(zip([zero, *lower], diag, [*upper, zero], rhs)):
        pivot = b - a * ratio
        ratio, value = c / pivot, (d - a * value) / pivot
        ratios[i], x[i] = ratio, value
    for i in range(len(x) - 2, -1, -1):
        x[i] -= ratios[i] * x[i + 1]
    return x


class TestSolveTridiagonal:
    @pytest.mark.parametrize("lower, diag, upper", [
        ([1.0], [1.0, 1.0], [1.0]), ([1.0], [1.0, float("nan")], [1.0])],
        ids=["second-pivot", "nan"])
    def test_singular_elimination_raises(self, lower, diag, upper):
        with pytest.raises(InnerSolveDiverged):
            _solve_tridiagonal(lower, diag, upper, [1.0, 1.0])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("omega", [0.004, 0.09, 0.185])
    def test_accurate_on_the_numerov_rows(self, omega, monkeypatch):
        # the rows of both spacings of differentiate's L+ solve at the
        # window's edges and its middle; the largest error, 2.9e-10 at
        # 0.185 where the plateau is widest, is 20 times below the 5.9e-9
        # by which the stencil oracle and M' agree
        systems = []

        def capture(*rows):
            systems.append(rows)
            return _solve_tridiagonal(*rows)

        monkeypatch.setattr(curves, "_solve_tridiagonal", capture)
        curves._extrapolated_pairings(shooting.solve_ground_state(omega), 1)
        assert len(systems) == 2
        for rows in systems:
            reference = _thomas_longdouble(*rows)
            error = np.abs(_solve_tridiagonal(*rows) - reference).max() / np.abs(reference).max()
            assert error <= 1e-9


class TestInvertBeta:
    def test_unreachable_target(self, curve):
        with pytest.raises(TargetNotBracketed):
            invert_beta(1e6, curve)

    def test_beta_tolerance_honoured(self, curve):
        omega, _, rep = invert_beta(1.0 / 3.0, curve)
        assert abs(rep.beta - 1.0 / 3.0) < 1e-12
        assert 0.0 < omega < OMEGA_MAX


class TestMonotoneRoot:
    """x^3 = target over nodes in [0, 1]; the payload records the point
    evaluated, and ``slopes`` the nodes whose slope was read."""

    NODES = [(0.0, 0.0), (0.5, 0.125), (1.0, 1.0)]

    def cube(self, calls):
        def value_at(x):
            calls.append(x)
            return x**3, 3.0 * x * x, ("payload", x)
        return value_at

    def slope(self, slopes):
        def slope_at(x):
            slopes.append(x)
            return 3.0 * x * x
        return slope_at

    def test_returns_best_evaluated_iterate(self):
        calls, slopes = [], []
        x, value, payload = monotone_root(self.cube(calls), self.slope(slopes), 0.125,
                                          [(0.0, 0.0), (1.0, 1.0)], 1e-12)
        assert payload == ("payload", x) and value == x**3
        assert abs(value - 0.125) == min(abs(c**3 - 0.125) for c in calls)
        assert abs(x - 0.5) < 1e-12
        # the Hermite cubic on the bracket is x^3 itself: one evaluation
        assert slopes == [0.0, 1.0] and len(calls) == 1

    def test_known_end_values_cost_no_evaluation(self):
        calls, slopes = [], []
        x, _, _ = monotone_root(self.cube(calls), self.slope(slopes), 0.5, self.NODES, 1e-12)
        assert not {node for node, _ in self.NODES} & set(calls)
        assert x in calls and all(0.5 < c < 1.0 for c in calls)
        # the bracket's two nodes lend their slopes, the other node nothing
        assert slopes == [0.5, 1.0]

    def test_end_point_hit(self):
        # past the last node by less than end_tol: that node, evaluated once
        calls, slopes = [], []
        x, value, payload = monotone_root(self.cube(calls), self.slope(slopes), 1.0 + 1e-12,
                                          self.NODES, 1e-12, end_tol=1e-9)
        assert (x, value, payload) == (1.0, 1.0, ("payload", 1.0))
        assert calls == [1.0]
        # a bracket end within end_tol is the answer, also when end_tol is 0
        for target, end_tol, node in ((0.125 + 1e-12, 1e-9, 0.5), (0.0, 0.0, 0.0)):
            calls.clear()
            x, _, payload = monotone_root(self.cube(calls), self.slope(slopes), target,
                                          self.NODES, 1e-12, end_tol=end_tol)
            assert (x, payload, calls) == (node, ("payload", node), [node])
        assert slopes == []

    def test_unbracketed_raises_target_not_bracketed(self):
        calls, slopes = [], []
        with pytest.raises(TargetNotBracketed, match="not bracketed"):
            monotone_root(self.cube(calls), self.slope(slopes), 2.0, self.NODES, 1e-12)
        # the nearest end node is the only candidate, and it is not evaluated
        with pytest.raises(TargetNotBracketed):
            monotone_root(self.cube(calls), self.slope(slopes), -0.5, self.NODES, 1e-12,
                          end_tol=0.4)
        assert calls == [] and slopes == []

    def test_no_nodes_raise_target_not_bracketed(self):
        calls, slopes = [], []
        with pytest.raises(TargetNotBracketed, match="no nodes"):
            monotone_root(self.cube(calls), self.slope(slopes), 0.5, [], 1e-12)
        assert calls == [] and slopes == []

    @settings(max_examples=300, deadline=None)
    @given(slope=st.floats(0.1, 10.0), cubic=st.floats(0.0, 5.0),
           root=st.floats(-2.1, 2.1), sign=st.sampled_from([1.0, -1.0]),
           xtol=st.sampled_from([1e-12, 1e-8, 1e-4]),
           end_tol=st.sampled_from([0.0, 1e-3, 0.5]),
           grid=st.lists(st.integers(-64, 64), min_size=1, max_size=8, unique=True),
           slopes=st.one_of(st.just(0.0), st.floats(-2e-6, 2e-6),
                            st.sampled_from(["zero", "nan", "inf", "wrong-sign"])))
    # an end exactly end_tol off the target is accepted
    @example(slope=1.0, cubic=0.0, root=-1.5, sign=-1.0, xtol=1e-12,
             end_tol=0.5, grid=[-64, 64], slopes=0.0)
    # a root that rounds onto a bracket end costs no bisection
    @example(slope=1.0, cubic=0.0, root=-1.1754943508222875e-38, sign=1.0, xtol=1e-12,
             end_tol=0.0, grid=[0, -1], slopes=0.0)
    @example(slope=1.0, cubic=0.0, root=5e-324, sign=-1.0, xtol=1e-12,
             end_tol=0.0, grid=[0, 1], slopes=1e-6)
    def test_random_monotone_functions(self, slope, cubic, root, sign, xtol,
                                       end_tol, grid, slopes):
        """``slopes`` is the relative error of every slope, or names what
        replaces it, which forces bisection: a wrong-sign slope is steep
        enough that its Newton correction would read as converged."""
        calls = {}

        def f(x):
            d = x - root
            return sign * (slope * d + cubic * d**3)

        def slope_at(x):
            exact = sign * (slope + 3.0 * cubic * (x - root) ** 2)
            if isinstance(slopes, float):
                return exact * (1.0 + slopes)
            return {"zero": 0.0, "nan": math.nan, "inf": math.inf,
                    "wrong-sign": -1e12 * exact}[slopes]

        def value_at(x):
            calls[x] = f(x)
            return calls[x], slope_at(x), ("payload", x)

        nodes = [(k / 32.0, f(k / 32.0)) for k in sorted(grid)]
        bracket = next(((a, b) for a, b in zip(nodes, nodes[1:])
                        if a[1] * b[1] <= 0), None)
        ends = bracket or (min(nodes[0], nodes[-1], key=lambda n: abs(n[1])),)
        hits = [x for x, value in ends if abs(value) <= end_tol]
        args = (value_at, slope_at, 0.0, nodes, xtol)
        if not hits and bracket is None:
            with pytest.raises(TargetNotBracketed):
                monotone_root(*args, end_tol=end_tol)
            assert calls == {}
            return
        x, value, payload = monotone_root(*args, end_tol=end_tol)
        # always a point value_at was called at, with what it returned there
        assert x in calls and value == calls[x] and payload == ("payload", x)
        if hits:
            assert x == hits[0] and list(calls) == [x]
        else:
            # the returned iterate is within xtol (plus 4 eps relative) of
            # the root, no evaluated point is better, and no node was
            # evaluated
            (lo, _), (hi, _) = bracket
            steepest = slope + 3.0 * cubic * 4.0**2
            assert lo <= x <= hi
            assert not {node for node, _ in nodes} & set(calls)
            assert abs(value) == min(abs(v) for v in calls.values())
            assert abs(value) <= steepest * (xtol + 8.9e-16 * abs(root)) + 1e-15
            # with exact slopes the Hermite start is the cubic itself, up to
            # rounding, and a 1e-6 slope error costs a Newton step or two; a
            # forced bisection halves the bracket down to xtol
            if isinstance(slopes, str):
                bound = math.ceil(math.log2((hi - lo) / xtol)) + 1
            else:
                bound = 2 if slopes == 0.0 else 4
            assert len(calls) <= bound

    @settings(max_examples=200, deadline=None)
    @given(grid=st.lists(st.integers(0, 64), min_size=1, max_size=12, unique=True),
           root=st.floats(-0.2, 1.2), increasing=st.booleans())
    @example(grid=[0, 1], root=-5e-324, increasing=False)  # a product of the ends underflowed
    def test_bracket_is_first_gap_holding_the_root(self, grid, root, increasing):
        # only the sign of value - target matters
        sign = 1.0 if increasing else -1.0
        nodes = [(k / 64.0, sign * (k / 64.0 - root)) for k in sorted(grid)]
        gaps = [(a, b) for (a, _), (b, _) in zip(nodes, nodes[1:]) if a <= root <= b]
        brackets = []

        def spy(lo, r_lo, s_lo, hi, r_hi, s_hi):
            brackets.append((lo, hi))
            return _hermite_root(lo, r_lo, s_lo, hi, r_hi, s_hi)

        def value_at(x):
            return sign * (x - root), sign, None

        on_node = root in {node for node, _ in nodes}
        with mock.patch.object(curves, "_hermite_root", spy):
            if not gaps and not on_node:
                with pytest.raises(TargetNotBracketed):
                    monotone_root(value_at, lambda x: sign, 0.0, nodes, 1e-12)
                return
            x, _, _ = monotone_root(value_at, lambda x: sign, 0.0, nodes, 1e-12)
        if on_node:
            # a root on a node is that node, without a search
            assert x == root and brackets == []
        else:
            assert brackets == gaps[:1]


class TestInvertBetaSmallScan:
    """Both critical inversions on the 5-node [0.004, 0.15] scan."""

    @pytest.mark.parametrize("target", [1.0 / 3.0, 1.0])
    def test_lands_on_target_in_few_solves(self, small_scan, fresh_solves, target):
        swept = small_scan
        calls = fresh_solves({p.omega for p in swept.points})
        omega, _, rep = invert_beta(target, swept)
        assert abs(rep.beta - target) < 1e-12
        # Brent's method took 6 solves here; the nodes' slopes take none
        assert len(calls) <= 4
        assert omega in calls

    def test_fresh_solve_reproduces_mass(self, small_scan, monkeypatch):
        swept = small_scan
        omega, _, rep = invert_beta(1.0 / 3.0, swept)
        monkeypatch.setattr(shooting, "_profile_cache", {})
        assert evaluate(shooting.solve_ground_state(omega, swept.ode_tolerance)).mass == rep.mass

    def test_unreachable_beta_tol_raises(self, small_scan, monkeypatch):
        swept = small_scan
        # a negative tolerance is missed by any iterate, even one whose beta
        # is exactly 1/3, whatever frequencies the search lands on
        monkeypatch.setattr(curves, "BETA_TOL", -1.0)
        with pytest.raises(ToleranceNotMet, match=r"beta = 0\.3333.* missed by"):
            invert_beta(1.0 / 3.0, swept)


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
    def test_needs_endpoint_coverage(self):
        swept = scan(np.array([0.05, 0.06, 0.07, 0.08, 0.09]))
        with pytest.raises(InsufficientCoverage):
            asymptotic_check(swept)

    def test_small_omega_errors_shrink(self, curve):
        report = asymptotic_check(curve)
        errors = [e["mass_rel_error"] for e in report["small_omega"]]
        omegas = [e["omega"] for e in report["small_omega"]]
        order = np.argsort(omegas)
        assert errors[order[0]] < errors[order[-1]]
