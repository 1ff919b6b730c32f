import math
from collections import Counter
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from cqnls import curves, landscape, shooting
from cqnls.curves import (CRITICAL, STABLE, UNSTABLE, CriticalFrequencies,
                          FrequencyCurve, FrequencyCurvePoint, differentiate,
                          locate_critical)
from cqnls.errors import MassBeyondScan
from cqnls.geometry import q_alpha
from cqnls.landscape import (CRITICAL_BRANCH, KIND_BOUNDARY_Q1,
                             KIND_GROUND_STATE, KIND_NONE, LOWER_BRANCH,
                             UPPER_BRANCH, classify_normalized,
                             e_min_landscape, landscape_table,
                             write_landscape_csv)


class TestClassifyNormalized:
    def test_below_minimum_mass(self, curve, crit):
        result = classify_normalized(0.5 * crit.m0, curve, crit)
        assert result.count == 0
        assert result.frequencies == ()

    def test_at_minimum_mass(self, curve, crit):
        result = classify_normalized(crit.m0, curve, crit)
        assert result.count == 1
        assert result.frequencies == (crit.omega_star,)
        assert result.branch_labels == (CRITICAL_BRANCH,)
        assert result.stability_labels == (CRITICAL,)

    def test_above_minimum_mass(self, curve, crit):
        result = classify_normalized(1.3 * crit.m0, curve, crit)
        assert result.count == 2
        lower, upper = result.frequencies
        assert lower < crit.omega_star < upper
        assert result.branch_labels == (LOWER_BRANCH, UPPER_BRANCH)
        assert result.stability_labels == (UNSTABLE, STABLE)

    def test_rejects_nonpositive_mass(self, curve, crit):
        with pytest.raises(ValueError):
            classify_normalized(-1.0, curve, crit)

    @pytest.mark.parametrize("call", [classify_normalized, e_min_landscape,
                                      lambda m, *args: landscape_table([m], *args)],
                             ids=["classify", "landscape", "table"])
    @pytest.mark.parametrize("mass", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_a_mass_that_is_not_finite(self, call, mass, curve, crit):
        # an infinite mass used to meet an end node within its own
        # infinite tolerance, and a nan one to pass for beyond the scan
        with pytest.raises(ValueError, match="finite and positive"):
            call(mass, curve, crit)

    def test_mass_beyond_scan(self, curve, crit):
        # both branches top out below this (upper endpoint mass ~1.7e7)
        with pytest.raises(MassBeyondScan):
            classify_normalized(1e9, curve, crit)

    def test_branch_skipped_when_out_of_window(self, curve, crit):
        # beyond the lower branch's scanned masses only the upper branch counts
        max_lower = max(p.mass for p in curve.points
                        if p.omega < crit.omega_star)
        result = classify_normalized(1.2 * max_lower, curve, crit)
        assert result.count == 1
        assert result.branch_labels == (UPPER_BRANCH,)

    def test_as_dict_roundtrip(self, curve, crit):
        result = classify_normalized(1.3 * crit.m0, curve, crit)
        payload = asdict(result)
        assert payload["count"] == 2
        assert len(payload["frequencies"]) == 2


class TestBranchDirection:
    """Synthetic mass curve M = 50 + K (omega - 0.024)^2, minimum at 0.024."""

    K = 50.0 / 0.036**2  # M(0.06) = 100

    def mass(self, omega):
        return 50.0 + self.K * (omega - 0.024) ** 2

    def test_single_upper_node_left_of_root(self, monkeypatch):
        # the only scanned node inside the upper interval lies below the
        # target on the increasing branch, so the root is to its right;
        # a "profile" is its frequency, and its slope M' is exact
        monkeypatch.setattr(curves, "solve_ground_state", lambda om, ode_tolerance: om)
        monkeypatch.setattr(curves, "evaluate",
                            lambda om: SimpleNamespace(mass=self.mass(om)))
        monkeypatch.setattr(curves, "omega_slopes",
                            lambda om, ode_tolerance, rep: (2.0 * self.K * (om - 0.024), 0.0))
        points = tuple(
            FrequencyCurvePoint(om, self.mass(om), 0.0, 0.5, 0.0, 1.0, 0.0, 0.0)
            for om in (0.005, 0.01, 0.06, 0.15))
        crit = CriticalFrequencies(0.024, 0.1, m0=50.0, m_q1=1000.0,
                                   m_threshold=500.0, mass_argmin=0.024)
        result = classify_normalized(150.0, FrequencyCurve(points, shooting.ODE_TOLERANCE),
                                     crit)
        assert result.branch_labels == (UPPER_BRANCH,)
        assert result.frequencies[0] == pytest.approx(
            0.024 + (100.0 / self.K) ** 0.5, rel=1e-6)


def test_branch_inversions_solve_at_no_scanned_node(small_scan, monkeypatch, fresh_solves):
    # the scanned nodes and the split lend their values to the bracket, and
    # their slopes come from their profiles in the cache: a node is read,
    # never solved fresh
    swept = small_scan
    crit = locate_critical(swept)
    known = {p.omega for p in swept.points} | {crit.omega_star, crit.omega_upper_star}
    solved, calls = fresh_solves(known), []
    solve = curves.solve_ground_state
    monkeypatch.setattr(curves, "solve_ground_state",
                        lambda omega, *args: calls.append(omega) or solve(omega, *args))
    assert classify_normalized(1.3 * crit.m0, swept, crit).count == 2
    record = e_min_landscape(0.95 * crit.m_q1, swept, crit)
    assert not record.e_min_v_infinite
    read = set(calls) - set(solved)
    assert solved and not known & set(solved)
    assert read and read <= known


def test_every_solve_runs_at_the_scan_tolerance(small_scan, monkeypatch, fresh_solves):
    # the functions that read a curve solve at the tolerance it was scanned
    # at; with a tolerance of their own, defaulting to 1e-12, a 1e-10 curve
    # was differentiated and inverted at 1e-12
    swept = small_scan
    tolerances, solve = set(), shooting._solve
    fresh_solves(set())

    def spy(omega, ode_tolerance, *args, **kwargs):
        tolerances.add(ode_tolerance)
        return solve(omega, ode_tolerance, *args, **kwargs)
    monkeypatch.setattr(shooting, "_solve", spy)
    differentiate(swept)
    crit = locate_critical(swept)
    classify_normalized(1.3 * crit.m0, swept, crit)
    e_min_landscape(0.95 * crit.m_q1, swept, crit)
    q_alpha(0.5, swept)
    assert tolerances == {swept.ode_tolerance}


def test_mass_roots_take_few_solves(small_scan, monkeypatch, fresh_solves):
    # both ground-branch roots at 1.3 m0 on the 5-node scan, which took
    # Brent's method 9 (lower) and 6 (upper) solves: the upper root takes
    # no more than a beta inversion, the lower one, started from a Hermite
    # cubic over [0.004, 0.0155] on a curve like omega^(-1/2), one more
    swept = small_scan
    crit = locate_critical(swept)
    solved = fresh_solves({p.omega for p in swept.points} | {crit.omega_star})
    per_root, search = [], landscape.monotone_root

    def counted_search(*args, **kwargs):
        before = len(solved)
        result = search(*args, **kwargs)
        per_root.append(len(solved) - before)
        return result
    monkeypatch.setattr(landscape, "monotone_root", counted_search)
    result = classify_normalized(1.3 * crit.m0, swept, crit)
    assert result.branch_labels == (LOWER_BRANCH, UPPER_BRANCH)
    lower, upper = per_root
    assert lower <= 5 and upper <= 4
    assert set(result.frequencies) <= set(solved)


def test_table_inverts_each_branch_once_per_mass(small_scan, monkeypatch):
    # the record and the classification of a mass share its ground-branch
    # roots, and give the rows of the two public calls
    swept = small_scan
    crit = locate_critical(swept)
    calls = Counter()
    real_branch_roots = landscape._branch_roots

    def spy(m, curve, split, *args):
        calls[m, split] += 1
        return real_branch_roots(m, curve, split, *args)
    monkeypatch.setattr(landscape, "_branch_roots", spy)
    # on this scan m_threshold < m0 < m_q1 at 0.770 and 0.789 m_q1, so
    # these take every case: no inversion, the rescaled branch alone, both
    # branches, the Q_1 boundary and the ground branches alone
    assert crit.m_threshold < 0.78 * crit.m_q1 < crit.m0 < 0.9 * crit.m_q1
    masses = [r * crit.m_q1 for r in (0.5, 0.78, 0.9, 1.0, 1.5)]
    rows = landscape_table(masses, swept, crit)
    assert set(calls.values()) == {1}
    assert {split for _, split in calls} == {crit.omega_star, crit.omega_upper_star}
    assert rows == [(e_min_landscape(m, swept, crit),
                     classify_normalized(m, swept, crit)) for m in masses]


@pytest.mark.parametrize("ratio", [0.5, 0.9, 1.0, 1.5])
def test_table_row_is_the_standalone_pair(small_scan, monkeypatch, ratio):
    # below m_threshold, between m0 and M(Q_1), at M(Q_1) and above it the
    # row equals the two public calls, each made on an empty profile cache
    swept = small_scan
    crit = locate_critical(swept)
    assert crit.m_threshold < 0.78 * crit.m_q1 < crit.m0 < 0.9 * crit.m_q1
    m = ratio * crit.m_q1

    def cold(call, *args):
        monkeypatch.setattr(shooting, "_profile_cache", {})
        return call(*args, swept, crit)
    assert cold(landscape_table, [m]) == [(cold(e_min_landscape, m),
                                           cold(classify_normalized, m))]


class TestEMinLandscape:
    def test_subthreshold_masses_have_infinite_constrained_value(
            self, curve, crit):
        record = e_min_landscape(0.5 * crit.m_threshold, curve, crit)
        assert record.e_min == 0.0 and not record.e_min_achieved
        assert record.e_min_v is None and record.e_min_v_infinite
        assert record.minimizer_kind == KIND_NONE

    def test_between_thresholds(self, curve, crit):
        record = e_min_landscape(0.95 * crit.m_q1, curve, crit)
        assert record.e_min == 0.0 and not record.e_min_achieved
        assert not record.e_min_v_infinite
        assert record.e_min_v > 0.0

    def test_boundary_mass(self, curve, crit):
        record = e_min_landscape(crit.m_q1, curve, crit)
        assert record.e_min == 0.0 and record.e_min_achieved
        assert record.e_min_v == 0.0
        assert record.minimizer_kind == KIND_BOUNDARY_Q1

    def test_supercritical_mass(self, curve, crit):
        record = e_min_landscape(1.5 * crit.m_q1, curve, crit)
        assert record.e_min < 0.0 and record.e_min_achieved
        assert record.e_min_v == record.e_min
        assert record.minimizer_kind == KIND_GROUND_STATE

    def test_e_min_decreases_in_mass(self, curve, crit):
        values = [e_min_landscape(r * crit.m_q1, curve, crit).e_min
                  for r in (1.2, 1.6, 2.0)]
        assert values[0] > values[1] > values[2]


class TestLandscapeTable:
    def test_csv_columns(self, curve, crit, tmp_path):
        masses = [0.5 * crit.m_threshold, 1.5 * crit.m_q1]
        rows = landscape_table(masses, curve, crit)
        path = tmp_path / "landscape.csv"
        write_landscape_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("m,e_min,e_min_v,achieved,minimizer_kind,"
                            "count,omega1,omega2")
        assert len(lines) == 3
        assert "inf" in lines[1]
