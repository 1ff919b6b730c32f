from types import SimpleNamespace

import numpy as np
import pytest

from cqnls import landscape
from cqnls.curves import (CRITICAL, STABLE, UNSTABLE, CriticalFrequencies,
                          FrequencyCurve, FrequencyCurvePoint)
from cqnls.errors import MassBeyondScan
from cqnls.landscape import (CRITICAL_BRANCH, KIND_BOUNDARY_Q1,
                             KIND_GROUND_STATE, KIND_NONE, LOWER_BRANCH,
                             UPPER_BRANCH, classify_normalized,
                             e_min_landscape, landscape_table,
                             write_landscape_csv)


class TestClassifyNormalized:
    def test_below_minimum_mass(self, curve, crit, cfg):
        result = classify_normalized(0.5 * crit.m0, curve, crit, cfg)
        assert result.count == 0
        assert result.frequencies == ()

    def test_at_minimum_mass(self, curve, crit, cfg):
        result = classify_normalized(crit.m0, curve, crit, cfg)
        assert result.count == 1
        assert result.frequencies == (crit.omega_star,)
        assert result.branch_labels == (CRITICAL_BRANCH,)
        assert result.stability_labels == (CRITICAL,)

    def test_above_minimum_mass(self, curve, crit, cfg):
        result = classify_normalized(1.3 * crit.m0, curve, crit, cfg)
        assert result.count == 2
        lower, upper = result.frequencies
        assert lower < crit.omega_star < upper
        assert result.branch_labels == (LOWER_BRANCH, UPPER_BRANCH)
        assert result.stability_labels == (UNSTABLE, STABLE)

    def test_rejects_nonpositive_mass(self, curve, crit, cfg):
        with pytest.raises(ValueError):
            classify_normalized(-1.0, curve, crit, cfg)

    def test_mass_beyond_scan(self, curve, crit, cfg):
        # both branches top out below this (upper endpoint mass ~1.7e7)
        with pytest.raises(MassBeyondScan):
            classify_normalized(1e9, curve, crit, cfg)

    def test_branch_skipped_when_out_of_window(self, curve, crit, cfg):
        # beyond the lower branch's scanned masses only the upper branch counts
        max_lower = max(p.mass for p in curve.points
                        if p.omega < crit.omega_star)
        result = classify_normalized(1.2 * max_lower, curve, crit, cfg)
        assert result.count == 1
        assert result.branch_labels == (UPPER_BRANCH,)

    def test_as_dict_roundtrip(self, curve, crit, cfg):
        result = classify_normalized(1.3 * crit.m0, curve, crit, cfg)
        payload = result.as_dict()
        assert payload["count"] == 2
        assert len(payload["frequencies"]) == 2


class TestBranchDirection:
    """Synthetic mass curve M = 50 + K (omega - 0.024)^2, minimum at 0.024."""

    K = 50.0 / 0.036**2  # M(0.06) = 100

    def mass(self, omega):
        return 50.0 + self.K * (omega - 0.024) ** 2

    def test_single_upper_node_left_of_root(self, monkeypatch):
        # the only scanned node inside the upper interval lies below the
        # target on the increasing branch, so the root is to its right
        monkeypatch.setattr(landscape, "solve_ground_state", lambda om, cfg: om)
        monkeypatch.setattr(landscape, "evaluate",
                            lambda om: SimpleNamespace(mass=self.mass(om)))
        points = tuple(
            FrequencyCurvePoint(om, self.mass(om), 0.0, 0.5, 0.0, 1.0, 0.0, 0.0)
            for om in (0.005, 0.01, 0.06, 0.15))
        crit = CriticalFrequencies(0.024, 0.1, m0=50.0, m_q1=1000.0,
                                   m_threshold=500.0, mass_argmin=0.024)
        result = classify_normalized(150.0, FrequencyCurve(points), crit)
        assert result.branch_labels == (UPPER_BRANCH,)
        assert result.frequencies[0] == pytest.approx(
            0.024 + (100.0 / self.K) ** 0.5, rel=1e-6)


class TestEMinLandscape:
    def test_subthreshold_masses_have_infinite_constrained_value(
            self, curve, crit, cfg):
        record = e_min_landscape(0.5 * crit.m_threshold, curve, crit, cfg)
        assert record.e_min == 0.0 and not record.e_min_achieved
        assert record.e_min_v is None and record.e_min_v_infinite
        assert record.minimizer_kind == KIND_NONE

    def test_between_thresholds(self, curve, crit, cfg):
        record = e_min_landscape(0.95 * crit.m_q1, curve, crit, cfg)
        assert record.e_min == 0.0 and not record.e_min_achieved
        assert not record.e_min_v_infinite
        assert record.e_min_v > 0.0

    def test_boundary_mass(self, curve, crit, cfg):
        record = e_min_landscape(crit.m_q1, curve, crit, cfg)
        assert record.e_min == 0.0 and record.e_min_achieved
        assert record.e_min_v == 0.0
        assert record.minimizer_kind == KIND_BOUNDARY_Q1

    def test_supercritical_mass(self, curve, crit, cfg):
        record = e_min_landscape(1.5 * crit.m_q1, curve, crit, cfg)
        assert record.e_min < 0.0 and record.e_min_achieved
        assert record.e_min_v == record.e_min
        assert record.minimizer_kind == KIND_GROUND_STATE

    def test_e_min_decreases_in_mass(self, curve, crit, cfg):
        values = [e_min_landscape(r * crit.m_q1, curve, crit, cfg).e_min
                  for r in (1.2, 1.6, 2.0)]
        assert values[0] > values[1] > values[2]


class TestLandscapeTable:
    def test_csv_columns(self, curve, crit, cfg, tmp_path):
        masses = [0.5 * crit.m_threshold, 1.5 * crit.m_q1]
        rows = landscape_table(masses, curve, crit, cfg)
        path = tmp_path / "landscape.csv"
        write_landscape_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("m,e_min,e_min_v,achieved,minimizer_kind,"
                            "count,omega1,omega2")
        assert len(lines) == 3
        assert "inf" in lines[1]
