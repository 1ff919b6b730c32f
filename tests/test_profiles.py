import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.errors import NonFiniteIntegrand
from cqnls.profiles import (GROUND_STATE, TEST_FUNCTION, RadialProfile,
                            ShootingConfig, even_grid)
from cqnls.profiles import test_function_profile as make_test_function


def make_profile():
    grid = np.linspace(0.0, 10.0, 501)
    safe = np.maximum(grid, 1e-12)
    vals = np.exp(-grid) / safe
    vals[0] = vals[1]
    ders = -np.exp(-grid) * (1.0 / safe + 1.0 / safe**2)
    ders[0] = 0.0
    return RadialProfile(
        grid=grid, values=vals, derivs=ders, omega=1.0, amplitude=vals[0],
        tail_constant=1.0, truncation_radius=10.0, kind=GROUND_STATE,
        decay_rate=1.0,
    )


class TestShootingConfig:
    def test_defaults_valid(self):
        cfg = ShootingConfig()
        assert cfg.ode_tolerance == 1e-12

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            ShootingConfig(amplitude_bracket=(0.5, 0.1))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            ShootingConfig(ode_tolerance=0.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ShootingConfig(matching_window=(1e-2, 1e-4))

    def test_fingerprint_stable_and_sensitive(self):
        assert ShootingConfig().fingerprint() == ShootingConfig().fingerprint()
        assert ShootingConfig().fingerprint() != \
            ShootingConfig(ode_tolerance=1e-10).fingerprint()


class TestRadialProfile:
    def test_arrays_frozen(self):
        p = make_profile()
        with pytest.raises(ValueError):
            p.values[0] = 0.0

    def test_tail_continuation(self):
        p = make_profile()
        r = 12.5
        assert p.interpolate(r) == pytest.approx(np.exp(-r) / r, rel=1e-12)

    def test_interpolate_matches_samples(self):
        p = make_profile()
        r = np.array([3.3333, 7.77, 11.0])
        exact = np.exp(-r) / r
        assert np.allclose(p.interpolate(r), exact, rtol=1e-6)

    def test_require_finite(self):
        grid = np.linspace(0.0, 1.0, 11)
        vals = np.ones_like(grid)
        vals[5] = np.nan
        p = RadialProfile(grid=grid, values=vals, derivs=np.zeros_like(grid),
                          omega=None, amplitude=1.0, tail_constant=0.0,
                          truncation_radius=1.0, kind=TEST_FUNCTION)
        with pytest.raises(NonFiniteIntegrand):
            p.require_finite()

    def test_csv_roundtrip(self, tmp_path):
        p = make_profile()
        p.save(tmp_path, stem="prof")
        back = RadialProfile.from_csv(tmp_path / "prof.csv", tmp_path / "prof.json")
        assert np.allclose(back.values, p.values)
        assert back.decay_rate == p.decay_rate
        assert back.kind == p.kind


def test_test_function_profile_even_node_count():
    p = make_test_function(lambda r: np.exp(-r**2),
                           lambda r: -2 * r * np.exp(-r**2), r_max=7.0)
    assert p.grid.size % 2 == 1  # even interval count for composite Simpson
    assert p.kind == TEST_FUNCTION
    assert p.tail_constant == 0.0


@settings(deadline=None)
@given(extent=st.floats(0.0, 500.0), spacing=st.floats(0.005, 1.0),
       down=st.booleans())
def test_even_grid_even_intervals_at_exact_spacing(extent, spacing, down):
    grid = even_grid(extent, spacing, down)
    n = grid.size - 1
    assert n % 2 == 0
    assert np.array_equal(grid, spacing * np.arange(n + 1))
    if down:
        assert grid[-1] <= extent
    else:
        assert abs(grid[-1] - extent) <= 1.5 * spacing
