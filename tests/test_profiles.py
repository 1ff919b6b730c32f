import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqnls.errors import NonFiniteIntegrand
from cqnls.profiles import GROUND_STATE, TEST_FUNCTION, RadialProfile, even_grid
from cqnls.profiles import test_function_profile as make_test_function


def make_profile():
    grid = np.linspace(0.0, 10.0, 501)
    safe = np.maximum(grid, 1e-12)
    vals = np.exp(-grid) / safe
    vals[0] = vals[1]
    ders = -np.exp(-grid) * (1.0 / safe + 1.0 / safe**2)
    ders[0] = 0.0
    return RadialProfile(
        grid=grid, values=vals, derivs=ders, omega=1.0,
        tail_constant=1.0, kind=GROUND_STATE, decay_rate=1.0,
    )


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

    def test_csv_rows_are_the_reprs_of_the_samples(self, tmp_path):
        # the rows written from Python floats are those of each numpy
        # scalar's repr, down to subnormals and signed zeros
        p = make_profile()
        ders = p.derivs.copy()
        ders[1:4] = -0.0, 5e-324, -1.7976931348623157e308
        p = RadialProfile(grid=p.grid, values=p.values, derivs=ders, omega=1.0,
                          tail_constant=1.0, kind=GROUND_STATE, decay_rate=1.0)
        p.to_csv(tmp_path / "p.csv")
        rows = [f"{float(r)!r},{float(u)!r},{float(up)!r}\r\n"
                for r, u, up in zip(p.grid, p.values, p.derivs)]
        assert (tmp_path / "p.csv").read_bytes().decode() == "r,u,u_prime\r\n" + "".join(rows)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), spacing=st.floats(0.001, 0.5), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-12.0, 3.0), points=st.integers(1, 50))
    def test_hermite_matches_scipy(self, n, spacing, seed, scale, points):
        # bit for bit scipy's CubicHermiteSpline inside the stored window:
        # at drawn interior points, at every node and at both ends
        from scipy.interpolate import CubicHermiteSpline

        rng = np.random.default_rng(seed)
        grid = spacing * np.arange(2 * n + 1)
        vals = 10.0**scale * rng.standard_normal(grid.size)
        ders = rng.standard_normal(grid.size)
        p = RadialProfile(grid=grid, values=vals, derivs=ders, omega=None,
                          tail_constant=0.0, kind=TEST_FUNCTION)
        r = np.concatenate([rng.uniform(grid[0], grid[-1], points), grid,
                            [grid[0], grid[-1], np.nextafter(grid[-1], 0.0)]])
        expected = CubicHermiteSpline(grid, vals, ders)(r)
        assert np.array_equal(p.interpolate(r), expected)
        assert p.interpolate(float(r[0])) == expected[0]

    def test_hermite_clamps_outside_window(self):
        # without a tail the ends are held, as before
        p = make_test_function(lambda r: np.exp(-r), lambda r: -np.exp(-r), r_max=2.0)
        assert np.array_equal(p.interpolate(np.array([-1.0, 3.0])),
                              p.interpolate(p.grid[[0, -1]]))

    def test_require_finite(self):
        grid = np.linspace(0.0, 1.0, 11)
        vals = np.ones_like(grid)
        vals[5] = np.nan
        p = RadialProfile(grid=grid, values=vals, derivs=np.zeros_like(grid),
                          omega=None, tail_constant=0.0, kind=TEST_FUNCTION)
        with pytest.raises(NonFiniteIntegrand):
            p.require_finite()

    def test_csv_roundtrip(self, tmp_path):
        p = make_profile()
        p.save(tmp_path, stem="prof")
        back = RadialProfile.from_csv(tmp_path / "prof.csv", tmp_path / "prof.json")
        assert np.allclose(back.values, p.values)
        assert back.decay_rate == p.decay_rate
        assert back.kind == p.kind


def test_reload_takes_the_tail_start_from_the_csv(ground_009, tmp_path):
    # a sidecar whose truncation radius disagrees with the CSV grid does not
    # move the tail's start: the nodes are the stored samples, to rounding
    # at the last one, where the cubic of the last interval ends
    ground_009.save(tmp_path)
    sidecar = tmp_path / "profile.json"
    meta = json.loads(sidecar.read_text())
    meta["truncation_radius"] /= 2.0
    sidecar.write_text(json.dumps(meta))
    back = RadialProfile.from_csv(tmp_path / "profile.csv", sidecar)
    assert np.array_equal(back.interpolate(back.grid[:-1]), back.values[:-1])
    assert back.interpolate(back.grid[-1]) == pytest.approx(back.values[-1], rel=1e-12)
    assert back.truncation_radius == ground_009.truncation_radius == back.grid[-1]
    assert back.amplitude == ground_009.amplitude == back.values[0]


def test_test_function_profile_even_node_count():
    p = make_test_function(lambda r: np.exp(-r**2),
                           lambda r: -2 * r * np.exp(-r**2), r_max=7.0)
    assert p.grid.size % 2 == 1  # even interval count for composite Simpson
    assert p.kind == TEST_FUNCTION
    assert p.tail_constant == 0.0


@settings(deadline=None)
@given(extent=st.floats(0.0, 500.0), spacing=st.floats(0.005, 1.0),
       down=st.booleans())
@example(extent=1.9, spacing=0.005, down=True)  # quotient rounds up to 380.0
def test_even_grid_even_intervals_at_exact_spacing(extent, spacing, down):
    grid = even_grid(extent, spacing, down)
    n = grid.size - 1
    assert n % 2 == 0
    assert np.array_equal(grid, spacing * np.arange(n + 1))
    if down:
        assert grid[-1] <= extent
    else:
        assert abs(grid[-1] - extent) <= 1.5 * spacing
