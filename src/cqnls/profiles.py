"""Radial profile container.

A profile lives on a uniform half-line grid starting at r = 0 and carries
both the sampled values and the matched exponential tail, so that moment
integrals can include the analytic continuation beyond the stored window.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteIntegrand

OMEGA_MAX = 3.0 / 16.0

GROUND_STATE = "ground_state"
RESCALED_SOLITON = "rescaled_soliton"
CUBIC_REFERENCE = "cubic_reference"
TEST_FUNCTION = "test_function"


def even_grid(extent: float, spacing: float, down: bool = False) -> np.ndarray:
    """Uniform grid ``spacing * [0, 1, ..., n]`` with an even interval count
    n, as composite Simpson needs: ``extent / spacing`` rounded and bumped
    up to even, or floored and dropped to even with ``down``."""
    if down:
        n = int(math.floor(extent / spacing))
        if spacing * n > extent:
            # the quotient rounded up onto an integer (1.9 / 0.005 -> 380.0)
            n -= 1
        n -= n % 2
    else:
        n = int(round(extent / spacing))
        n += n % 2
    return spacing * np.arange(n + 1)


@dataclass(frozen=True)
class RadialProfile:
    """A real radial function u(r) with derivative samples and tail data.

    ``grid`` is uniform with r[0] = 0 and an even number of intervals, as
    composite Simpson needs.  Beyond its last node, ``truncation_radius``,
    the function continues as ``tail_constant * exp(-decay_rate*r) / r``;
    ``amplitude`` is the first sample u(0).  ``decay_rate`` is sqrt(omega)
    for ground states and 1 for the cubic reference state; it is 0 for
    test functions, which carry no tail.
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    omega: float | None
    tail_constant: float
    kind: str
    decay_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "derivs", np.asarray(self.derivs, dtype=float))
        self.grid.setflags(write=False)
        self.values.setflags(write=False)
        self.derivs.setflags(write=False)

    @property
    def amplitude(self) -> float:
        return float(self.values[0])

    @property
    def truncation_radius(self) -> float:
        return float(self.grid[-1])

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def require_finite(self):
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.derivs))):
            raise NonFiniteIntegrand("profile contains non-finite samples")

    def interpolate(self, r):
        """Evaluate u(r) with cubic Hermite accuracy inside the stored
        window (the stored derivative samples pin the slopes) and the
        analytic tail beyond it.

        The cubic is scipy's ``CubicHermiteSpline``, bit for bit: its
        ``PPoly`` coefficients on the interval of each point, summed in
        powers of the offset from the interval's left node.
        """
        r = np.asarray(r, dtype=float)
        x, y, dydx = self.grid, self.values, self.derivs
        at = np.clip(r, x[0], x[-1]).reshape(-1)
        # interval i holds x[i] <= at < x[i+1]; the right end joins the last
        i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
        dx = x[i + 1] - x[i]
        slope = (y[i + 1] - y[i]) / dx
        t = (dydx[i] + dydx[i + 1] - 2 * slope) / dx
        s = at - x[i]
        s2 = s * s
        out = (y[i] + dydx[i] * s + ((slope - dydx[i]) / dx - t) * s2
               + t / dx * (s2 * s)).reshape(r.shape)
        if self.decay_rate > 0:
            mask = r > self.truncation_radius
            if np.any(mask):
                out[mask] = self.tail_constant * np.exp(-self.decay_rate * r[mask]) / r[mask]
        return out

    def to_csv(self, path: str | Path):
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "u", "u_prime"])
            # csv writes a float as its repr
            writer.writerows(zip(self.grid.tolist(), self.values.tolist(), self.derivs.tolist()))

    def sidecar(self, ode_tolerance: float | None = None, residuals: dict | None = None) -> dict:
        meta = {
            "omega": self.omega,
            "amplitude": self.amplitude,
            "tail_constant": self.tail_constant,
            "truncation_radius": self.truncation_radius,
            "decay_rate": self.decay_rate,
            "kind": self.kind,
        }
        if residuals:
            meta["residuals"] = residuals
        if ode_tolerance is not None:
            meta["ode_tolerance"] = ode_tolerance
        return meta

    def save(self, directory: str | Path, ode_tolerance: float | None = None,
             residuals: dict | None = None, stem: str = "profile"):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.to_csv(directory / f"{stem}.csv")
        with (directory / f"{stem}.json").open("w") as fh:
            json.dump(self.sidecar(ode_tolerance, residuals), fh, indent=2)

    @classmethod
    def from_csv(cls, csv_path: str | Path, json_path: str | Path) -> "RadialProfile":
        """The profile ``save`` wrote; its amplitude and truncation radius
        are read off the CSV grid, not the sidecar."""
        csv_path, json_path = Path(csv_path), Path(json_path)
        data = np.genfromtxt(csv_path, delimiter=",", skip_header=1)
        with json_path.open() as fh:
            meta = json.load(fh)
        return cls(
            grid=data[:, 0], values=data[:, 1], derivs=data[:, 2],
            omega=meta["omega"], tail_constant=meta["tail_constant"],
            kind=meta["kind"], decay_rate=meta["decay_rate"],
        )


def test_function_profile(func, dfunc, r_max: float = 12.0, spacing: float = 0.005) -> RadialProfile:
    """Wrap a smooth rapidly decaying callable as a test_function profile."""
    grid = even_grid(r_max, spacing)
    vals = np.asarray(func(grid), dtype=float)
    dvals = np.asarray(dfunc(grid), dtype=float)
    return RadialProfile(
        grid=grid, values=vals, derivs=dvals, omega=None,
        tail_constant=0.0, kind=TEST_FUNCTION, decay_rate=0.0,
    )
