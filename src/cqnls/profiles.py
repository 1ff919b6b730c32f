"""Radial profile container and shooting configuration.

A profile lives on a uniform half-line grid starting at r = 0 and carries
both the sampled values and the matched exponential tail, so that moment
integrals can include the analytic continuation beyond the stored window.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, asdict
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
        n -= n % 2
    else:
        n = int(round(extent / spacing))
        n += n % 2
    return spacing * np.arange(n + 1)


@dataclass(frozen=True)
class ShootingConfig:
    """Knobs for the amplitude-shooting solver.

    ``amplitude_bracket`` of ``None`` selects the phase-plane default
    bracket for the given frequency.  ``max_radius`` of ``None`` selects
    ``max(40/sqrt(omega), 60)``.
    """

    amplitude_bracket: tuple[float, float] | None = None
    ode_tolerance: float = 1e-12
    bisection_tolerance: float = 1e-14
    max_radius: float | None = None
    matching_window: tuple[float, float] = (3e-5, 3e-3)
    taylor_start_step: float = 1e-3
    grid_spacing: float = 0.02
    tail_tol: float = 1e-3

    def __post_init__(self):
        if self.amplitude_bracket is not None:
            a_lo, a_hi = self.amplitude_bracket
            if not a_lo < a_hi:
                raise ValueError("amplitude bracket must satisfy a_lo < a_hi")
        if self.ode_tolerance <= 0 or self.bisection_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        w_lo, w_hi = self.matching_window
        if not 0 < w_lo < w_hi < 1:
            raise ValueError("matching window must satisfy 0 < lo < hi < 1")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RadialProfile:
    """A real radial function u(r) with derivative samples and tail data.

    ``grid`` is uniform with r[0] = 0.  Beyond ``truncation_radius`` the
    function continues as ``tail_constant * exp(-decay_rate*r) / r``.
    ``decay_rate`` is sqrt(omega) for ground states and 1 for the cubic
    reference state; it is 0 for test functions, which carry no tail.
    """

    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    omega: float | None
    amplitude: float
    tail_constant: float
    truncation_radius: float
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
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def require_finite(self):
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.derivs))):
            raise NonFiniteIntegrand("profile contains non-finite samples")

    def interpolate(self, r):
        """Evaluate u(r) with cubic Hermite accuracy inside the stored
        window (the stored derivative samples pin the slopes) and the
        analytic tail beyond it."""
        from scipy.interpolate import CubicHermiteSpline

        r = np.asarray(r, dtype=float)
        spline = CubicHermiteSpline(self.grid, self.values, self.derivs)
        out = spline(np.clip(r, self.grid[0], self.grid[-1]))
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
            for r, u, up in zip(self.grid, self.values, self.derivs):
                writer.writerow([repr(float(r)), repr(float(u)), repr(float(up))])

    def sidecar(self, cfg: ShootingConfig | None = None, residuals: dict | None = None) -> dict:
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
        if cfg is not None:
            meta["cfg_hash"] = cfg.fingerprint()
        return meta

    def save(self, directory: str | Path, cfg: ShootingConfig | None = None,
             residuals: dict | None = None, stem: str = "profile"):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.to_csv(directory / f"{stem}.csv")
        with (directory / f"{stem}.json").open("w") as fh:
            json.dump(self.sidecar(cfg, residuals), fh, indent=2)

    @classmethod
    def from_csv(cls, csv_path: str | Path, json_path: str | Path) -> "RadialProfile":
        csv_path, json_path = Path(csv_path), Path(json_path)
        data = np.genfromtxt(csv_path, delimiter=",", skip_header=1)
        with json_path.open() as fh:
            meta = json.load(fh)
        return cls(
            grid=data[:, 0], values=data[:, 1], derivs=data[:, 2],
            omega=meta["omega"], amplitude=meta["amplitude"],
            tail_constant=meta["tail_constant"],
            truncation_radius=meta["truncation_radius"],
            kind=meta["kind"], decay_rate=meta["decay_rate"],
        )


def test_function_profile(func, dfunc, r_max: float = 12.0, spacing: float = 0.005) -> RadialProfile:
    """Wrap a smooth rapidly decaying callable as a test_function profile."""
    grid = even_grid(r_max, spacing)
    vals = np.asarray(func(grid), dtype=float)
    dvals = np.asarray(dfunc(grid), dtype=float)
    return RadialProfile(
        grid=grid, values=vals, derivs=dvals, omega=None,
        amplitude=float(vals[0]), tail_constant=0.0,
        truncation_radius=float(grid[-1]), kind=TEST_FUNCTION, decay_rate=0.0,
    )
