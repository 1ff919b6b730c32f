"""Radial time evolution and linearized spectra.

The complex field evolves in the substituted variable w(r, t) = r*phi so
the 3D radial Laplacian becomes the plain second derivative w_rr with
Dirichlet conditions at both ends.  Time stepping is Crank-Nicolson with
the nonlinearity evaluated at the midpoint, solved by fixed-point
iteration per step; the scheme conserves the discrete mass exactly up to
the inner-solve residual.  An optional absorbing sponge damps outgoing
radiation in instability experiments (conservation checks are then
skipped, since the sponge removes mass by design).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import ConservationBreach, EigSolverStalled, InnerSolveDiverged, KindMismatch
from .profiles import GROUND_STATE, RadialProfile, ShootingConfig, even_grid
from .quadrature import simpson_uniform
from .shooting import solve_ground_state


@dataclass(frozen=True)
class LedgerEntry:
    time: float
    mass: float
    energy: float


@dataclass(frozen=True)
class EvolutionState:
    """Complex radial field w = r*phi on a uniform grid with its ledger."""

    grid: np.ndarray
    field: np.ndarray
    time: float
    ledger: tuple[LedgerEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "field", np.asarray(self.field, dtype=complex))
        if abs(self.field[0]) != 0.0 or abs(self.field[-1]) != 0.0:
            raise ValueError("w must vanish at the origin and the outer boundary")

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def phi(self) -> np.ndarray:
        """The physical field phi = w/r (origin value by parabolic limit)."""
        out = np.empty_like(self.field)
        out[1:] = self.field[1:] / self.grid[1:]
        out[0] = 2.0 * out[1] - out[2]
        return out


def _centred_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Centred differences, zero slope at the origin, one-sided at the edge."""
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d[0] = 0.0
    d[-1] = (f[-1] - f[-2]) / h
    return d


def _phi_derivative(state: EvolutionState) -> np.ndarray:
    return _centred_derivative(state.phi(), state.spacing)


def discrete_mass(state: EvolutionState) -> float:
    return 4.0 * math.pi * simpson_uniform(np.abs(state.field) ** 2, state.spacing)


def discrete_energy(state: EvolutionState) -> float:
    phi = state.phi()
    dphi = _phi_derivative(state)
    r2 = state.grid**2
    mod2 = np.abs(phi) ** 2
    integrand = (0.5 * np.abs(dphi) ** 2 - 0.25 * mod2**2 + mod2**3 / 6.0) * r2
    return 4.0 * math.pi * simpson_uniform(integrand, state.spacing)


def _ledger_entry(state: EvolutionState) -> LedgerEntry:
    return LedgerEntry(time=state.time, mass=discrete_mass(state),
                       energy=discrete_energy(state))


def soliton_state(profile: RadialProfile, radius: float | None = None,
                  spacing: float = 0.02, perturbation: float = 0.0) -> EvolutionState:
    """Initial data w = r*(1 + perturbation)*P on [0, R] with Dirichlet ends."""
    if radius is None:
        radius = 2.0 * profile.truncation_radius
    grid = even_grid(radius, spacing)
    u = profile.interpolate(grid)
    w = grid * (1.0 + perturbation) * u
    w[0] = 0.0
    w[-1] = 0.0
    state = EvolutionState(grid=grid, field=w, time=0.0)
    return replace(state, ledger=(_ledger_entry(state),))


def _sponge_profile(grid: np.ndarray, strength: float = 1.0) -> np.ndarray:
    """Absorbing layer ramping over the outer eighth of the domain."""
    radius = grid[-1]
    start = radius * (1.0 - 1.0 / 8.0)
    ramp = np.clip((grid - start) / (radius - start), 0.0, 1.0)
    return strength * ramp**2


def evolve(initial: EvolutionState, t_end: float, dt: float,
           sponge: bool = False, ledger_interval: float | None = None,
           inner_tol: float = 1e-12, max_inner: int = 60,
           conservation_tol: float = 1e-6) -> EvolutionState:
    """Crank-Nicolson march of i w_t + w_rr + (|w/r|^2 - |w/r|^4) w = 0.

    Midpoint nonlinearity with a fixed-point inner solve per step.  The
    ledger is appended every ``ledger_interval`` of simulated time
    (default: 100 samples over the run).  With the sponge off, relative
    mass and energy drifts beyond ``conservation_tol`` raise
    ConservationBreach.
    """
    if dt <= 0 or t_end <= initial.time:
        raise ValueError("need dt > 0 and t_end beyond the initial time")
    if max_inner < 1:
        raise ValueError("max_inner must be at least 1")
    if ledger_interval is None:
        ledger_interval = (t_end - initial.time) / 100.0
    grid = initial.grid
    h = initial.spacing
    n_interior = grid.size - 2
    r = grid[1:-1]
    inv_r2 = 1.0 / (r * r)

    # tridiagonal of w_rr on the interior (Dirichlet at both ends)
    lap_diag = np.full(n_interior, -2.0 / (h * h))
    lap_off = np.full(n_interior - 1, 1.0 / (h * h))
    gamma = _sponge_profile(grid)[1:-1] if sponge else 0.0

    w = initial.field[1:-1].copy()
    ledger = list(initial.ledger)
    if not ledger:
        ledger.append(_ledger_entry(initial))
    mass0 = ledger[0].mass
    energy0 = ledger[0].energy

    # (i/dt + L/2) w_next = (i/dt - L/2) w, L = d_rr + diag(nl) + i*gamma;
    # solve_banded copies ab, so its off-diagonal rows are set once
    half_off = 0.5 * lap_off
    half_gamma = 0.5j * gamma
    ab = np.zeros((3, n_interior), dtype=complex)
    ab[0, 1:] = half_off
    ab[2, :-1] = half_off
    time = initial.time
    next_sample = time + ledger_interval
    steps = int(round((t_end - time) / dt))
    scale = np.linalg.norm(w) + 1e-300

    for _ in range(steps):
        w_next = w.copy()
        # the parts of the right-hand side that do not depend on w_next
        off_upper = half_off * w[1:]
        off_lower = half_off * w[:-1]
        if sponge:
            damping = half_gamma * w
        converged = False
        for _ in range(max_inner):
            mid = 0.5 * (w + w_next)
            mod2 = np.abs(mid) ** 2 * inv_r2
            nl = mod2 - mod2 * mod2
            diag_half = 0.5 * (lap_diag + nl)
            rhs = (1j / dt - diag_half) * w
            rhs[:-1] -= off_upper
            rhs[1:] -= off_lower
            if sponge:
                rhs -= damping
            ab[1, :] = 1j / dt + diag_half
            if sponge:
                ab[1, :] += half_gamma
            candidate = solve_banded((1, 1), ab, rhs)
            delta = np.linalg.norm(candidate - w_next) / scale
            w_next = candidate
            if delta < inner_tol:
                converged = True
                break
        if not converged:
            raise InnerSolveDiverged(
                f"fixed-point iteration stalled at t={time:.4f} (delta={delta:.2e})"
            )
        if not np.all(np.isfinite(w_next)):
            raise InnerSolveDiverged(f"non-finite field at t={time:.4f}")
        w = w_next
        time += dt
        if time >= next_sample - 1e-12 or time >= t_end - 1e-12:
            entry = _ledger_entry(EvolutionState(grid=grid, field=np.pad(w, 1), time=time))
            ledger.append(entry)
            next_sample += ledger_interval
            if not sponge:
                mass_drift = abs(entry.mass - mass0) / mass0
                energy_drift = abs(entry.energy - energy0) / max(abs(energy0), 1e-12 * mass0)
                if mass_drift > conservation_tol or energy_drift > conservation_tol:
                    raise ConservationBreach(
                        f"drift at t={time:.3f}: mass {mass_drift:.2e}, "
                        f"energy {energy_drift:.2e} exceed {conservation_tol:g}"
                    )

    return EvolutionState(grid=grid, field=np.pad(w, 1), time=time, ledger=tuple(ledger))


def _h1_inner(grid, h, phi_a, dphi_a, phi_b, dphi_b) -> complex:
    r2 = grid**2
    integrand = (np.conj(phi_a) * phi_b + np.conj(dphi_a) * dphi_b) * r2
    return 4.0 * math.pi * (
        simpson_uniform(integrand.real, h) + 1j * simpson_uniform(integrand.imag, h)
    )


def modulated_distance(state: EvolutionState, references) -> float:
    """min over the reference family and phase of the H^1 distance.

    ``references`` is a list of (phi, dphi) sample pairs on the state's
    grid.  The phase minimum is closed-form: |phi - e^{i theta} psi|^2 is
    smallest at theta = arg<phi, psi>.
    """
    phi = state.phi()
    dphi = _phi_derivative(state)
    h = state.spacing
    norm_sq = _h1_inner(state.grid, h, phi, dphi, phi, dphi).real
    best = math.inf
    for psi, dpsi in references:
        ref_sq = _h1_inner(state.grid, h, psi, dpsi, psi, dpsi).real
        cross = abs(_h1_inner(state.grid, h, phi, dphi, psi, dpsi))
        dist_sq = max(norm_sq + ref_sq - 2.0 * cross, 0.0)
        best = min(best, math.sqrt(dist_sq))
    return best


def _reference_family(omega: float, grid: np.ndarray, cfg: ShootingConfig,
                      window: float = 0.10, count: int = 21):
    """Sampled soliton family P_{omega'} on a +-window frequency range."""
    h = float(grid[1] - grid[0])
    refs = []
    for omega_p in np.linspace((1.0 - window) * omega, (1.0 + window) * omega, count):
        psi = solve_ground_state(float(omega_p), cfg).interpolate(grid).astype(complex)
        refs.append((psi, _centred_derivative(psi, h)))
    return refs


EMPIRICALLY_STABLE = "empirically_stable"
EMPIRICALLY_UNSTABLE = "empirically_unstable"
INCONCLUSIVE = "inconclusive"


def stability_experiment(omega: float, perturbation_size: float, t_end: float = 100.0,
                         dt: float = 0.02, spacing: float = 0.03,
                         cfg: ShootingConfig | None = None,
                         stable_factor: float = 5.0,
                         unstable_factor: float = 10.0) -> dict:
    """Finite-time surrogate for the orbital stability dichotomy.

    Evolves (1 + size) * P_omega with an absorbing sponge and tracks the
    modulated H^1 distance to the soliton family over a +-10% frequency
    window; the verdict compares the worst distance to the initial one.
    """
    if not 0.0 <= perturbation_size <= 0.05:
        raise ValueError("perturbation_size must lie in [0, 0.05]")
    cfg = cfg or ShootingConfig()
    profile = solve_ground_state(omega, cfg)
    radius = 2.4 * profile.truncation_radius
    state = soliton_state(profile, radius=radius, spacing=spacing,
                          perturbation=perturbation_size)
    refs = _reference_family(omega, state.grid, cfg)

    sample_every = max(t_end / 50.0, dt)
    distances = [modulated_distance(state, refs)]
    times = [0.0]
    current = state
    t = 0.0
    while t < t_end - 1e-9:
        t_next = min(t + sample_every, t_end)
        current = evolve(current, t_next, dt, sponge=True,
                         ledger_interval=t_next - t)
        distances.append(modulated_distance(current, refs))
        times.append(t_next)
        t = t_next

    d0 = max(distances[0], 1e-14)
    max_distance = max(distances)
    growth_ratio = max_distance / d0
    if growth_ratio >= unstable_factor:
        verdict = EMPIRICALLY_UNSTABLE
    elif max_distance <= stable_factor * d0:
        verdict = EMPIRICALLY_STABLE
    else:
        verdict = INCONCLUSIVE
    return {
        "omega": omega,
        "perturbation_size": perturbation_size,
        "t_end": t_end,
        "dt": dt,
        "max_modulated_distance": max_distance,
        "initial_distance": distances[0],
        "growth_ratio": growth_ratio,
        "verdict": verdict,
        "times": times,
        "distances": distances,
        "thresholds": {"stable_factor": stable_factor,
                       "unstable_factor": unstable_factor},
    }


def linearized_spectra(ground: RadialProfile, n_eigs: int = 6,
                       spacing: float = 0.01, radius: float | None = None) -> dict:
    """Lowest radial eigenvalues of both linearized operators.

    L_plus = -Lap + omega - 3 P^2 + 5 P^4 acts on the real part of a
    perturbation; L_minus = -Lap + omega - P^2 + P^4 annihilates P itself.
    Both are reported: the L_minus kernel relation gives an exact residual
    check, and the single negative L_plus eigenvalue is the structural
    property of interest.
    Discretization: second-order differences in w = r*U, Dirichlet ends.
    """
    if ground.kind != GROUND_STATE or ground.omega is None:
        raise KindMismatch("spectra need a ground state with a frequency")
    omega = ground.omega
    if radius is None:
        radius = ground.truncation_radius + 60.0
    n = int(round(radius / spacing))
    grid = spacing * np.arange(1, n)  # interior nodes
    p = ground.interpolate(grid)
    p_sq = p * p

    base = 2.0 / (spacing * spacing)
    off = np.full(grid.size - 1, -1.0 / (spacing * spacing))
    out = {}
    for name, potential in (
        ("lplus_eigs", omega - 3.0 * p_sq + 5.0 * p_sq * p_sq),
        ("lminus_eigs", omega - p_sq + p_sq * p_sq),
    ):
        diag = base + potential
        try:
            vals = eigh_tridiagonal(diag, off, eigvals_only=True,
                                    select="i", select_range=(0, n_eigs - 1))
        except Exception as err:
            raise EigSolverStalled(f"eigenvalue solve failed: {err}") from err
        out[name] = [float(v) for v in vals]

    # discrete residual of the kernel relation L_minus P = 0
    w = grid * p
    lw = np.empty_like(w)
    lw[1:-1] = (2.0 * w[1:-1] - w[2:] - w[:-2]) / (spacing * spacing)
    lw[0] = (2.0 * w[0] - w[1]) / (spacing * spacing)
    lw[-1] = (2.0 * w[-1] - w[-2]) / (spacing * spacing)
    resid = lw + (omega - p_sq + p_sq * p_sq) * w
    out["lminus_residual"] = float(np.linalg.norm(resid) / np.linalg.norm(w))
    out["omega"] = omega
    return out


def write_experiment(result: dict, directory: str | Path, stem: str = "experiment"):
    """Experiment JSON plus the distance/ledger CSV."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {k: v for k, v in result.items() if k not in ("times", "distances")}
    payload["ledger_path"] = f"{stem}_ledger.csv"
    with (directory / f"{stem}.json").open("w") as fh:
        json.dump(payload, fh, indent=2)
    with (directory / f"{stem}_ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "distance"])
        for t, d in zip(result["times"], result["distances"]):
            writer.writerow([repr(t), repr(d)])
