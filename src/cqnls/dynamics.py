"""Radial time evolution and linearized spectra.

The complex field evolves in the substituted variable w(r, t) = r*phi so
the 3D radial Laplacian becomes the plain second derivative w_rr with
Dirichlet conditions at both ends.  Time stepping is Strang splitting
(Bao-Jin-Markowich): the nonlinearity only rotates the phase of w, so it
is solved exactly, as cos + i sin of the real angle, and the linear part
takes a Crank-Nicolson step whose tridiagonal matrix is factored once per
call, with no row interchange, into unit bidiagonal factors and
reciprocal pivots: two unit-triangular solves and one product per step,
in buffers made once per call.  Both
parts keep sum |w|^2 to rounding, and with it the discrete mass of a
smooth field.  Times are the initial
time plus whole steps, and the field is checked for nan and inf at each
ledger sample and at the end of a call.  An optional absorbing sponge
damps outgoing radiation in instability experiments (conservation checks
are then skipped, since the sponge removes mass by design).  The stability
experiment measures the modulated H^1 distance to the soliton family: 7
ground states solved over +-10% of the frequency and the degree-6
polynomial through them in omega, whose Gram matrix is computed once,
with the family, so that the distance's minimum over the family is a
closed form in seven products with the state.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConservationBreach, EigSolverStalled, InnerSolveDiverged, KindMismatch
from .lapack import dstebz, zgttrf, ztbtrs
from .profiles import GROUND_STATE, RadialProfile, even_grid
from .quadrature import simpson_uniform
from .shooting import ODE_TOLERANCE, solve_ground_state


def __getattr__(name):
    # not called here: the benchmark's traced mode rebinds
    # dynamics.solve_banded to count banded solves, so the name resolves,
    # with a lazy import of scipy.linalg, until that tracer drops it
    if name == "solve_banded":
        from scipy.linalg import solve_banded
        return solve_banded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """Centred differences along the last axis, zero slope at the origin,
    one-sided at the edge."""
    d = np.empty_like(f)
    d[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    d[..., 0] = 0.0
    d[..., -1] = (f[..., -1] - f[..., -2]) / h
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
    """Initial data w = r*(1 + perturbation)*P on [0, R] with Dirichlet ends.

    The grid must reach the profile's truncation radius: a cut inside the
    stored profile jumps to zero at the Dirichlet end.
    """
    if radius is None:
        radius = 2.0 * profile.truncation_radius
    grid = even_grid(radius, spacing)
    if grid[-1] < profile.truncation_radius:
        raise ValueError(f"grid ends at r={grid[-1]:g}, inside the profile's "
                         f"truncation radius {profile.truncation_radius:g}")
    u = profile.interpolate(grid)
    w = grid * (1.0 + perturbation) * u
    w[0] = 0.0
    w[-1] = 0.0
    state = EvolutionState(grid=grid, field=w, time=0.0)
    return replace(state, ledger=(_ledger_entry(state),))


def _sponge_profile(grid: np.ndarray) -> np.ndarray:
    """Absorbing layer ramping quadratically from 0 to 1 over the outer
    eighth of the domain."""
    radius = grid[-1]
    start = radius * (1.0 - 1.0 / 8.0)
    return np.clip((grid - start) / (radius - start), 0.0, 1.0) ** 2


def _crank_nicolson_matrix(grid: np.ndarray, dt: float,
                           sponge: bool) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric tridiagonal M = i/dt + A/2
    on the interior of ``grid``, A = d_rr + i*gamma with Dirichlet ends
    and gamma the sponge (or 0): the Crank-Nicolson step
    (i/dt + A/2) w_next = (i/dt - A/2) w is w_next = (2i/dt) M^-1 w - w."""
    h = float(grid[1] - grid[0])
    diag = np.full(grid.size - 2, 1j / dt - 1.0 / (h * h))
    if sponge:
        diag += 0.5j * _sponge_profile(grid)[1:-1]
    off = np.full(grid.size - 3, 0.5 / (h * h), dtype=complex)
    return diag, off


def _phase(w: np.ndarray, inv_r2: np.ndarray, tau: float, scratch: tuple) -> np.ndarray:
    """Exact flow of i w_t + (rho - rho^2) w = 0 over tau, rho = |w/r|^2:
    a rotation that keeps |w| at every node, applied to w in place.
    ``scratch`` is two real buffers and a complex one, each of w's size."""
    rho, theta, rotation = scratch
    np.multiply(w.real, w.real, out=rho)
    np.multiply(w.imag, w.imag, out=theta)
    np.add(rho, theta, out=rho)
    np.multiply(rho, inv_r2, out=rho)
    np.multiply(rho, rho, out=theta)
    np.subtract(rho, theta, out=theta)
    np.multiply(tau, theta, out=theta)
    # cos + i sin of the real angle: the same rotation as
    # np.exp(1j * theta), without the complex exponential's cost; each is
    # taken into a contiguous buffer, as an allocating call would be
    np.cos(theta, out=rho)
    rotation.real = rho
    np.sin(theta, out=rho)
    rotation.imag = rho
    return np.multiply(w, rotation, out=w)


def evolve(initial: EvolutionState, t_end: float, dt: float,
           sponge: bool = False, ledger_interval: float | None = None,
           conservation_tol: float = 1e-6) -> EvolutionState:
    """Strang-split march of i w_t + w_rr + (|w/r|^2 - |w/r|^4) w = 0.

    Each step is a nonlinear half-step, a Crank-Nicolson step of the
    linear part i w_t + w_rr + i gamma w = 0 (gamma the sponge) and a
    second nonlinear half-step.  The nonlinear half-steps are exact phase
    rotations (``_phase``), and adjacent ones merge into one full phase
    except at ledger samples and at the end of the call.  The linear
    matrix M is the same at every step, so it is factored once per call.
    Its off-diagonal is c = 1/(2h^2) and its diagonal
    a = -2c + i(1/dt + gamma/2), so |a| > 2c and every pivot of the
    elimination has |d_k| >= |a| - c^2/|d_(k-1)| > c: LU with partial
    pivoting (``zgttrf``) exchanges no rows, and M = L diag(d) U with
    unit bidiagonal L and U.  A step solves with L, multiplies by
    (2i/dt)/d and solves with U, dividing by no pivot.
    The call takes the whole number of steps nearest to
    (t_end - initial.time)/dt, and raises ValueError when that is none.
    The k-th step ends at ``initial.time + k * dt``; the ledger is appended
    every ``ledger_interval`` of simulated time (default: 100 samples over
    the run) and at ``t_end`` if a step ends there.  With the sponge off, relative mass and
    energy drifts beyond ``conservation_tol`` raise ConservationBreach.  A
    non-finite field raises InnerSolveDiverged at the next ledger sample or
    the end of the call, whichever comes first.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)) or dt <= 0 or t_end <= initial.time:
        raise ValueError("need finite t_end and dt, dt > 0 and t_end beyond the initial time")
    steps = int(round((t_end - initial.time) / dt))
    if steps == 0:
        raise ValueError(f"t_end={t_end} lies within dt/2 of the initial time: no step to take")
    if ledger_interval is None:
        ledger_interval = (t_end - initial.time) / 100.0
    grid = initial.grid
    inv_r2 = 1.0 / grid[1:-1] ** 2

    diag, off = _crank_nicolson_matrix(grid, dt, sponge)
    lower_factor, pivots, upper_factor, _, _, info = zgttrf(off, diag, off)
    if info != 0:
        raise InnerSolveDiverged(f"singular linear step (zgttrf info={info})")
    # the unit bidiagonal factors in LAPACK's band layout, in Fortran order
    # as ztbtrs reads them (its diagonal row is not referenced)
    lower = np.ones((2, diag.size), dtype=complex, order="F")
    lower[1, :-1] = lower_factor
    upper = np.ones((2, diag.size), dtype=complex, order="F")
    upper[0, 1:] = upper_factor / pivots[:-1]
    scale = (2j / dt) / pivots

    # the field, the phase's scratch and the solve's right-hand side are
    # buffers reused by every step; ztbtrs overwrites the right-hand side
    w = initial.field[1:-1].copy()
    scratch = (np.empty(w.size), np.empty(w.size), np.empty_like(w))
    rhs = np.empty_like(w)
    ledger = list(initial.ledger)
    if not ledger:
        ledger.append(_ledger_entry(initial))
    mass0 = ledger[0].mass
    energy0 = ledger[0].energy

    # times come from the step and sample counts: a running sum of dt
    # drifts past the 1e-12 slack over thousands of steps
    t0 = initial.time
    samples = 1
    opening = 0.5 * dt

    for step in range(1, steps + 1):
        _phase(w, inv_r2, opening, scratch)
        np.copyto(rhs, w)
        ztbtrs(lower, rhs, b"L", b"N", b"U", 1)
        np.multiply(rhs, scale, out=rhs)
        ztbtrs(upper, rhs, b"U", b"N", b"U", 1)
        np.subtract(rhs, w, out=w)
        time = t0 + step * dt
        sample = (time >= t0 + samples * ledger_interval - 1e-12
                  or time >= t_end - 1e-12)
        if not (sample or step == steps):
            opening = dt
            continue
        _phase(w, inv_r2, 0.5 * dt, scratch)
        opening = 0.5 * dt
        # a nan or inf survives the rotation and the tridiagonal solve, so
        # checking here catches it by the next sample at the latest
        if not np.all(np.isfinite(w)):
            raise InnerSolveDiverged(f"non-finite field at t={time:.4f}")
        if sample:
            entry = _ledger_entry(EvolutionState(grid=grid, field=np.pad(w, 1), time=time))
            ledger.append(entry)
            samples += 1
            if not sponge:
                mass_drift = abs(entry.mass - mass0) / mass0
                energy_drift = abs(entry.energy - energy0) / max(abs(energy0), 1e-12 * mass0)
                if mass_drift > conservation_tol or energy_drift > conservation_tol:
                    raise ConservationBreach(
                        f"drift at t={time:.3f}: mass {mass_drift:.2e}, "
                        f"energy {energy_drift:.2e} exceed {conservation_tol:g}"
                    )

    return EvolutionState(grid=grid, field=np.pad(w, 1), time=t0 + steps * dt,
                          ledger=tuple(ledger))


#: solved frequencies of the reference family, evenly over its window
_FAMILY_SIZE = 7
#: frequencies over the window at which the distance's minimum is first
#: sought, before Newton's method refines it
_TABLE_SIZE = 513
#: Newton steps at most, and the step (in s, the half-window's unit) after
#: which the refinement stops: the error left is of the order of its square
_NEWTON_STEPS = 8
_NEWTON_STOP = 1e-6


@dataclass(frozen=True)
class SolitonFamily:
    """Samples Q_j of a soliton family at frequencies ``omegas`` on one
    grid, with what the H^1 distance to their interpolant needs.

    The family between the samples is the polynomial through them in
    s = (omega' - centre)/half, s in [-1, 1] over the window:
    Q(s) = sum_j c_j(s) Q_j with the Lagrange weights
    c(s) = ``lagrange`` @ (1, s, ..., s^(K-1)).  ``samples`` holds each
    Q_j and its centred derivative end to end; ``weights`` are the Simpson
    weights times 4 pi r^2, twice over, so that ``weighted`` = samples *
    weights turns [phi, phi'] into the H^1 products <Q_j, phi>, and
    ``gram`` holds the products <Q_j, Q_k>.  ``table`` holds c(s) at
    ``_TABLE_SIZE`` points ``table_s`` and ``table_norms`` the squared
    norm c^T G c of the interpolant there.
    """

    omegas: np.ndarray
    samples: np.ndarray
    weights: np.ndarray
    weighted: np.ndarray
    gram: np.ndarray
    lagrange: np.ndarray
    table_s: np.ndarray
    table: np.ndarray
    table_norms: np.ndarray


def _family(omegas: np.ndarray, values: np.ndarray, grid: np.ndarray) -> SolitonFamily:
    """The family of the real ``values`` (one row per frequency, in
    increasing ``omegas``) sampled on ``grid``; a single row is a constant
    family."""
    h = float(grid[1] - grid[0])
    samples = np.hstack((values, _centred_derivative(values, h)))
    simpson = np.full(grid.size, 2.0 * h / 3.0)
    simpson[1:-1:2] = 4.0 * h / 3.0
    simpson[[0, -1]] = h / 3.0
    weights = np.tile(4.0 * math.pi * simpson * grid**2, 2)
    weighted = samples * weights
    half = 0.5 * (omegas[-1] - omegas[0]) or 1.0
    nodes = (omegas - 0.5 * (omegas[-1] + omegas[0])) / half
    lagrange = np.linalg.inv(np.vander(nodes, increasing=True)).T
    table_s = np.linspace(-1.0, 1.0, _TABLE_SIZE)
    table = np.vander(table_s, len(omegas), increasing=True) @ lagrange.T
    gram = weighted @ samples.T
    return SolitonFamily(omegas=omegas, samples=samples, weights=weights,
                         weighted=weighted, gram=gram, lagrange=lagrange,
                         table_s=table_s, table=table,
                         table_norms=np.einsum("ij,jk,ik->i", table, gram, table))


def _refine(family: SolitonFamily, products: np.ndarray, i: int) -> float:
    """Newton's method on e(s) = c^T G c - 2|c^T b| from the table's least
    point ``table_s[i]``, kept between its neighbours; b = ``products``."""
    size = len(family.omegas)
    table_s = family.table_s
    low, high = table_s[max(i - 1, 0)], table_s[min(i + 1, table_s.size - 1)]
    s = float(table_s[i])
    powers = np.arange(size)
    monomials = np.zeros((3, size))
    for _ in range(_NEWTON_STEPS):
        # the monomials s^k and their first two derivatives, mapped to
        # c(s), c'(s) and c''(s)
        monomials[0] = s ** powers
        monomials[1, 1:] = powers[1:] * monomials[0, :-1]
        monomials[2, 1:] = powers[1:] * monomials[1, :-1]
        weights = monomials @ family.lagrange.T
        c, dc, ddc = weights
        overlap, slope, bend = weights @ products
        modulus = abs(overlap)
        # e' and e'' from those of c^T G c and of |c^T b|
        along = (overlap.conjugate() * slope).real
        gc, gdc = family.gram @ c, family.gram @ dc
        first = 2.0 * (dc @ gc) - 2.0 * along / modulus
        second = (2.0 * (ddc @ gc + dc @ gdc)
                  - 2.0 * ((abs(slope) ** 2 + (overlap.conjugate() * bend).real) / modulus
                           - along**2 / modulus**3))
        if not second > 0.0:
            break
        step = min(max(s - first / second, low), high) - s
        s += step
        if abs(step) < _NEWTON_STOP:
            break
    return s


def modulated_distance(state: EvolutionState, family: SolitonFamily) -> float:
    """min over the soliton family and the phase of the H^1 distance.

    With b_j = <Q_j, phi> and G the family's Gram matrix, the squared
    distance to e^{i theta} Q(s) is least over theta at
    e^{i theta} = c^T b/|c^T b|, where it is
    d^2(s) = |phi|^2 + c^T G c - 2|c^T b|.  Its minimum over the window is
    read off the family's table and refined by Newton's method
    (``_refine``).  That closed form only locates the minimiser: it rounds
    in steps of an ulp of the norms, so the distance is integrated from
    the gap phi - e^{i theta} Q(s) itself.
    """
    phi = state.phi()
    both = np.concatenate((phi, _centred_derivative(phi, state.spacing)))
    # the samples are real: their products with the real and the
    # imaginary part of [phi, phi'] in one matrix product
    parts = family.weighted @ both.view(float).reshape(-1, 2)
    read = family.table @ parts
    excess = family.table_norms - 2.0 * np.hypot(read[:, 0], read[:, 1])
    products = parts[:, 0] + 1j * parts[:, 1]
    s = _refine(family, products, int(np.argmin(excess)))
    c = family.lagrange @ s ** np.arange(len(family.omegas))
    overlap = c @ products
    rotation = overlap / abs(overlap) if overlap else 1.0 + 0.0j
    nearest = c @ family.samples
    gap_re = both.real - rotation.real * nearest
    gap_im = both.imag - rotation.imag * nearest
    return math.sqrt(family.weights @ (gap_re * gap_re + gap_im * gap_im))


def _reference_family(omega: float, grid: np.ndarray, ode_tolerance: float) -> SolitonFamily:
    """The soliton family around omega: ground states solved at
    ``_FAMILY_SIZE`` frequencies evenly over [0.9 omega, 1.1 omega], omega
    itself the middle one, and interpolated between them (``SolitonFamily``).
    The window ends at the depth table's last node, 0.1869, or at omega
    if that is higher, since the solver reaches little beyond it.
    """
    from . import depth_table

    top = max(omega, depth_table.GROUND_DEPTHS[-1][0])
    offsets = (np.arange(_FAMILY_SIZE) - _FAMILY_SIZE // 2) / (_FAMILY_SIZE // 2)
    if omega + 0.1 * omega <= top:
        omegas = omega + 0.1 * omega * offsets
    else:
        low = omega - 0.1 * omega
        omegas = 0.5 * (top + low) + 0.5 * (top - low) * offsets
    values = np.array([solve_ground_state(float(omega_p), ode_tolerance).interpolate(grid)
                       for omega_p in omegas])
    return _family(omegas, values, grid)


EMPIRICALLY_STABLE = "empirically_stable"
EMPIRICALLY_UNSTABLE = "empirically_unstable"
INCONCLUSIVE = "inconclusive"
#: the verdict is stable while the distance stays within STABLE_FACTOR of
#: the initial one, unstable once it grows by UNSTABLE_FACTOR
STABLE_FACTOR = 5.0
UNSTABLE_FACTOR = 10.0


def stability_experiment(omega: float, perturbation_size: float, t_end: float = 100.0,
                         dt: float = 0.02, ode_tolerance: float = ODE_TOLERANCE) -> dict:
    """Finite-time surrogate for the orbital stability dichotomy.

    Evolves (1 + size) * P_omega with an absorbing sponge on a grid of
    spacing 0.03 and tracks the modulated H^1 distance to the soliton
    family over a +-10% frequency window (``_reference_family``, clipped
    where the solver stops) at 50 samples; the verdict compares the worst
    distance to the initial one.  t_end and dt must be
    finite, with dt > 0 no longer than the sampling interval t_end / 50,
    and that interval a whole number of steps (to 1e-9 relative), so that
    each sample is taken at the time it is recorded at.
    """
    if not 0.0 <= perturbation_size <= 0.05:
        raise ValueError("perturbation_size must lie in [0, 0.05]")
    sample_every = t_end / 50.0
    if not (math.isfinite(t_end) and math.isfinite(dt) and 0.0 < dt <= sample_every):
        raise ValueError(f"need finite t_end and dt with 0 < dt <= t_end / 50, "
                         f"got t_end={t_end}, dt={dt}")
    steps = sample_every / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"t_end / 50 = {sample_every} is not a whole number of steps "
                         f"of dt = {dt}: the samples would fall between steps")
    profile = solve_ground_state(omega, ode_tolerance)
    radius = 2.4 * profile.truncation_radius
    state = soliton_state(profile, radius=radius, spacing=0.03,
                          perturbation=perturbation_size)
    family = _reference_family(omega, state.grid, ode_tolerance)

    distances = [modulated_distance(state, family)]
    times = [0.0]
    current = state
    t = 0.0
    while t < t_end - 1e-9:
        t_next = min(t + sample_every, t_end)
        current = evolve(current, t_next, dt, sponge=True,
                         ledger_interval=t_next - t)
        distances.append(modulated_distance(current, family))
        times.append(t_next)
        t = t_next

    d0 = max(distances[0], 1e-14)
    max_distance = max(distances)
    growth_ratio = max_distance / d0
    if growth_ratio >= UNSTABLE_FACTOR:
        verdict = EMPIRICALLY_UNSTABLE
    elif max_distance <= STABLE_FACTOR * d0:
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
        "thresholds": {"stable_factor": STABLE_FACTOR,
                       "unstable_factor": UNSTABLE_FACTOR},
    }


def _lowest_eigenvalues(diag: np.ndarray, off: np.ndarray, n_eigs: int) -> np.ndarray:
    """The ``n_eigs`` lowest eigenvalues, in increasing order, of the
    symmetric tridiagonal matrix with ``diag`` and ``off``, by bisection:
    the arguments ``eigh_tridiagonal(..., eigvals_only=True, select="i")``
    passes to stebz.  A nonzero LAPACK info raises EigSolverStalled."""
    count, vals, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, 1, n_eigs, 0.0, "E")
    if info != 0:
        raise EigSolverStalled(f"eigenvalue solve failed (dstebz info={info})")
    return vals[:count]


def linearized_spectra(ground: RadialProfile, n_eigs: int = 6) -> dict:
    """Lowest ``n_eigs`` radial eigenvalues of both linearized operators.

    L_plus = -Lap + omega - 3 P^2 + 5 P^4 acts on the real part of a
    perturbation; L_minus = -Lap + omega - P^2 + P^4 annihilates P itself.
    Both are reported: the L_minus kernel relation gives an exact residual
    check, and the single negative L_plus eigenvalue is the structural
    property of interest.
    Discretization: second-order differences in w = r*U at spacing 0.01,
    Dirichlet ends 60 beyond the truncation radius.  n_eigs outside 1 to
    the number of grid nodes raises ValueError, a failed eigenvalue solve
    (nonzero LAPACK info, as for a non-finite matrix) EigSolverStalled.
    """
    if n_eigs < 1:
        raise ValueError(f"n_eigs must be at least 1, got {n_eigs}")
    if ground.kind != GROUND_STATE or ground.omega is None:
        raise KindMismatch("spectra need a ground state with a frequency")
    omega = ground.omega
    spacing = 0.01
    n = int(round((ground.truncation_radius + 60.0) / spacing))
    grid = spacing * np.arange(1, n)  # interior nodes
    if n_eigs > grid.size:
        raise ValueError(f"n_eigs={n_eigs} exceeds the {grid.size} grid nodes")
    p = ground.interpolate(grid)
    p_sq = p * p

    base = 2.0 / (spacing * spacing)
    off = np.full(grid.size - 1, -1.0 / (spacing * spacing))
    out = {}
    for name, potential in (
        ("lplus_eigs", omega - 3.0 * p_sq + 5.0 * p_sq * p_sq),
        ("lminus_eigs", omega - p_sq + p_sq * p_sq),
    ):
        out[name] = [float(v) for v in _lowest_eigenvalues(base + potential, off, n_eigs)]

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
