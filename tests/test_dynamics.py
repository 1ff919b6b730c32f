import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import zgttrs

from cqnls import dynamics
from cqnls.dynamics import (EMPIRICALLY_STABLE, EMPIRICALLY_UNSTABLE, INCONCLUSIVE,
                            EvolutionState, discrete_energy, discrete_mass,
                            evolve, linearized_spectra, modulated_distance,
                            soliton_state, stability_experiment, write_experiment)
from cqnls.errors import (ConservationBreach, EigSolverStalled, InnerSolveDiverged,
                          KindMismatch)
from cqnls.geometry import random_test_functions
from cqnls.lapack import zgttrf, ztbtrs
from cqnls.shooting import ODE_TOLERANCE, solve_ground_state


@pytest.fixture(scope="module")
def base_state(ground_009):
    return soliton_state(ground_009, radius=60.0, spacing=0.03,
                         perturbation=0.005)


class TestEvolutionState:
    def test_rejects_nonzero_boundary(self):
        grid = np.linspace(0.0, 1.0, 11)
        field = np.ones(11, dtype=complex)
        with pytest.raises(ValueError):
            EvolutionState(grid=grid, field=field, time=0.0)

    def test_phi_origin_extrapolation(self, base_state):
        phi = base_state.phi()
        # the soliton is flat at the origin: phi(0) close to phi(h)
        assert abs(phi[0] - phi[1]) < 0.01 * abs(phi[0])


class TestEvolve:
    def test_mass_conserved_to_machine_precision(self, base_state):
        out = evolve(base_state, 1.0, 0.02)
        drift = abs(discrete_mass(out) - discrete_mass(base_state))
        assert drift < 1e-10 * discrete_mass(base_state)

    def test_energy_drift_small(self, base_state):
        out = evolve(base_state, 1.0, 0.02)
        drift = abs(discrete_energy(out) - discrete_energy(base_state))
        assert drift < 1e-6 * abs(discrete_energy(base_state))

    def test_second_order_in_time(self, base_state):
        # the loose conservation_tol keeps the coarse-dt runs from
        # tripping the breach gate; this test measures convergence order
        reference = evolve(base_state, 1.0, 0.005,
                           conservation_tol=1e-3).field
        errors = []
        for dt in (0.04, 0.02):
            errors.append(np.linalg.norm(
                evolve(base_state, 1.0, dt, conservation_tol=1e-3).field
                - reference))
        # Strang splitting with a Crank-Nicolson linear step: halving dt
        # divides the error by about four
        assert 3.0 < errors[0] / errors[1] < 5.5

    def test_chunked_calls_match_one_call(self, base_state):
        # each call closes its last split step: 25 steps fall short of
        # t = 0.505 and no ledger sample is due, so only the end of the
        # call completes the half-phase before the second call opens one
        first = evolve(base_state, 0.505, 0.02, ledger_interval=1.0)
        assert first.time == pytest.approx(0.5, abs=1e-12)
        chunked = evolve(first, 1.0, 0.02).field
        whole = evolve(base_state, 1.0, 0.02).field
        assert np.linalg.norm(chunked - whole) < 1e-10 * np.linalg.norm(whole)

    def test_ledger_grows(self, base_state):
        out = evolve(base_state, 1.0, 0.02, ledger_interval=0.25)
        assert len(out.ledger) >= 5
        assert out.ledger[0].time == 0.0
        assert out.ledger[-1].time == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_arguments(self, base_state):
        with pytest.raises(ValueError):
            evolve(base_state, 1.0, -0.1)
        with pytest.raises(ValueError):
            evolve(base_state, -1.0, 0.1)
        for t_end, dt in ((math.nan, 0.02), (math.inf, 0.02), (1.0, math.nan),
                          (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                evolve(base_state, t_end, dt)

    def test_rejects_an_end_short_of_one_step(self, base_state):
        # t_end within dt/2 of the start rounds to no step at all
        with pytest.raises(ValueError, match="no step"):
            evolve(base_state, 0.009, 0.02)

    def test_non_finite_field_is_typed(self, base_state):
        field = base_state.field.copy()
        field[100] = 1e200  # finite, but |w|^2 overflows in the phase
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InnerSolveDiverged, match="non-finite"):
                evolve(replace(base_state, field=field), 0.1, 0.02)

    def test_nan_mid_run_is_caught_by_the_next_sample(self, base_state, monkeypatch):
        # the field is checked at samples only: a nan from the seventh
        # step's linear solve (t = 0.14), its second triangular solve,
        # must surface by the sample at t = 0.2
        calls = []
        real_solve = dynamics.ztbtrs

        def spoiled(*args):
            calls.append(1)
            out = real_solve(*args)
            if len(calls) == 14:
                out[0][100] = np.nan
            return out
        monkeypatch.setattr(dynamics, "ztbtrs", spoiled)
        with pytest.raises(InnerSolveDiverged, match="non-finite") as raised:
            evolve(base_state, 1.0, 0.02, ledger_interval=0.2)
        reported = float(str(raised.value).rpartition("t=")[2])
        assert 0.14 <= reported <= 0.2

    def test_long_run_samples_on_time(self, ground_009):
        # summing dt drifted past the sampling slack: from t = 92 each
        # sample came a step late and the one at t_end was lost
        state = soliton_state(ground_009, spacing=0.05)
        out = evolve(state, 100.0, 0.02)
        assert out.time == 100.0
        assert len(out.ledger) == 101
        for k, entry in enumerate(out.ledger):
            assert entry.time == pytest.approx(k, abs=1e-12)

    def test_drift_past_the_tolerance_is_a_breach(self, base_state):
        # the drift the ledger of a run measures, at a tolerance it passes
        ledger = evolve(base_state, 1.0, 0.04, conservation_tol=1.0).ledger
        mass0, energy0 = ledger[0].mass, ledger[0].energy
        drift = max(max(abs(e.mass - mass0) / mass0,
                        abs(e.energy - energy0) / max(abs(energy0), 1e-12 * mass0))
                    for e in ledger)
        assert 0.0 < drift < 1e-3
        with pytest.raises(ConservationBreach, match="exceed"):
            evolve(base_state, 1.0, 0.04, conservation_tol=0.5 * drift)
        # the sponge removes mass by design, so its runs are not checked
        evolve(base_state, 1.0, 0.04, sponge=True, conservation_tol=0.5 * drift)

    def test_sponge_absorbs_mass(self, ground_009):
        state = soliton_state(ground_009, radius=ground_009.truncation_radius,
                              spacing=0.05, perturbation=0.04)
        out = evolve(state, 4.0, 0.02, sponge=True)
        assert discrete_mass(out) < discrete_mass(state)

    def test_rejects_grid_inside_the_profile(self, ground_009):
        # cut at r = 30 the field would jump to the zero Dirichlet end
        with pytest.raises(ValueError, match="truncation radius"):
            soliton_state(ground_009, radius=30.0, spacing=0.05)


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(0.005, 0.04), perturbation=st.floats(0.0, 0.05),
       steps=st.integers(5, 50))
def test_split_step_mass(ground_009, dt, perturbation, steps):
    state = soliton_state(ground_009, spacing=0.05, perturbation=perturbation)
    mass0 = discrete_mass(state)
    # the gate is opened wide: this property is about mass alone
    closed = evolve(state, steps * dt, dt, conservation_tol=1.0)
    assert abs(discrete_mass(closed) - mass0) <= 1e-10 * mass0
    # at the truncation radius the sponge sits in the soliton's tail and
    # takes mass at every step
    state = soliton_state(ground_009, radius=ground_009.truncation_radius, spacing=0.05,
                          perturbation=perturbation)
    damped = evolve(state, steps * dt, dt, sponge=True, ledger_interval=dt)
    masses = [entry.mass for entry in damped.ledger]
    assert len(masses) == steps + 1
    assert all(b <= a for a, b in zip(masses, masses[1:]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-4, 0.1),
       scale=st.floats(1e-3, 3.0))
def test_phase_is_the_complex_exponential(seed, tau, scale):
    # the rotation from cos and sin of the real angle is the complex
    # exponential's bit for bit, so evolutions did not move
    rng = np.random.default_rng(seed)
    grid = 0.03 * np.arange(1, 400)
    w = scale * grid * (rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    inv_r2 = 1.0 / grid**2
    rho = (w.real * w.real + w.imag * w.imag) * inv_r2
    expected = w * np.exp(1j * tau * (rho - rho * rho))
    scratch = (np.empty(w.size), np.empty(w.size), np.empty_like(w))
    assert np.array_equal(dynamics._phase(w, inv_r2, tau, scratch), expected)


def _unbuffered_phase(w, inv_r2, tau):
    rho = (w.real * w.real + w.imag * w.imag) * inv_r2
    theta = tau * (rho - rho * rho)
    rotation = np.empty_like(w)
    rotation.real = np.cos(theta)
    rotation.imag = np.sin(theta)
    return w * rotation


def _unit_solves(diag, off, dt):
    """(2i/dt) M^-1 as the step loop applies it, for the tridiagonal M
    with ``diag`` and ``off``: a unit lower solve, the reciprocal pivots
    times 2i/dt and a unit upper solve, on fresh arrays."""
    dl, d, du, _, _, info = zgttrf(off, diag, off)
    assert info == 0
    lower = np.ones((2, d.size), dtype=complex)
    lower[1, :-1] = dl
    upper = np.ones((2, d.size), dtype=complex)
    upper[0, 1:] = du / d[:-1]
    scale = (2j / dt) / d

    def solve(w):
        y = ztbtrs(lower, w, uplo="L", diag="U")[0]
        return ztbtrs(upper, y * scale, uplo="U", diag="U")[0]
    return solve


def _pivoted_solve(diag, off, dt):
    """(2i/dt) M^-1 by LAPACK's general tridiagonal solve, zgttrs, which
    divides by the pivots."""
    *factors, info = zgttrf(off, diag, off)
    assert info == 0
    return lambda w: (2j / dt) * zgttrs(*factors, w)[0]


def _unbuffered_sponge_run(initial, steps, dt, sample_every, linear=_unit_solves):
    """The field after ``steps`` sponged steps of the step loop written
    with fresh arrays at every step, the half-phases closed every
    ``sample_every`` steps and at the end; ``linear`` makes (2i/dt) M^-1
    from M's diagonals and dt."""
    grid = initial.grid
    inv_r2 = 1.0 / grid[1:-1] ** 2
    solve = linear(*dynamics._crank_nicolson_matrix(grid, dt, True), dt)
    w = initial.field[1:-1]
    opening = 0.5 * dt
    for step in range(1, steps + 1):
        w = _unbuffered_phase(w, inv_r2, opening)
        w = solve(w) - w
        if step % sample_every and step != steps:
            opening = dt
            continue
        w = _unbuffered_phase(w, inv_r2, 0.5 * dt)
        opening = 0.5 * dt
    return np.pad(w, 1)


def test_buffered_loop_is_bit_identical(ground_009):
    # the step loop reuses its arrays; every field it returns is the
    # allocating loop's bit for bit, and the initial field is untouched
    state = soliton_state(ground_009, radius=60.0, spacing=0.03, perturbation=0.01)
    before = state.field.copy()
    out = evolve(state, 5.0, 0.02, sponge=True, ledger_interval=1.0)
    assert len(out.ledger) == 6
    assert np.array_equal(out.field, _unbuffered_sponge_run(state, 250, 0.02, 50))
    assert np.array_equal(state.field, before)


# the Crank-Nicolson systems of any grid and step: n interior nodes at
# spacing h, with the sponge on or off
_CN_SYSTEMS = dict(n=st.integers(3, 400), h=st.floats(0.005, 0.2),
                   dt=st.floats(1e-4, 1.0), sponge=st.booleans())


@settings(max_examples=200, deadline=None)
@given(**_CN_SYSTEMS)
def test_crank_nicolson_matrix_factors_without_row_interchanges(n, h, dt, sponge):
    # |diag| > 2|off| keeps every pivot above |off|, so zgttrf exchanges no
    # rows: M = L diag(d) U with L's band dl and U's du/d, as evolve reads it
    diag, off = dynamics._crank_nicolson_matrix(h * np.arange(n + 2), dt, sponge)
    _, _, du, du2, ipiv, info = zgttrf(off, diag, off)
    assert info == 0
    assert np.array_equal(ipiv, np.arange(1, n + 1))
    assert np.array_equal(du2, np.zeros(n - 2))
    assert np.array_equal(du, off)


@settings(max_examples=100, deadline=None)
@given(**_CN_SYSTEMS, seed=st.integers(0, 2**32 - 1))
def test_one_linear_step_is_the_banded_solve(n, h, dt, sponge, seed):
    # the step loop's solve, which test_buffered_loop_is_bit_identical ties
    # to evolve bit for bit
    diag, off = dynamics._crank_nicolson_matrix(h * np.arange(n + 2), dt, sponge)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ab = np.array([np.r_[0.0, off], diag, np.r_[off, 0.0]])
    expected = (2j / dt) * solve_banded((1, 1), ab, w)
    got = _unit_solves(diag, off, dt)(w)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_experiment_run_agrees_with_the_pivoted_solve():
    # the 5000 sponged steps of the stability experiment at omega = 0.073,
    # on its grid and with its 50 samples, against the same loop dividing
    # by the pivots
    profile = solve_ground_state(0.073)
    state = soliton_state(profile, radius=2.4 * profile.truncation_radius,
                          spacing=0.03, perturbation=0.01)
    out = evolve(state, 100.0, 0.02, sponge=True, ledger_interval=2.0)
    assert len(out.ledger) == 51
    expected = _unbuffered_sponge_run(state, 5000, 0.02, 100, linear=_pivoted_solve)
    assert np.max(np.abs(out.field - expected)) <= 1e-12 * np.max(np.abs(expected))


def _one_member(values, grid, omega=0.09):
    """The constant family of the real ``values`` on ``grid``."""
    return dynamics._family(np.array([omega]), values[None], grid)


def _golden_minimum(f, low, high, evaluations):
    """Golden-section minimum of f over [low, high]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = high - ratio * (high - low), low + ratio * (high - low)
    f1, f2 = f(x1), f(x2)
    for _ in range(evaluations - 2):
        if f1 < f2:
            high, x2, f2 = x2, x1, f1
            x1 = high - ratio * (high - low)
            f1 = f(x1)
        else:
            low, x1, f1 = x1, x2, f2
            x2 = low + ratio * (high - low)
            f2 = f(x2)
    return min(f1, f2)


class TestModulatedDistance:
    def test_vanishes_against_itself(self, base_state):
        family = _one_member(base_state.phi().real, base_state.grid)
        assert modulated_distance(base_state, family) < 1e-7

    # the closed form |phi|^2 + |psi|^2 - 2|<psi, phi>| rounds to 0 or to
    # 4.8e-7 (the root of an ulp of the norms) by the angle: 0.08 and 0.4
    # read 4.8e-7 there
    @pytest.mark.parametrize("angle", [0.08, 0.4, 0.7])
    def test_phase_invariance(self, base_state, angle):
        family = _one_member(base_state.phi().real, base_state.grid)
        rotated = EvolutionState(grid=base_state.grid,
                                 field=base_state.field * np.exp(1j * angle),
                                 time=0.0)
        assert modulated_distance(rotated, family) < 1e-7

    @pytest.mark.parametrize("perturbation", [0.01, 0.001])
    def test_is_the_minimum_over_solved_profiles(self, perturbation):
        # the minimum over the interpolated family against golden section
        # over profiles solved at each trial frequency; the 21 samples the
        # family once was read 12 % high at 0.01 and 2.9 times at 0.001
        omega = 0.073
        profile = solve_ground_state(omega)
        state = soliton_state(profile, radius=2.4 * profile.truncation_radius,
                              spacing=0.03, perturbation=perturbation)

        def solved(omega_p):
            values = solve_ground_state(float(omega_p)).interpolate(state.grid)
            return modulated_distance(state, _one_member(values, state.grid, omega_p))

        family = dynamics._reference_family(omega, state.grid, ODE_TOLERANCE)
        distance = modulated_distance(state, family)
        best = _golden_minimum(solved, 0.9 * omega, 1.1 * omega, 40)
        assert distance == pytest.approx(best, rel=1e-6)
        sampled = min(solved(w) for w in np.linspace(0.9 * omega, 1.1 * omega, 21))
        assert distance < sampled


class TestReferenceFamily:
    def test_solves_seven_frequencies_around_its_own(self, ground_009, fresh_solves):
        # the middle node is omega exactly, so its profile is a cache hit
        solved = fresh_solves([0.09])
        grid = np.linspace(0.0, 60.0, 2001)
        family = dynamics._reference_family(0.09, grid, ODE_TOLERANCE)
        assert family.omegas[3] == 0.09
        assert family.omegas[[0, -1]] == pytest.approx([0.081, 0.099], rel=1e-15)
        assert sorted(solved) == sorted(np.delete(family.omegas, 3))

    @pytest.mark.parametrize("omega", [0.18, 0.1869])
    def test_window_ends_where_the_solver_reaches(self, omega):
        # 1.1 omega lies past the solver's reach from omega = 0.16997 on;
        # the window stops at the depth table's last node
        result = stability_experiment(omega, 0.01, t_end=2.0)
        assert result["verdict"] in (EMPIRICALLY_STABLE, EMPIRICALLY_UNSTABLE, INCONCLUSIVE)
        assert math.isfinite(result["max_modulated_distance"])


class TestSpectra:
    def test_rejects_non_ground_states(self):
        with pytest.raises(KindMismatch):
            linearized_spectra(random_test_functions(1)[0])

    def test_operator_ordering(self, ground_009):
        record = linearized_spectra(ground_009)
        # L_plus sits below L_minus: its potential well is deeper
        assert record["lplus_eigs"][0] < record["lminus_eigs"][0]
        assert record["omega"] == pytest.approx(0.09)

    def test_lminus_higher_eigs_positive(self, ground_009):
        record = linearized_spectra(ground_009)
        assert all(v > 0.0 for v in record["lminus_eigs"][1:])

    @pytest.mark.parametrize("n_eigs", [0, -2, 10**6])
    def test_rejects_no_eigenvalues(self, ground_009, n_eigs):
        # an empty range, or one past the grid's nodes, is the caller's
        # error, not a stalled solve
        with pytest.raises(ValueError, match="n_eigs"):
            linearized_spectra(ground_009, n_eigs)

    def test_only_a_failed_solve_stalls(self, ground_009, monkeypatch):
        def fails(d, e, *args):
            return 0, np.zeros_like(d), None, None, 1
        monkeypatch.setattr(dynamics, "dstebz", fails)
        with pytest.raises(EigSolverStalled, match="info=1"):
            linearized_spectra(ground_009)


def test_write_experiment(tmp_path):
    result = {"omega": 0.09, "verdict": "inconclusive", "growth_ratio": 1.0,
              "times": [0.0, 1.0], "distances": [0.1, 0.2]}
    write_experiment(result, tmp_path)
    assert (tmp_path / "experiment.json").exists()
    lines = (tmp_path / "experiment_ledger.csv").read_text().splitlines()
    assert lines[0] == "t,distance"
    assert len(lines) == 3
