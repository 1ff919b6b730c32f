"""Acceptance gate: the twelve quantitative criteria of the toolkit.

Each test is one criterion, numbered; tolerances are stated inline.  The
session-scoped ``curve`` fixture is the 60-node production scan over
[0.004, 0.185] with stencil derivatives attached.
"""

import math

import numpy as np

from cqnls.analytic1d import validate_quadrature_1d
from cqnls.curves import asymptotic_check, scan
from cqnls.dynamics import (EMPIRICALLY_STABLE, EMPIRICALLY_UNSTABLE,
                            discrete_energy, discrete_mass, evolve,
                            linearized_spectra, soliton_state,
                            stability_experiment)
from cqnls.functionals import evaluate, f_alpha
from cqnls.geometry import (c_alpha, q_alpha, random_test_functions,
                            rescale_energy_factor, rescale_mass_factor,
                            rescale_soliton)
from cqnls.landscape import (KIND_BOUNDARY_Q1, KIND_GROUND_STATE, KIND_NONE,
                             certify_e_min_by_flow, classify_normalized,
                             e_min_landscape)
from cqnls.profiles import test_function_profile as make_test_function
from cqnls.shooting import solve_ground_state


def test_criterion_01_identity_suite(curve):
    """Nehari/Pohozaev residuals and the E, M closed forms at 60 nodes."""
    assert len(curve.points) == 60
    for p in curve.points:
        assert p.nehari_residual < 1e-7
        assert p.pohozaev_residual < 1e-7
        energy_formula = (1.0 - p.beta) / 6.0 * p.grad_sq
        mass_formula = (p.beta + 1.0) / (3.0 * p.omega) * p.grad_sq
        assert abs(p.energy - energy_formula) <= 1e-7 * abs(energy_formula)
        assert abs(p.mass - mass_formula) <= 1e-7 * mass_formula


def test_criterion_02_derivative_identities(curve):
    """d grad/domega = (3/2)M, dE = -(omega/2) dM, d'' = (1/2) dM/domega."""
    assert len(curve.derivative_checks) == len(curve.points)
    for check in curve.derivative_checks:
        assert check.grad_identity < 1e-3, check
        assert check.energy_identity < 1e-3, check
        assert check.d_second < 1e-2, check


def test_criterion_03_beta_monotone(curve):
    assert np.all(np.diff(curve.betas()) > 0.0)


def test_criterion_04_mass_single_minimum(curve, crit):
    signs = np.sign(np.diff(curve.masses()))
    assert np.all(signs != 0.0)
    changes = np.nonzero(np.diff(signs) != 0.0)[0]
    assert changes.size == 1
    # the grid argmin sits within two local spacings of the beta = 1/3 root
    omegas = curve.omegas()
    k = int(np.argmin(curve.masses()))
    local = max(np.diff(omegas[max(k - 2, 0):k + 3]))
    assert abs(crit.mass_argmin - crit.omega_star) <= 2.0 * local
    rep = evaluate(solve_ground_state(crit.omega_star))
    assert abs(rep.beta - 1.0 / 3.0) <= 1e-8


def test_criterion_05_rescaled_soliton_suite(curve, crit):
    for p in curve.points:
        mass_r = rescale_mass_factor(p.beta) * p.mass
        energy_r = rescale_energy_factor(p.beta) * p.grad_sq
        assert mass_r <= p.mass * (1.0 + 1e-12)
        assert energy_r >= p.energy - 1e-12 * abs(p.energy)
        assert mass_r >= crit.m_threshold - 1e-8 * crit.m_q1
    # the closed-form factors reproduce direct quadrature of the rescale
    for omega in (0.02, crit.omega_star, 0.09, 0.16):
        ground = solve_ground_state(omega)
        rep = evaluate(ground)
        rep_r = evaluate(rescale_soliton(ground))
        mass_r = rescale_mass_factor(rep.beta) * rep.mass
        energy_r = rescale_energy_factor(rep.beta) * rep.grad_sq
        assert abs(rep_r.mass - mass_r) <= 1e-8 * mass_r
        assert abs(rep_r.energy - energy_r) <= 1e-8 * abs(energy_r)
        assert abs(rep_r.beta - 1.0 / 3.0) <= 1e-8


def test_criterion_06_endpoint_asymptotics(curve, cubic_g):
    g_rep = evaluate(cubic_g)
    errors = []
    for omega in (0.01, 0.006, 0.004):
        rep = evaluate(solve_ground_state(omega))
        sw = math.sqrt(omega)
        mass_pred = g_rep.mass / sw + 0.5 * sw * g_rep.l6
        errors.append(abs(rep.mass - mass_pred) / mass_pred)
    assert errors[-1] < 0.05
    assert errors[0] > errors[1] > errors[2]
    report = asymptotic_check(curve, cubic_g)
    assert abs(report["beta_slope"] + 1.0) < 0.15
    assert abs(report["mass_slope"] + 3.0) < 0.3


def test_criterion_07_minimality_certification(curve, crit):
    candidates = random_test_functions(100, seed=7)
    for alpha in (1.0 / 3.0, 1.0, 2.0):
        q = q_alpha(alpha, curve)
        c = c_alpha(alpha, q)
        bound = 1.0 / c
        for u in candidates:
            assert f_alpha(u, alpha) >= bound - 1e-9
    q1 = q_alpha(1.0, curve)
    c1 = c_alpha(1.0, q1)
    m_q1 = (64.0 / 9.0) / (c1 * c1)
    assert abs(m_q1 - crit.m_q1) <= 1e-6 * crit.m_q1


def test_criterion_08_landscape_structure(curve, crit):
    masses = np.linspace(0.5 * crit.m_threshold, 2.2 * crit.m_q1, 20)
    tol_q1 = 1e-9 * crit.m_q1
    for m in masses:
        record = e_min_landscape(float(m), curve, crit)
        if m < crit.m_threshold:
            assert record.e_min == 0.0 and not record.e_min_achieved
            assert record.e_min_v_infinite and record.minimizer_kind == KIND_NONE
        elif m < crit.m_q1 - tol_q1:
            assert record.e_min == 0.0 and not record.e_min_achieved
            assert not record.e_min_v_infinite
            assert record.e_min_v is not None and record.e_min_v > 0.0
        elif abs(m - crit.m_q1) <= tol_q1:
            assert record.e_min == 0.0 and record.e_min_achieved
            assert record.minimizer_kind == KIND_BOUNDARY_Q1
        else:
            assert record.e_min < 0.0 and record.e_min_achieved
            assert record.e_min_v == record.e_min
            assert record.minimizer_kind == KIND_GROUND_STATE
    # boundary-row check at the threshold masses themselves
    assert e_min_landscape(crit.m_q1, curve, crit).minimizer_kind == KIND_BOUNDARY_Q1

    # independent gradient-flow oracle on the supercritical branch
    for ratio in (1.2, 2.0):
        m = ratio * crit.m_q1
        record = e_min_landscape(m, curve, crit)
        oracle = certify_e_min_by_flow(m)
        assert abs(oracle - record.e_min) <= 1e-4 * abs(record.e_min)
    assert e_min_landscape(2.0 * crit.m_q1, curve, crit).e_min < 0.0


def test_criterion_09_normalized_classification(curve, crit):
    expected = {0.5: 0, 1.0: 1, 1.5: 2}
    for ratio, count in expected.items():
        m = ratio * crit.m0
        result = classify_normalized(m, curve, crit)
        assert result.count == count
        for omega in result.frequencies:
            rep = evaluate(solve_ground_state(omega))
            assert abs(rep.mass - m) <= 1e-6 * m


def test_criterion_10_spectral_suite():
    for omega in np.linspace(0.05, 0.16, 10):
        ground = solve_ground_state(float(omega))
        record = linearized_spectra(ground)
        assert record["lminus_residual"] < 1e-6
        assert abs(record["lminus_eigs"][0]) <= 1e-6
        negatives = [v for v in record["lplus_eigs"] if v < 0.0]
        assert len(negatives) == 1


def test_criterion_11_dynamics_suite():
    # unperturbed soliton: modulus stationary, invariants conserved
    ground = solve_ground_state(0.09)
    state = soliton_state(ground, perturbation=0.0)
    mass0 = discrete_mass(state)
    energy0 = discrete_energy(state)
    modulus0 = np.abs(state.phi())
    final = evolve(state, 10.0, 0.01)
    deviation = np.max(np.abs(np.abs(final.phi()) - modulus0)) / np.max(modulus0)
    assert deviation < 1e-4
    assert abs(discrete_mass(final) - mass0) <= 1e-6 * mass0
    assert abs(discrete_energy(final) - energy0) <= 1e-6 * abs(energy0)

    # finite-time dichotomy on both sides of the threshold
    stable = stability_experiment(0.073, 0.01, t_end=100.0)
    assert stable["verdict"] == EMPIRICALLY_STABLE
    unstable = stability_experiment(0.012, 0.01, t_end=100.0)
    assert unstable["verdict"] == EMPIRICALLY_UNSTABLE


def test_criterion_12_oracle_suite():
    for omega in (0.05, 0.1):
        report = validate_quadrature_1d(omega)
        for key in ("l2_sq", "l4_4", "l6_6", "grad_sq"):
            assert report[key]["rel_error"] < 1e-10
        assert report["nehari_residual"] < 1e-9
    gaussian = make_test_function(
        lambda r: np.exp(-(r**2)), lambda r: -2.0 * r * np.exp(-(r**2)))
    mass = evaluate(gaussian).mass
    target = (math.pi / 2.0) ** 1.5
    assert abs(mass - target) <= 1e-10 * target
