import numpy as np
import pytest

from cqnls.dynamics import (EvolutionState, discrete_energy, discrete_mass,
                            evolve, linearized_spectra, modulated_distance,
                            soliton_state, write_experiment)
from cqnls.errors import KindMismatch
from cqnls.geometry import random_test_functions


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
        # Crank-Nicolson: halving dt divides the error by about four
        assert 3.0 < errors[0] / errors[1] < 5.5

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

    def test_rejects_no_inner_iterations(self, base_state):
        with pytest.raises(ValueError, match="max_inner"):
            evolve(base_state, 0.1, 0.02, max_inner=0)

    def test_sponge_absorbs_mass(self, ground_009):
        state = soliton_state(ground_009, radius=30.0, spacing=0.05,
                              perturbation=0.04)
        out = evolve(state, 4.0, 0.02, sponge=True)
        assert discrete_mass(out) < discrete_mass(state)


class TestModulatedDistance:
    def test_vanishes_against_itself(self, base_state):
        from cqnls.dynamics import _phi_derivative
        refs = [(base_state.phi(), _phi_derivative(base_state))]
        assert modulated_distance(base_state, refs) < 1e-7

    def test_phase_invariance(self, base_state):
        from cqnls.dynamics import _phi_derivative
        refs = [(base_state.phi(), _phi_derivative(base_state))]
        rotated = EvolutionState(grid=base_state.grid,
                                 field=base_state.field * np.exp(0.7j),
                                 time=0.0)
        assert modulated_distance(rotated, refs) < 1e-7


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


def test_write_experiment(tmp_path):
    result = {"omega": 0.09, "verdict": "inconclusive", "growth_ratio": 1.0,
              "times": [0.0, 1.0], "distances": [0.1, 0.2]}
    write_experiment(result, tmp_path)
    assert (tmp_path / "experiment.json").exists()
    lines = (tmp_path / "experiment_ledger.csv").read_text().splitlines()
    assert lines[0] == "t,distance"
    assert len(lines) == 3
