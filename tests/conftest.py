"""Shared fixtures: the expensive scan artifacts are built once per session."""

import numpy as np
import pytest

from cqnls import shooting
from cqnls.curves import (default_omega_grid, differentiate, locate_critical,
                          scan)
from cqnls.shooting import solve_cubic_reference, solve_ground_state


@pytest.fixture(scope="session")
def curve():
    """60-node production scan with mass derivatives and identity checks."""
    grid = default_omega_grid(60, 0.004, 0.185)
    swept = scan(grid)
    assert not swept.failures, f"scan failures: {swept.failures}"
    return differentiate(swept)


@pytest.fixture(scope="session")
def small_scan():
    """5-node [0.004, 0.15] scan at ODE tolerance 1e-10, and that tolerance."""
    ode_tolerance = 1e-10
    swept = scan(default_omega_grid(5, 0.004, 0.15), ode_tolerance)
    assert not swept.failures
    return swept, ode_tolerance


@pytest.fixture(scope="session")
def crit(curve):
    return locate_critical(curve)


@pytest.fixture(scope="session")
def cubic_g():
    return solve_cubic_reference()


@pytest.fixture(scope="session")
def ground_009():
    return solve_ground_state(0.09)


@pytest.fixture
def fresh_solves(monkeypatch):
    """``fresh_solves(omegas)`` empties the profile cache but for the
    profiles at ``omegas`` and returns the list of frequencies that are
    then solved afresh (``shooting._solve`` calls) during the test."""
    def keep(omegas):
        monkeypatch.setattr(shooting, "_profile_cache", {
            key: profile for key, profile in shooting._profile_cache.items()
            if key[0] in omegas})
        solved, solve = [], shooting._solve

        def spy(omega, *args, **kwargs):
            solved.append(omega)
            return solve(omega, *args, **kwargs)
        monkeypatch.setattr(shooting, "_solve", spy)
        return solved
    return keep
