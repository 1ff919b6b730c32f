"""The direct LAPACK calls against the scipy.linalg functions they replace.

``cqnls.lapack`` loads scipy's compiled LAPACK wrappers without importing
``scipy.linalg``; the flow, the L+ solves of the curves and the spectra
pass them the very arguments ``solveh_banded``, ``solve_banded`` and
``eigh_tridiagonal`` would, so the results must be the same arrays bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded, solveh_banded

from cqnls.curves import _solve_tridiagonal
from cqnls.dynamics import _lowest_eigenvalues
from cqnls.flow import _solve_shifted


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1))
def test_flow_step_matches_solveh_banded(n, seed):
    # symmetric, diagonally dominant pentadiagonal systems with a positive
    # diagonal, as the flow's step matrix (a positive semidefinite
    # Laplacian plus a shift of at least 1/4) is
    rng = np.random.default_rng(seed)
    lap = np.zeros((5, n))
    lap[3, :-1] = lap[1, 1:] = rng.uniform(-1.0, 1.0, n - 1)
    lap[4, :-2] = lap[0, 2:] = rng.uniform(-1.0, 1.0, n - 2)
    lap[2] = np.abs(lap).sum(axis=0) + rng.uniform(0.1, 2.0, n)
    shift = rng.uniform(-0.05, 0.05, n)
    rhs = rng.standard_normal(n)
    shifted = lap.copy()
    shifted[2] += shift
    assert np.array_equal(_solve_shifted(lap, shift, rhs),
                          solveh_banded(shifted[2:], rhs, lower=True))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), dominant=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_tridiagonal_solve_matches_solve_banded(n, dominant, seed):
    # general systems, nonsingular with probability one, and strictly
    # diagonally dominant ones; the L+ rows are dominant only where the
    # potential is positive
    rng = np.random.default_rng(seed)
    lower, upper = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
    diag, rhs = rng.standard_normal(n), rng.standard_normal(n)
    if dominant:
        diag = np.sign(diag) * (np.abs(diag) + np.abs(np.r_[0.0, lower])
                                + np.abs(np.r_[upper, 0.0]) + 0.1)
    ab = np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]])
    assert np.array_equal(_solve_tridiagonal(lower, diag, upper, rhs),
                          solve_banded((1, 1), ab, rhs))


@pytest.mark.parametrize("lower, diag, upper", [
    ([1.0], [0.0, 1.0], [1.0]), ([1.0], [1e-320, 1.0], [1.0])],
    ids=["first-pivot", "overflow"])
def test_tridiagonal_solve_exchanges_rows(lower, diag, upper):
    # nonsingular systems whose first pivot without row exchanges is zero
    # or overflows its reciprocal
    matrix = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    assert np.array_equal(_solve_tridiagonal(lower, diag, upper, [1.0, 1.0]),
                          np.linalg.solve(matrix, [1.0, 1.0]))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 60), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_spectra_match_eigh_tridiagonal(n, data, seed):
    n_eigs = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
    expected = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(0, n_eigs - 1))
    assert np.array_equal(_lowest_eigenvalues(diag, off, n_eigs), expected)
