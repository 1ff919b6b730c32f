"""Benchmark workloads: a seed becomes the CLI commands of one iteration.

The seed only jitters inputs (window ends, frequencies, one flow mass); it
never selects a code path.  Every jitter range is chosen so the same solver
regimes are hit for every seed and no operation fails at the seed commit.

Why these four:

* ``scan-deriv`` -- cold shooting solves clustered in 4-point Richardson
  stencils plus the upper-window collocation ladder.  Continuation or
  neighbour reuse shows here first.
* ``landscape`` -- scan, two beta inversions to 1e-12 in omega and brentq
  branch inversions: near-duplicate frequencies and many profile-cache hits.
  A change that speeds cold stencils but slows near-duplicate solves or
  cache hits shows here and not in ``scan-deriv``.  The window stays in
  the shooting regime so collocation does not mask the cache behaviour.
* ``evolve`` -- the only workload with Crank-Nicolson time stepping.
* ``oneshot`` -- isolated single-frequency commands, each in its own
  process and never neighbours, so caching or continuation should change
  nothing here.  It is the only workload that runs the gradient flow,
  the spectra and the 1D closed-form oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OMEGA_MAX = 3.0 / 16.0

#: M(Q_1), the mass at beta = 1 (about 240.4 at the default configuration);
#: certify masses are drawn above it, where E_min < 0 and the flow converges
M_Q1_APPROX = 240.4


@dataclass(frozen=True)
class Step:
    """One process of an iteration.

    ``argv`` goes to ``cqnls.cli.main``; ``("certify", mass)`` calls
    ``cqnls.landscape.certify_e_min_by_flow`` instead.  ``config`` is the
    text of a ``--config`` file.  Steps with ``timed=False`` verify an
    output after the pipeline and are not part of ``wall_s``.
    """

    name: str
    argv: tuple[str, ...]
    config: str | None = None
    timed: bool = True


def _fmt(x: float) -> str:
    return repr(float(x))


def scan_deriv(rng: random.Random) -> dict:
    omega_min = 0.004 * (1.0 + 0.05 * rng.random())
    # jitter the gap to 3/16 by a few percent: the ladder cost grows like
    # 1/gap, so a wider jitter would dominate the run-to-run spread
    omega_max = OMEGA_MAX - 0.0025 * (1.0 + 0.04 * rng.random())
    grid_size = 5
    return {
        "params": {"grid_size": grid_size, "omega_min": omega_min,
                   "omega_max": omega_max},
        "steps": [Step("scan", ("scan", "--grid-size", str(grid_size),
                                "--omega-min", _fmt(omega_min),
                                "--omega-max", _fmt(omega_max),
                                "--derivatives"))],
    }


def landscape(rng: random.Random) -> dict:
    omega_min = 0.004 * (1.0 + 0.05 * rng.random())
    omega_max = 0.15 * (1.0 - 0.02 * rng.random())
    # five nodes put two scanned nodes on the upper branch, which the
    # bracket narrowing needs; two masses give one empty row and one
    # supercritical row whose classification repeats the e_min inversions
    grid_size, mass_grid = 5, 2
    # at the default 1e-12 one iteration takes 40-55 s on a 2-vCPU host,
    # too long for 22 runs of each workload to fit in 57 minutes; 1e-10
    # costs about 0.6 of that and runs the same code
    tol = "1e-10"
    config = f"omega_min = {_fmt(omega_min)}\nomega_max = {_fmt(omega_max)}\n"
    return {
        "params": {"grid_size": grid_size, "mass_grid": mass_grid,
                   "omega_min": omega_min, "omega_max": omega_max, "ode_tol": tol},
        "steps": [Step("landscape", ("landscape", "--mass-grid", str(mass_grid),
                                     "--grid-size", str(grid_size), "--ode-tol", tol),
                       config=config),
                  # a fresh solve at the located omega* checks beta = 1/3
                  # and M = m0 and reports the residuals the table lacks;
                  # {omega_star} is filled from the landscape manifest
                  Step("check-solve", ("solve", "--omega", "{omega_star}",
                                       "--ode-tol", tol), timed=False)],
    }


def evolve(rng: random.Random) -> dict:
    # stable band above omega* ~ 0.024; the +-10% reference window stays
    # below the collocation switch at 0.155
    omega = 0.073 * (1.0 + 0.04 * (rng.random() - 0.5))
    return {
        "params": {"omega": omega, "perturbation": 0.01, "t_end": 100.0},
        "steps": [Step("evolve", ("evolve", "--omega", _fmt(omega),
                                  "--perturbation", "0.01")),
                  # the experiment writes no residuals; a solve at the same
                  # frequency reproduces its base profile and reports them
                  Step("check-solve", ("solve", "--omega", _fmt(omega)),
                       timed=False)],
    }


def oneshot(rng: random.Random) -> dict:
    small = 0.008 * (1.0 + 0.25 * rng.random())
    mid = 0.07 + 0.01 * rng.random()
    upper = 0.185 - 1e-4 * rng.random()
    spectra = 0.11 + 0.02 * rng.random()
    mass = M_Q1_APPROX * (1.3 + 0.4 * rng.random())
    return {
        "params": {"omega_small": small, "omega_mid": mid, "omega_upper": upper,
                   "omega_spectra": spectra, "certify_mass": mass},
        "steps": [Step("solve-small", ("solve", "--omega", _fmt(small))),
                  Step("solve-mid", ("solve", "--omega", _fmt(mid))),
                  Step("solve-upper", ("solve", "--omega", _fmt(upper))),
                  Step("spectra", ("spectra", "--omega", _fmt(spectra))),
                  Step("validate", ("validate",)),
                  Step("certify", ("certify", _fmt(mass)))],
    }


WORKLOADS = {
    "scan-deriv": scan_deriv,
    "landscape": landscape,
    "evolve": evolve,
    "oneshot": oneshot,
}


def plan(workload: str, seed: int) -> dict:
    """Parameters and steps of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(seed))
