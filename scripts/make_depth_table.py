"""Regenerate ``src/cqnls/depth_table.py`` by bisecting the ground states.

Run from the repository root after any change that moves the bisected
roots (``tests/test_shooting.py::TestDepthTable::test_table_is_current`` fails then):

    PYTHONPATH=src python scripts/make_depth_table.py

Each node's depth is bisected on the trajectory classes from the depth
shot's whole bracket (``shooting._bisect`` of ``shooting._DepthShot``) to
``shooting.BISECTION_TOLERANCE`` times the bracket's lower end, at
``shooting.ODE_TOLERANCE``: 75 frequencies evenly spaced in ln(omega)
over [0.0035, 0.125] and 50 evenly spaced in ln(3/16 - omega) above it
up to 0.1869, below the frequency 0.186967 where the depth reaches
``shooting._MAX_LOG_DEPTH``.  The cubic reference's amplitude is bisected
in the same way on its own shot (``shooting._AmplitudeShot``).  A solve
with no start from the table bisects the classes in the same way
(``shooting._parameter``), so it returns these rows bit for bit.  Near
0.125 both spacings put the nodes about 0.1 apart in ln(3/16 - omega),
the variable ``shooting._predict`` interpolates in.  A denser table saves
the seeded solves no ``_march`` run, and one at twice this spacing costs
them 12-13 % more (``scripts/fixed_pipelines.py`` prints the count).
It takes about 6 s on a 2-core host.
"""

import math
from pathlib import Path

from cqnls import shooting
from cqnls.profiles import OMEGA_MAX

TABLE = Path(__file__).resolve().parents[1] / "src" / "cqnls" / "depth_table.py"
#: the nodes spaced in ln(omega), then those spaced in ln(3/16 - omega)
LOG_OMEGA_SPAN, LOG_OMEGA_NODES = (0.0035, 0.125), 75
PLATEAU_TOP, PLATEAU_NODES = 0.1869, 50


def nodes() -> list[float]:
    lo, hi = map(math.log, LOG_OMEGA_SPAN)
    step = (hi - lo) / (LOG_OMEGA_NODES - 1)
    omegas = [math.exp(lo + k * step) for k in range(LOG_OMEGA_NODES)]
    g0, g1 = math.log(OMEGA_MAX - LOG_OMEGA_SPAN[1]), math.log(OMEGA_MAX - PLATEAU_TOP)
    step = (g1 - g0) / PLATEAU_NODES
    omegas += [OMEGA_MAX - math.exp(g0 + k * step) for k in range(1, PLATEAU_NODES + 1)]
    return omegas


def _bisected(shot) -> float:
    return 0.5 * sum(shooting._bisect(shot, shooting.BISECTION_TOLERANCE))


def cold_depth(omega: float) -> float:
    """Depth -ln(u+ - u(0)) of the bisected ground state at omega."""
    return _bisected(shooting._DepthShot(omega, shooting.ODE_TOLERANCE))


def cubic_amplitude() -> float:
    return _bisected(shooting._AmplitudeShot(1.0, shooting.ODE_TOLERANCE))


def main():
    rows = "".join(f"{omega!r} {cold_depth(omega)!r}\n" for omega in nodes())
    TABLE.write_text(f'''"""Stored ground states that start every shooting solve inside their span
(``shooting._predict`` and ``shooting._solve``).

Generated by ``scripts/make_depth_table.py``; do not edit.  Each value
comes from a bisection of the trajectory classes at ODE tolerance {shooting.ODE_TOLERANCE!r}:
the bisected depth of the ground state and the bisected amplitude of the
cubic reference.
"""

#: tolerance of the solves below
ODE_TOLERANCE = {shooting.ODE_TOLERANCE!r}

# one "omega depth" row per node, as text: a literal of 1000 floats would
# take milliseconds to compile on every start-up without cached bytecode
_ROWS = """
{rows}"""

#: (omega, depth) of the ground state, depth = -ln(u+ - u(0)) with u+ the
#: upper force zero, in increasing omega
GROUND_DEPTHS = tuple(tuple(map(float, row.split())) for row in _ROWS.strip().splitlines())

#: central amplitude of the cubic reference g'' + (2/r) g' = g - g^3
CUBIC_AMPLITUDE = {cubic_amplitude()!r}
''')


if __name__ == "__main__":
    main()
