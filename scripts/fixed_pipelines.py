"""Run the fixed pipelines and print a digest of the data they write.

A change that must move no number is checked by running this on the
parent commit and on the change, then diffing the two digests:

    python scripts/fixed_pipelines.py OUT > digest.txt

Each pipeline runs in a fresh process on the ``src`` of the checkout this
script sits in and writes into its own directory under OUT.  The digest
is one ``sha256  path`` line per data file (``manifest.json`` is left out,
as it holds the wall time), then the repr of
``certify_e_min_by_flow(320.0)``, then the accepted DOP853 steps and the
``_march`` runs of one seeded and one cold ground-state solve at each of
omega = 0.01 (a run of u from the origin), 0.09 and 0.185 (a q run over
a short and a long plateau, then u), so a stepper change that moves a
single step shows in the diff.  A cold solve has no start from the depth
table and so bisects the classes, as the table's rows are bisected.  The
cubic reference's seeded and cold solve follow, with the repr of its
amplitude and tail constant: no pipeline writes it to a data file.  Then
comes the solve at omega = 0.18692, above the table's span, whose one
bisection shows if a second way to the root returns ahead of it.  Then
come the ``_march`` runs of seeded solves at 250 frequencies at each of
two tolerances, where a change to the depth table's spacing shows, and
the solves, ``_march`` runs and initial distances of the ``evolve``
pipeline's soliton family at omega = 0.073, where a change to the family
shows.  The ``critical`` and ``landscape-2`` pipelines then run again
in-process and print the fresh solves and L+ solves of each of their
root searches.  Then the ``scan`` pipeline runs again in-process and
prints its count of ``solve_ground_state`` calls and the worst value
over its nodes of each of criterion 02's three derivative identities,
which no data file holds either.  The ``ACCURACY`` block follows: the ``critical`` pipeline runs
again at ODE tolerances 1e-10 and 1e-8, and for each the largest
relative difference from the default run (1e-12) over omega_star,
omega_upper_star, m0, m_q1 and m_threshold is printed to two significant
digits, so a change that weakens convergence shows in the diff.  Last
comes the ``STARTUP`` block: for each pipeline, the modules besides
cqnls's own that its process loaded after ``import cqnls.cli``, so a
command that starts importing a heavy module shows in the diff.  It
takes about 11 s on a 2-core host, the ``ACCURACY`` block about 1.5 s of
it.
Digests compare only between runs on one host: numpy's SIMD level moves
the last bits of some data files.  A run that fails stops the script:
the name of its pipeline and its standard error go to stderr, and the
exit status is 1.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
#: the benchmark landscape's frequency window, as a --config file
WINDOW = "omega_min = 0.004\nomega_max = 0.15\n"
#: (output directory, CLI arguments, --config text or None)
PIPELINES = (
    ("scan", ("scan", "--grid-size", "12", "--omega-min", "0.004",
              "--omega-max", "0.15", "--derivatives"), None),
    ("critical", ("critical",), None),
    ("landscape-2", ("landscape", "--mass-grid", "2", "--grid-size", "5",
                     "--ode-tol", "1e-10"), WINDOW),
    ("landscape-12", ("landscape", "--mass-grid", "12", "--grid-size", "5",
                      "--ode-tol", "1e-10", "--omega-min", "0.004",
                      "--omega-max", "0.15"), None),
    ("classify", ("classify", "--mass-ratio", "1.5"), None),
    ("evolve", ("evolve", "--omega", "0.073", "--t-end", "2"), None),
    ("spectra", ("spectra", "--omega", "0.12"), None),
    ("solve-0.09", ("solve", "--omega", "0.09"), None),
    ("solve-0.185", ("solve", "--omega", "0.185"), None),
    ("validate", ("validate",), None),
)
#: one pipeline's command line, run after ``import cqnls.cli`` with its
#: standard output dropped; prints the modules the run loaded besides
#: cqnls's own, and exits with the command's status
PIPELINE = """
import contextlib, io, sys
import cqnls.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    status = cqnls.cli.main(sys.argv[1:])
print(" ".join(sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "cqnls")))
sys.exit(status)
"""
CERTIFY = ("from cqnls.landscape import certify_e_min_by_flow; "
           "print(repr(certify_e_min_by_flow(320.0)))")
#: accepted steps (summed over ``_march`` runs) and ``_march`` runs per
#: solve, each with an empty cache; the seeded solve starts from the depth
#: table (its prediction of the depth, its cubic amplitude), the cold one
#: has no start and bisects the classes, as the table's rows are and as a
#: solve outside the table's span does; the unforced solve at 0.18692 is
#: one such; then the ``_march`` runs of the seeded solves over 250
#: frequencies across the table's span, at ODE tolerance 1e-12 and 1e-10,
#: which a change to the table's spacing moves; last, the fresh solves
#: (``_solve`` calls) and ``_march`` runs of the ``evolve`` pipeline's
#: base profile and soliton family at omega = 0.073, and the initial
#: modulated distance at perturbations 0.01 and 0.001
COUNTS = """
import numpy as np
from cqnls import depth_table, shooting
march, predict, tally = shooting._march, shooting._predict, [0, 0]
cubic = depth_table.CUBIC_AMPLITUDE

def counted_march(*args, **kwargs):
    result = march(*args, **kwargs)
    tally[0] += result[1]
    tally[1] += 1
    return result

shooting._march = counted_march
for omega in (0.01, 0.09, 0.185):
    for label in ("cold", "seeded"):
        shooting._profile_cache.clear()
        shooting._predict = (lambda omega: None) if label == "cold" else predict
        tally[:] = [0, 0]
        shooting.solve_ground_state(omega)
        print(f"omega={omega} {label}: {tally[0]} accepted steps, {tally[1]} marches")
for label in ("cold", "seeded"):
    shooting._profile_cache.clear()
    depth_table.CUBIC_AMPLITUDE = None if label == "cold" else cubic
    tally[:] = [0, 0]
    profile = shooting.solve_cubic_reference()
    print(f"cubic {label}: {tally[0]} accepted steps, {tally[1]} marches, "
          f"amplitude {profile.amplitude!r}, tail constant {profile.tail_constant!r}")
shooting._profile_cache.clear()
tally[:] = [0, 0]
shooting.solve_ground_state(0.18692)
print(f"omega=0.18692 above the table: {tally[0]} accepted steps, {tally[1]} marches")
for tol in (1e-12, 1e-10):
    shooting._profile_cache.clear()
    tally[:] = [0, 0]
    for omega in np.linspace(0.004, 0.1869, 250):
        shooting.solve_ground_state(float(omega), tol)
    print(f"sweep of 250 omega in [0.004, 0.1869] at {tol}: {tally[1]} marches")
from cqnls import dynamics
solve, solves = shooting._solve, []
shooting._solve = lambda omega, *args, **kwargs: solves.append(omega) or solve(omega, *args,
                                                                             **kwargs)
shooting._profile_cache.clear()
tally[:] = [0, 0]
distances = [dynamics.stability_experiment(0.073, size, t_end=1.0)["initial_distance"]
             for size in (0.01, 0.001)]
print(f"evolve family at omega=0.073: {len(solves)} fresh solves, {tally[1]} marches, "
      f"initial distance {distances[0]!r} at 0.01, {distances[1]!r} at 0.001")
"""

#: fresh solves (``shooting._solve`` calls) and L+ solves
#: (``curves._omega_pairings`` calls) of each ``monotone_root`` call of a
#: pipeline, run in-process with its data files written to a temporary
#: directory and its standard output dropped
ROOT_SEARCHES = """
import contextlib, io, sys, tempfile
from cqnls import cli, curves, landscape, shooting
name, argv = sys.argv[1], sys.argv[2:]
search, solve, pairings, tally, rows = (curves.monotone_root, shooting._solve,
                                        curves._omega_pairings, [0, 0], [])

def counted(fn, k):
    def wrapper(*args, **kwargs):
        tally[k] += 1
        return fn(*args, **kwargs)
    return wrapper

def counted_search(*args, **kwargs):
    before = tally[:]
    result = search(*args, **kwargs)
    rows.append((tally[0] - before[0], tally[1] - before[1]))
    return result

shooting._solve, curves._omega_pairings = counted(solve, 0), counted(pairings, 1)
curves.monotone_root = landscape.monotone_root = counted_search
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    cli.main([*argv, "--out", out])
for i, (solves, lplus) in enumerate(rows, 1):
    print(f"{name} monotone_root {i}: {solves} fresh solves, {lplus} L+ solves")
"""

#: the ``scan`` pipeline's solves and its worst criterion 02 identities
CRITERION_02 = """
from cqnls import curves
solve, calls = curves.solve_ground_state, []
curves.solve_ground_state = lambda *args: calls.append(args) or solve(*args)
curve = curves.differentiate(curves.scan(curves.default_omega_grid(12, 0.004, 0.15)))
worst = {name: max(getattr(check, name) for check in curve.derivative_checks)
         for name in ("grad_identity", "energy_identity", "d_second")}
print(f"scan: {len(calls)} solve_ground_state calls, worst identities "
      + ", ".join(f"{name} {value:.3e}" for name, value in worst.items()))
"""


#: the ``critical`` pipeline's tolerances besides its default 1e-12, and
#: the numbers of its ``critical.json`` that the ``ACCURACY`` block compares
ACCURACY_TOLERANCES = ("1e-10", "1e-8")
ACCURACY_NAMES = ("omega_star", "omega_upper_star", "m0", "m_q1", "m_threshold")


def _python(name: str, *args: str) -> str:
    """Standard output of ``python args`` on SRC; if it fails, print the
    pipeline's name and standard error and exit nonzero."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"{name} failed with exit status {run.returncode}:\n{run.stderr}")
    return run.stdout


def _accuracy(out: Path) -> list:
    """One ``ACCURACY`` line per tolerance in ``ACCURACY_TOLERANCES``: the
    ``critical`` pipeline run again at it, and the largest relative
    difference of its numbers from the default run's in OUT."""
    default = json.loads((out / "critical" / "critical.json").read_text())
    lines = []
    for tol in ACCURACY_TOLERANCES:
        with tempfile.TemporaryDirectory() as loose_out:
            _python(f"critical at {tol}", "-m", "cqnls.cli", "critical", "--ode-tol", tol,
                    "--out", loose_out)
            loose = json.loads((Path(loose_out) / "critical.json").read_text())
        diffs = {k: abs(loose[k] / default[k] - 1.0) for k in ACCURACY_NAMES}
        name = max(diffs, key=diffs.get)
        lines.append(f"ACCURACY critical at --ode-tol {tol}: largest relative difference "
                     f"{diffs[name]:.1e} from the default run, at {name}")
    return lines


def main(out: Path):
    startup = []
    for name, argv, config in PIPELINES:
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        extra = ()
        if config is not None:
            (target / "config.txt").write_text(config)
            extra = ("--config", str(target / "config.txt"))
        loaded = _python(name, "-c", PIPELINE, *argv, *extra, "--out", str(target))
        startup.append(f"STARTUP {name}: {loaded.strip() or '-'}")
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
    print(_python("certify", "-c", CERTIFY), end="")
    print(_python("counts", "-c", COUNTS), end="")
    for name, argv, config in PIPELINES:
        if name in ("critical", "landscape-2"):
            extra = () if config is None else ("--config", str(out / name / "config.txt"))
            print(_python(name, "-c", ROOT_SEARCHES, name, *argv, *extra), end="")
    print(_python("criterion 02", "-c", CRITERION_02), end="")
    print("\n".join(_accuracy(out) + startup))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    main(Path(sys.argv[1]))
