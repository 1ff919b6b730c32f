"""What the command line loads: numpy alone until a command needs scipy."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
#: what the commands that solve L+, evolve, spectra and the flow load of
#: scipy: its compiled LAPACK wrappers, from their file, and not the
#: scipy.linalg package
FLAPACK = {"scipy.linalg._flapack"}
#: modules no command loads: numpy's masked arrays, which ``np.unique``
#: imports, and the two ``runpy.run_path`` loaded to read the DOP853 tableau
UNUSED = ("numpy.ma", "runpy", "pkgutil")


def _run(code: str) -> str:
    """The last line a fresh interpreter prints after running ``code``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()[-1]


def _modules(code: str) -> set[str]:
    """The full names of the modules a fresh interpreter has loaded after
    running ``code``."""
    return set(json.loads(_run(code + "\nimport json, sys\nprint(json.dumps(list(sys.modules)))")))


def _scipy_modules(code: str) -> set[str]:
    """The full names of the scipy modules a fresh interpreter has loaded
    after running ``code``."""
    return {m for m in _modules(code) if m.split(".")[0] == "scipy"}


def test_import_loads_no_scipy_subpackage():
    assert _scipy_modules("import cqnls.cli") == set()


def test_import_builds_no_stepper():
    # the DOP853 tableau is read and the march of a right-hand side
    # compiled at its first integration, so a command's start-up pays for
    # neither
    code = ("import cqnls.cli\nfrom cqnls import shooting\n"
            "print(shooting._dop853_tableau.cache_info().currsize, "
            "shooting._marcher.cache_info().currsize)")
    assert _run(code).split() == ["0", "0"]


def test_import_freezes_what_it_loads():
    # the objects the imports leave, nearly all numpy's, are frozen, so
    # the collection at interpreter exit does not walk them
    code = "import gc, cqnls.cli\nprint(gc.get_freeze_count())"
    assert int(_run(code)) > 20_000


def test_tableau_is_the_coefficient_file():
    # the loaded module holds what running scipy's source file gives
    import scipy

    from cqnls import shooting
    source = runpy.run_path(os.path.join(os.path.dirname(scipy.__file__), "integrate",
                                         "_ivp", "dop853_coefficients.py"))
    tableau = shooting._dop853_tableau()
    assert tableau["N_STAGES"] == source["N_STAGES"]
    assert tableau["A"] == tuple(tuple(row[:s].tolist()) for s, row in enumerate(source["A"]))
    for name in ("B", "C", "E3", "E5", "D"):
        assert np.array_equal(tableau[name], source[name]), name


#: window flags of a 5-node scan below omega = 0.15
SMALL_SCAN = ["--grid-size", "5", "--omega-min", "0.004", "--omega-max", "0.15"]
#: each command's arguments besides its output directory
ARGUMENTS = {"solve": ["--omega", "0.09"], "spectra": ["--omega", "0.09"],
             "scan": ["--grid-size", "5"],
             "critical": SMALL_SCAN,
             "landscape": ["--mass-grid", "2", "--ode-tol", "1e-10", *SMALL_SCAN],
             "evolve": ["--omega", "0.09", "--t-end", "2"], "validate": []}


@pytest.mark.parametrize("command, needs_lapack", [
    ("solve", False),
    ("spectra", True),
    # a scan solves no L+ unless it differentiates; the root searches of
    # critical and landscape take their slopes from L+ solves
    ("scan", False),
    ("scan --derivatives", True),
    ("critical", True),
    ("landscape", True),
    ("evolve", True),
    # the 1D oracle's references are closed forms, and no other check of
    # the battery integrates, interpolates or factors a matrix
    ("validate", False),
])
def test_commands_load_what_they_use(command, needs_lapack, tmp_path):
    name, *switches = command.split()
    argv = [name, *ARGUMENTS[name], *switches, "--out", str(tmp_path)]
    loaded = _modules(f"from cqnls import cli\nassert cli.main({argv!r}) == 0")
    assert {m for m in loaded if m.split(".")[0] == "scipy"} == (
        FLAPACK if needs_lapack else set())
    assert not {m for m in loaded for unused in UNUSED
                if m == unused or m.startswith(unused + ".")}
    assert (tmp_path / "manifest.json").exists()


def test_flow_certificate_loads_only_lapack():
    code = ("from cqnls.landscape import certify_e_min_by_flow\n"
            "assert certify_e_min_by_flow(320.0) < 0")
    assert _scipy_modules(code) == FLAPACK


def test_scipy_linalg_reuses_the_loaded_wrappers():
    # importing scipy.linalg after cqnls.lapack finds the extension in
    # sys.modules: one module, and the routines are scipy's own objects
    code = ("from cqnls import lapack\nimport scipy.linalg.lapack as scipy_lapack\n"
            "print(scipy_lapack._flapack is lapack._flapack and all(\n"
            "    getattr(lapack, name) is getattr(scipy_lapack, name)\n"
            "    for name in ('zgttrf', 'ztbtrs', 'dstebz', 'dpbsv', 'dgtsv')))")
    assert _run(code) == "True"
