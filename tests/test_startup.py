"""What the command line loads: numpy alone until a command needs scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
#: what evolve, spectra and the flow load of scipy: its compiled LAPACK
#: wrappers, from their file, and not the scipy.linalg package
FLAPACK = {"scipy.linalg._flapack"}


def _run(code: str) -> str:
    """The last line a fresh interpreter prints after running ``code``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()[-1]


def _scipy_modules(code: str) -> set[str]:
    """The full names of the scipy modules a fresh interpreter has loaded
    after running ``code``."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy')))")
    return set(json.loads(_run(code + probe)))


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


#: each command's arguments besides its output directory
ARGUMENTS = {"solve": ["--omega", "0.09"], "spectra": ["--omega", "0.09"],
             "scan": ["--grid-size", "5", "--derivatives"],
             "evolve": ["--omega", "0.09", "--t-end", "2"], "validate": []}


@pytest.mark.parametrize("command, needs_lapack", [
    ("solve", False),
    ("spectra", True),
    # scan's derivatives solve their linear systems in plain Python
    ("scan", False),
    ("evolve", True),
    # the 1D oracle's references are closed forms, and no other check of
    # the battery integrates, interpolates or factors a matrix
    ("validate", False),
])
def test_commands_load_what_they_use(command, needs_lapack, tmp_path):
    argv = [command, *ARGUMENTS[command], "--out", str(tmp_path)]
    loaded = _scipy_modules(f"from cqnls import cli\nassert cli.main({argv!r}) == 0")
    assert loaded == (FLAPACK if needs_lapack else set())
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
            "    for name in ('zgttrf', 'zgttrs', 'dstebz', 'dgbsv')))")
    assert _run(code) == "True"
