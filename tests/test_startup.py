"""What the command line loads: numpy alone until a command needs scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
#: scipy subpackages no command needs: evolve, spectra and the flow load
#: scipy.linalg alone, validate, scan (with its derivatives) and the rest none
UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.interpolate", "scipy.sparse",
          "scipy.special")


def _scipy_modules(code: str) -> set[str]:
    """The scipy packages (two levels deep) a fresh interpreter has loaded
    after running ``code``."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted({'.'.join(m.split('.')[:2]) "
             "for m in sys.modules if m.split('.')[0] == 'scipy'})))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code + probe], env=env,
                         capture_output=True, text=True, check=True)
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_import_loads_no_scipy_subpackage():
    assert not _scipy_modules("import cqnls.cli") & set(UNUSED)


def test_import_builds_no_stepper():
    # the DOP853 tableau is read and the march of a right-hand side
    # compiled at its first integration, so a command's start-up pays for
    # neither
    code = ("import cqnls.cli\nfrom cqnls import shooting\n"
            "print(shooting._dop853_tableau.cache_info().currsize, "
            "shooting._marcher.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "0"]


#: each command's arguments besides its output directory
ARGUMENTS = {"solve": ["--omega", "0.09"], "spectra": ["--omega", "0.09"],
             "scan": ["--grid-size", "5", "--derivatives"]}


@pytest.mark.parametrize("command, needs_linalg",
                         [("solve", False), ("spectra", True), ("scan", False)])
def test_commands_load_what_they_use(command, needs_linalg, tmp_path):
    # scan's derivatives solve their linear systems in plain Python
    argv = [command, *ARGUMENTS[command], "--out", str(tmp_path)]
    loaded = _scipy_modules(f"from cqnls import cli\nassert cli.main({argv!r}) == 0")
    assert not loaded & set(UNUSED)
    assert ("scipy.linalg" in loaded) is needs_linalg
    assert (tmp_path / "manifest.json").exists()


def test_validate_loads_no_scipy_subpackage(tmp_path):
    # the 1D oracle's references are closed forms, and no other check of
    # the battery integrates, interpolates or factors a matrix
    loaded = _scipy_modules(
        "from cqnls import cli\n"
        f"assert cli.main(['validate', '--out', {str(tmp_path)!r}]) == 0")
    assert loaded <= {"scipy"}
