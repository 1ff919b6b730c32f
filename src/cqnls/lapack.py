"""The five LAPACK routines cqnls calls, from scipy's compiled wrappers.

``scipy.linalg._flapack`` is loaded from its file, as
``shooting._dop853_tableau`` reads scipy's DOP853 coefficients: importing
it by name would first run ``scipy.linalg``'s package, which imports most
of scipy's linear algebra (about 0.3 s) where the extension itself loads
in milliseconds.  The module is registered under its own name, so a later
``import scipy.linalg`` reuses it, and the routines are the very objects
``scipy.linalg.lapack`` hands out.  Each returns LAPACK's ``info`` and
checks no input for nan or inf: the callers test both.  ``ztbtrs`` on a
unit diagonal, as ``dynamics.evolve`` calls it, has no singular case and
always returns 0: the pivots it was built from passed ``zgttrf``'s check.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [os.path.join(root, "linalg")])
    if spec is None:
        raise ImportError(f"no compiled {_NAME} under {root}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_flapack = _load()
#: LU factors of a complex tridiagonal matrix
zgttrf = _flapack.zgttrf
#: solve of a complex triangular banded system
ztbtrs = _flapack.ztbtrs
#: eigenvalues of a real symmetric tridiagonal matrix by bisection
dstebz = _flapack.dstebz
#: solve of a real symmetric positive definite banded system by Cholesky
dpbsv = _flapack.dpbsv
#: solve of a real tridiagonal system by LU with partial pivoting
dgtsv = _flapack.dgtsv
