"""Ground-state solver: shooting on the radial ODE by the secant method.

The profile equation  u'' + (2/r) u' = omega*u - u^3 + u^5  is integrated
from a regular start at the origin.  In the linear tail z = r u has
z' + sqrt(omega) z growing alone, so g(x) = R u'(R) + (1 + sqrt(omega) R)
u(R) at a fixed radius R is a smooth residual in the shooting parameter
x, zero at the decaying ground state.  The secant method finds its root
from the value the stored depth table predicts (Stoer & Bulirsch,
*Introduction to Numerical Analysis*, section 7.3).  The two classes of
trajectories check it: just below the root a trajectory turns upward
while still positive, just above it crosses zero; the root's dense pass
is one side and a probe the other.  Where the table has no prediction,
or the secant or its check fails, the classes are bisected instead, as
they are for the depth table's rows: a root is reached by these two
ways alone.

A shot gives, at its parameter x, the amplitude and the start of the run
of u (``start``), the radius it runs to (``radius``), its right-hand side
(``problem``) and the bracket of its bisection (``bracket``).  The
classification (``_classify_at``, from a parameter), the bisection
(``_bisect``), the secant (``_secant``) and the dense pass
(``_dense_pass``) are written once over the shot.

The ground state's shooting parameter is its depth -ln(eps), where
u(0) = u+ - eps lies below the force zero u+ (``_DepthShot``).  Toward
3/16, eps ~ exp(-0.36/(3/16 - omega)) falls below one ulp of u+ from
omega ~ 0.18, and the profile is a plateau at u+ of radius about
-ln(eps)/kappa closed by a front (kappa^2 = f'(u+)).  While the deviation
u+ - u is small, the scaled deviation w = (u+ - u)/eps, with its
exponential growth divided out, is integrated from the exact linear
solution sinh(kappa r)/(kappa r), so tolerances stay relative however
small eps is; the trajectory switches to u once the deviation is of
order one, and a shallow ground state runs in u from the origin.  The
cubic reference is shot on its central amplitude (``_AmplitudeShot``).

Every trajectory runs on scipy's DOP853 ported to Python floats (Hairer,
Norsett & Wanner, *Solving ODEs I*, sections II.5-6): the residual runs,
the classifying runs, and the dense pass that samples the profile, which
records the method's dense output of the same run.  Every run stops at
the end of the step in which an event fires.  The run is straight-line
code generated from the source text of each right-hand side and its
events (``_Problem``: the runs of u, of the cubic reference and of the
plateau's scaled deviation) and compiled at its first use
(``_marcher``).  The module needs numpy alone.

The same machinery solves the pure-cubic reference problem
g'' + (2/r) g' = g - g^3 (quintic term switched off), whose solution
controls the small-frequency asymptotics.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import functools
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import BracketFailure, DomainTooSmall, FrequencyOutOfWindow
from .profiles import (CUBIC_REFERENCE, GROUND_STATE, OMEGA_MAX, RadialProfile,
                       even_grid)
from .roots import halve


def __getattr__(name):
    # not used here: the benchmark's traced mode rebinds shooting.solve_ivp
    # to count dense passes, so the name resolves, with a lazy import, until
    # that tracer reads counters from the package instead, as for
    # dynamics.solve_banded
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: relative tolerance of every ODE run: the solver's one setting
ODE_TOLERANCE = 1e-12
#: loosest ODE tolerance accepted: up to it every tail fits the whole
#: matching window within ``TAIL_TOL``; at 1e-4 about half miss it, at
#: 1e-3 all do.  From about 1e-6 the residual's rounding keeps the secant
#: from its root and the classes are bisected
MAX_ODE_TOLERANCE = 1e-5
#: final bracket width of the bisections of the depth table and of the
#: solves whose secant fails, relative to the bracket's lower end: on the
#: depth -ln(u+ - u(0)), or on the cubic reference's amplitude
BISECTION_TOLERANCE = 1e-14
#: radius of the Taylor start at the origin
TAYLOR_START_STEP = 1e-3
#: node spacing of every profile's grid
GRID_SPACING = 0.02
#: the tail is fitted where u falls from the upper to the lower fraction
#: of the amplitude
MATCHING_WINDOW = (3e-5, 3e-3)
#: largest relative spread of u r exp(sqrt(omega) r) the tail fit accepts
TAIL_TOL = 1e-3


class TrajectoryClass(enum.Enum):
    CROSSES_ZERO = "CrossesZero"
    TURNS_UPWARD = "TurnsUpward"
    UNDETERMINED = "Undetermined"


def check_frequency(omega: float):
    if not 0.0 < omega < OMEGA_MAX:
        raise FrequencyOutOfWindow(
            f"omega={omega} outside (0, 3/16): no positive decaying state exists"
        )


def check_tolerance(ode_tolerance: float):
    if not 0.0 < ode_tolerance <= MAX_ODE_TOLERANCE:  # false for nan
        raise ValueError(
            f"ode_tolerance={ode_tolerance} outside (0, {MAX_ODE_TOLERANCE:g}]"
        )


def _force(u, omega, quintic):
    return omega * u - u**3 + (u**5 if quintic else 0.0)


def _force_prime(u, omega, quintic):
    return omega - 3.0 * u**2 + (5.0 * u**4 if quintic else 0.0)


def force_upper_zero(omega: float) -> float:
    """Largest amplitude with restoring force toward zero: the upper root
    of omega - u^2 + u^4 = 0.  The ground amplitude lies strictly below it.
    """
    disc = 1.0 - 4.0 * omega
    if disc < 0:
        raise FrequencyOutOfWindow(f"no force zero for omega={omega}")
    return math.sqrt((1.0 + math.sqrt(disc)) / 2.0)


def default_max_radius(omega: float) -> float:
    """Integration radius of a run from the origin; of a ground state,
    the reach beyond the plateau's front."""
    return max(40.0 / math.sqrt(omega), 60.0)


def _taylor_start(a: float, h: float, omega: float, quintic: bool):
    c2 = _force(a, omega, quintic) / 6.0
    c4 = _force_prime(a, omega, quintic) * c2 / 20.0
    u = a + c2 * h**2 + c4 * h**4
    up = 2.0 * c2 * h + 4.0 * c4 * h**3
    return u, up


def _event_thresholds(a: float):
    # thresholds keep integrator noise (|u'| ~ atol on long plateaus near
    # the upper frequency endpoint) from firing the events spuriously
    return 1e-9 * a, 1e-7 * a


@functools.cache
def _dop853_tableau() -> dict:
    """The namespace of scipy's ``dop853_coefficients.py``, loaded from its
    file at first use (importing it by name would load all of
    ``scipy.integrate``), with its coefficients as floats: row s of "A"
    holds the s coefficients of stage s.  The loader runs the compiled
    ``.pyc`` in scipy's ``__pycache__`` when it is current, as
    ``cqnls.lapack`` loads ``_flapack``; the module is not registered."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location(
        "scipy.integrate._ivp.dop853_coefficients",
        os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    t = vars(module)
    return {**t, "A": tuple(tuple(map(float, row[:s])) for s, row in enumerate(t["A"])),
            **{name: tuple(map(float, t[name])) for name in ("B", "C", "E3", "E5")},
            "D": tuple(tuple(map(float, row)) for row in t["D"])}


# step-size control constants of scipy's DOP853
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)
_SQRT2 = math.sqrt(2.0)  # RMS norms are over the two components


def _initial_step(rhs, r, u, up, fu, fp, length, rtol, atol):
    """scipy's ``select_initial_step`` for the order-7 error estimator."""
    scale_u, scale_p = atol + abs(u) * rtol, atol + abs(up) * rtol
    d0 = math.hypot(u / scale_u, up / scale_p) / _SQRT2
    d1 = math.hypot(fu / scale_u, fp / scale_p) / _SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    fu1, fp1 = rhs(r + h0, u + h0 * fu, up + h0 * fp)
    d2 = math.hypot((fu1 - fu) / scale_u, (fp1 - fp) / scale_p) / _SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, length)


class _Segment(NamedTuple):
    """scipy's ``Dop853DenseOutput`` of one step from r to r_new: the state
    at r and the 7 interpolant rows of each component."""
    r: float
    r_new: float
    u: float
    up: float
    rows_u: tuple
    rows_p: tuple


def _terms(k: str, coefficients) -> str:
    """``sum(map(mul, k, coefficients))`` on stage names ``k0, k1, ...``,
    written out: products added left to right as ``sum`` adds them, less
    the zero coefficients a nonzero one follows.  A non-finite stage makes
    every later one non-finite, so dropping their 0 * inf = nan terms
    keeps the sum non-finite; trailing zeros stay."""
    last = max(j for j, c in enumerate(coefficients) if c)
    return "(" + " + ".join(f"{k}{j} * {c!r}" for j, c in enumerate(coefficients)
                            if c or j > last) + ")"


class _Problem(NamedTuple):
    """Source text of a radial system (y, y')' = (y', y'') and its
    terminal events, from which ``_marcher`` generates a DOP853 run.

    ``state`` names the radius and the two components (``"r, u, up"``)
    and ``params`` the values bound per run.  ``rhs`` holds statements,
    then the expression of the derivative pair; ``events`` holds one
    expression per event and ``directions`` their signs (+1 fires when a
    value rises through zero, -1 when it falls).  The text reads the
    state, the params, its own temporaries and this module's globals; no
    name may be one of the march's own (``t``, ``y``, ``h``, ``ku0``, ...).
    """
    state: str
    params: str
    rhs: tuple[str, ...]
    events: tuple[str, ...]
    directions: tuple[float, ...]


@functools.cache
def _marcher(problem: _Problem):
    """scipy's DOP853 for one ``problem``, as straight-line code from its
    tableau compiled at first use: ``bind(*params)`` returns the problem's
    ``(rhs, events, march)`` with ``params`` bound.

    ``rhs(r, u, up)`` returns (u', u'') and ``events(r, u, up)`` the event
    values.  ``march(r, u, up, r_end, rtol, atol, first_step, segments)``
    is ``_march``'s run.  Each of its 13 stages, and each of the three
    more of a dense segment, writes out the problem's right-hand side;
    the E5/E3 error norm, the step-size control and the event sign tests
    are inline, with ``min`` and ``max`` spelt as the comparisons the
    builtins make.  Each weighted sum rounds as
    ``sum(map(mul, ...))`` does on Python 3.11 (``_terms``), so finite
    results are the same bit for bit as scipy's stage loops.
    """
    t = _dop853_tableau()
    n, a, c = t["N_STAGES"], t["A"], t["C"]
    *preamble, pair = problem.rhs
    # d * v for d = +-1 is v or -v exactly: d * v <= 0.0 <= d * v_new
    # compares v itself
    signs = [">=" if d < 0 else "<=" for d in problem.directions]
    values, new = (", ".join(f"ev{k}{tag}" for k in range(len(signs))) for tag in ("", "_new"))
    tests = [f"ev{k} {op} 0.0 {op} ev{k}_new" for k, op in enumerate(signs)]
    ku, kp = (", ".join(f"{k}{j}" for j in range(n + 1)) for k in ("ku", "kp"))

    def lines(indent, *code):
        return "".join(f"\n{indent}{line}" for line in code)

    def derivative(s, at, indent):
        # the right-hand side at the state ``at`` into stage s
        return lines(indent, f"{problem.state} = {at}", *preamble, f"ku{s}, kp{s} = {pair}")

    def stages(first, stop, indent):
        # the stages from first to stop - 1 at their trial states
        return "".join(derivative(s, f"t + {c[s]!r} * h, y + {_terms('ku', a[s])} * h, "
                                     f"yp + {_terms('kp', a[s])} * h", indent)
                       for s in range(first, stop))

    def rows(y, k):
        return (f"(d{y}, h * {k}0 - d{y}, 2 * d{y} - h * ({k}{n} + {k}0), "
                + ", ".join(f"h * {_terms(k, d)}" for d in t["D"]) + ")")

    last_stage = derivative(n, "t + h, y_new, yp_new", " " * 16)
    source = f"""
def bind({problem.params}):
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf

    def rhs({problem.state}):{lines("        ", *preamble)}
        return {pair}

    def events({problem.state}):
        return ({", ".join(problem.events)},)

    def dense_segment(t, y, yp, t_new, y_new, yp_new, {ku}, {kp}):
        h = t_new - t{stages(n + 1, len(a), "        ")}
        du, dp = y_new - y, yp_new - yp
        return _Segment(t, t_new, y, yp, {rows("u", "ku")}, {rows("p", "kp")})

    def march(t, y, yp, r_end, rtol, atol, first_step, segments):
        steps = 0
        if not t < r_end:
            return None, steps, t, y, yp
        ku0, kp0 = rhs(t, y, yp)
        h_abs = (_initial_step(rhs, t, y, yp, ku0, kp0, r_end - t, rtol, atol)
                 if first_step is None else min(first_step, r_end - t))
        {values}, = events(t, y, yp)
        while t < r_end:
            min_step = 10.0 * (nextafter(t, inf) - t)
            if min_step > h_abs:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    return None, steps, t, y, yp
                t_new = t + h_abs
                if r_end < t_new:
                    t_new = r_end
                h = t_new - t{stages(1, n, "                ")}
                y_new = y + h * {_terms("ku", t["B"])}
                yp_new = yp + h * {_terms("kp", t["B"])}{last_stage}
                scale_u, scale_new = abs(y), abs(y_new)
                scale_u = atol + (scale_new if scale_new > scale_u else scale_u) * rtol
                scale_p, scale_new = abs(yp), abs(yp_new)
                scale_p = atol + (scale_new if scale_new > scale_p else scale_p) * rtol
                e5u, e5p = {_terms("ku", t["E5"])} / scale_u, {_terms("kp", t["E5"])} / scale_p
                e3u, e3p = {_terms("ku", t["E3"])} / scale_u, {_terms("kp", t["E3"])} / scale_p
                e5 = e5u * e5u + e5p * e5p
                e3 = e3u * e3u + e3p * e3p
                # h > 0: the step is at least min_step
                error = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / sqrt((e5 + 0.01 * e3) * 2.0)
                if error < 1.0:
                    if error == 0.0:
                        factor = {_MAX_FACTOR!r}
                    else:
                        factor = {_SAFETY!r} * error ** {_ERROR_EXPONENT!r}
                        factor = factor if factor < {_MAX_FACTOR!r} else {_MAX_FACTOR!r}
                    if rejected and not factor < 1.0:
                        factor = 1.0
                    h_abs = h * factor
                    break
                factor = {_SAFETY!r} * error ** {_ERROR_EXPONENT!r}
                h_abs = h * (factor if factor > {_MIN_FACTOR!r} else {_MIN_FACTOR!r})
                rejected = True
            steps += 1
            if segments is not None:
                segments.append(dense_segment(t, y, yp, t_new, y_new, yp_new, {ku}, {kp}))
            {problem.state} = t_new, y_new, yp_new
            {new} = {", ".join(problem.events)}
            if {" or ".join(tests)}:
                fired = [k for k, hit in enumerate(({", ".join(tests)},)) if hit]
                if len(fired) > 1:
                    fired[0] = _first_event(events, fired, dense_segment(
                        t, y, yp, t_new, y_new, yp_new, {ku}, {kp}))
                return fired[0], steps, t_new, y_new, yp_new
            t, y, yp, ku0, kp0 = t_new, y_new, yp_new, ku{n}, kp{n}
            {values} = {new}
        return None, steps, t, y, yp

    return rhs, events, march
"""
    # the generated functions resolve their globals (math, _initial_step,
    # _first_event, _Segment) in this module
    namespace = {}
    exec(compile(source, f"<dop853 march {problem.rhs[-1]}>", "exec"), globals(), namespace)
    return namespace["bind"]


class _DenseTrajectory:
    """(u, u') of a run at a radius or an array of radii from its step
    segments, as scipy's ``OdeSolution``: each radius takes the segment of
    the step it falls in (the earlier one on a step boundary, the first or
    last one outside the run), with scipy's nested evaluation of the
    rows, and all are evaluated at once."""

    def __init__(self, segments):
        self.starts = np.array([seg.r for seg in segments])
        self.h = np.array([seg.r_new - seg.r for seg in segments])
        self.y0 = np.array([(seg.u, seg.up) for seg in segments])
        # rows[k, j] holds row j of both components of segment k
        self.rows = np.array([tuple(zip(seg.rows_u, seg.rows_p)) for seg in segments])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # the step whose (start, end] holds t, clamped to the run
        k = np.searchsorted(self.starts[1:], t, side="left")
        x = ((t - self.starts[k]) / self.h[k])[..., None]
        factors = (x, 1 - x)
        rows = self.rows[k]
        y = np.zeros((*t.shape, 2))
        for i in range(rows.shape[-2]):
            y += rows[..., -1 - i, :]
            y *= factors[i % 2]
        y += self.y0[k]
        return y.T


def _first_event(events, fired, segment: _Segment) -> int:
    """Index of the earliest root of the ``fired`` events on a step's
    dense output; an equal root goes to the lower index.  A value of zero
    at the step start is a root there; otherwise ``halve`` finds the
    first float at which the value is zero or has left its sign at the
    start."""
    trajectory = _DenseTrajectory([segment])

    def root(k):
        start = events(segment.r, segment.u, segment.up)[k]

        def left(t):
            value = events(t, *trajectory(t))[k]
            return value == 0.0 or (value > 0.0) != (start > 0.0)
        return segment.r if start == 0.0 else halve(left, segment.r, segment.r_new, 0.0)[1]
    return min((root(k), k) for k in fired)[1]


def _march(problem: _Problem, params, r, u, up, r_end, rtol, atol=None, first_step=None,
           segments=None):
    """scipy's DOP853 run of ``problem`` with its ``params`` from (r, u, u')
    up to its first terminal event, on floats, by the march ``_marcher``
    generates for it.

    The same initial step, step-size control, ``min_step``, last step
    clipped to ``r_end`` and sign-change tests as ``solve_ivp``, starting
    from the event values at the start.  Returns ``(event, steps, r, u,
    up)``: the index of the event that ended the run (``None`` when
    ``r_end`` or a too-small step ends it first), the accepted steps and
    the state where the run stopped.  A run stops at the end of the
    accepted step in which an event changes sign, not at the event's
    root; a step that changes the sign of several events ends on the one
    whose root comes first on the step's dense output (``_first_event``).

    With a ``segments`` list the dense output of every accepted step is
    appended to it; the run itself is the same, so a dense pass samples
    the very run that a residual or a classification makes.
    """
    march = _marcher(problem)(*params)[2]
    return march(r, u, up, r_end, rtol, rtol * 1e-2 if atol is None else atol, first_step,
                 segments)


#: the shooting dichotomy's right-hand side and its terminal events:
#: crossing zero and turning upward, past thresholds, and falling through
#: ``match_level``, which places the radius of the matching residual.  A
#: threshold of +inf (a level of -inf) disables its event
_AMPLITUDE = _Problem("r, u, up", "omega, cross_eps, turn_eps, match_level",
                      ("up, omega * u - u**3 + u**5 - 2.0 * up / r",),
                      ("u + cross_eps", "up - turn_eps", "u - match_level"), (-1.0, 1.0, -1.0))
#: the pure-cubic reference problem; the 0.0 where the quintic term stands
#: keeps the sum's rounding (it turns -0.0 into 0.0)
_CUBIC = _AMPLITUDE._replace(rhs=("up, omega * u - u**3 + 0.0 - 2.0 * up / r",))


#: class of a trajectory by the event that ended it (0 crossing, 1 turn)
_EVENT_CLASSES = {0: TrajectoryClass.CROSSES_ZERO, 1: TrajectoryClass.TURNS_UPWARD,
                  None: TrajectoryClass.UNDETERMINED}


def _shoot(shot, a: float, start, radius: float,
           segments=None) -> tuple[TrajectoryClass, int, float]:
    """Class of the run of u of ``shot`` from ``start`` (r, u, u') at
    amplitude ``a``, the DOP853 steps it accepted and the radius where it
    stopped.

    ``_march`` of the shot's problem up to ``radius`` with the dichotomy's
    events at ``a``.  With a ``segments`` list it is also the dense pass of
    ``_dense_pass`` (see ``_march``).
    """
    event, steps, r, *_ = _march(shot.problem, (shot.omega, *_event_thresholds(a), -math.inf),
                                 *start, radius, shot.ode_tolerance, segments=segments)
    return _EVENT_CLASSES[event], steps, r


def _rises(shot, a: float, start) -> bool:
    """Whether the force pushes a Taylor start (a run of q ends past it) away from zero."""
    return start[0] == TAYLOR_START_STEP and _force(a, shot.omega, shot.problem is _AMPLITUDE) >= 0


def _classify_at(shot, x: float) -> TrajectoryClass:
    """Class of the trajectory of ``shot`` at its parameter x: its run of u
    from its start up to its radius (``_shoot``).  Undetermined without a
    start, where a run of q does not leave the plateau.  A Taylor start
    where the force pushes away from zero rises, so it turns upward
    without a run."""
    a, start = shot.start(x)
    if start is None:
        return TrajectoryClass.UNDETERMINED
    if _rises(shot, a, start):
        return TrajectoryClass.TURNS_UPWARD
    return _shoot(shot, a, start, shot.radius(x))[0]


def _bisect(shot, tolerance: float):
    """Bisect the bracket of ``shot`` down to ``tolerance`` times its lower
    end.  The lower end must turn upward and the upper end cross zero, or
    ``BracketFailure`` is raised."""
    lo, hi = shot.bracket
    ends = _classify_at(shot, lo), _classify_at(shot, hi)
    if ends != (TrajectoryClass.TURNS_UPWARD, TrajectoryClass.CROSSES_ZERO):
        raise BracketFailure(
            f"bracket ({lo}, {hi}) classes ({ends[0].value}, {ends[1].value}) "
            "do not separate TurnsUpward from CrossesZero"
        )
    return halve(lambda x: _classify_at(shot, x) is TrajectoryClass.CROSSES_ZERO,
                 lo, hi, tolerance)


def _matched_profile(sample, amplitude: float, omega: float, quintic: bool,
                     r_stop: float, r_level: float) -> RadialProfile:
    """Profile with its tail fitted on the matching window, from a solver
    run that stopped at ``r_stop``.

    ``sample(grid)`` returns the solver's (u, u') on the even grid below
    ``0.98 * r_stop``; the origin is pinned to (amplitude, 0).  The window
    runs from the first node below ``MATCHING_WINDOW[1]`` times the
    amplitude to the first node below ``MATCHING_WINDOW[0]`` times it,
    dropped to an even index, or to the last node, and the profile ends
    there.  The tail constant c of u ~ c exp(-sqrt(omega) r)/r is the mean
    of u r exp(sqrt(omega) r) over the window; a spread larger than
    ``TAIL_TOL`` of c raises ``DomainTooSmall``.  Only the nodes up to
    one past ``r_level``, where the run is below ``MATCHING_WINDOW[0]``
    times the amplitude, are sampled, or the whole grid if none is below.
    """
    w_lo, w_hi = MATCHING_WINDOW
    full = even_grid(0.98 * r_stop, GRID_SPACING, down=True)
    grid = full[:np.searchsorted(full, r_level, side="right") + 1]
    vals, derivs = sample(grid)
    if grid.size < full.size and not np.any(vals < w_lo * amplitude):
        grid, (vals, derivs) = full, sample(full)
    vals[0], derivs[0] = amplitude, 0.0
    below_hi = np.flatnonzero(vals < w_hi * amplitude)
    if below_hi.size == 0:
        raise DomainTooSmall(
            f"solution has not decayed below {w_hi:g}*amplitude by r={grid[-1]:.1f}"
        )
    below_lo = np.flatnonzero(vals < w_lo * amplitude)
    start = below_hi[0]
    end = below_lo[0] - below_lo[0] % 2 if below_lo.size else grid.size - 1
    if end <= start:
        raise DomainTooSmall("matching window leaves too few grid points")
    decay = math.sqrt(omega)

    rw = grid[start:end + 1]
    zw = vals[start:end + 1] * rw * np.exp(decay * rw)
    c = float(np.mean(zw))
    mismatch = float(np.max(np.abs(zw - c)) / abs(c))
    if mismatch > TAIL_TOL:
        raise DomainTooSmall(
            f"tail fit mismatch {mismatch:.2e} exceeds {TAIL_TOL:g}"
        )
    # copies: views would keep the whole sample alive in the profile cache
    grid, vals, derivs = grid[:end + 1].copy(), vals[:end + 1].copy(), derivs[:end + 1].copy()

    return RadialProfile(
        grid=grid, values=vals, derivs=derivs,
        omega=omega if quintic else None,
        tail_constant=c,
        kind=GROUND_STATE if quintic else CUBIC_REFERENCE, decay_rate=decay,
    )


def _dense_pass(shot, x: float):
    """The class of the run of u of ``shot`` at its parameter x, undetermined
    where ``_classify_at`` needs no run, and a builder of its profile: from
    its dense pass, and below its start, where a depth shot's run of q
    starts it, from the dense q pass and the start solution
    (``_DepthShot.plateau``)."""
    q_segments, u_segments = [], []
    a, start = shot.start(x, q_segments)
    radius = shot.radius(x)
    if start is None:
        def no_profile():
            raise DomainTooSmall(f"solution has not left the plateau by r={radius:.1f}")
        return TrajectoryClass.UNDETERMINED, no_profile
    at, _, r_stop = _shoot(shot, a, start, radius, u_segments)
    if _rises(shot, a, start):
        at = TrajectoryClass.UNDETERMINED
    trajectory = _DenseTrajectory(u_segments)
    # the end of the first step that ends below the matching window
    r_level = next((seg.r for seg in u_segments if seg.u < MATCHING_WINDOW[0] * a), math.inf)

    def sample(grid):
        # the grid's first node past the origin lies beyond a Taylor start
        vals, derivs = trajectory(np.maximum(grid, start[0]))
        if q_segments:
            shot.plateau(x, _DenseTrajectory(q_segments), start[0], grid, vals, derivs)
        return vals, derivs

    return at, functools.partial(_matched_profile, sample, a, shot.omega,
                                 shot.problem is _AMPLITUDE, r_stop, r_level)


class _AmplitudeShot:
    """Shooting on the central amplitude of the cubic reference: the
    Taylor start of u at the origin, run to ``default_max_radius``."""

    problem = _CUBIC
    #: from just above u = 1, where the force u - u^3 starts to pull toward
    #: zero, to well past the amplitude, about 4.34
    bracket = (1.1, 19.0)

    def __init__(self, omega: float, ode_tolerance: float):
        self.omega, self.ode_tolerance = omega, ode_tolerance

    def start(self, a: float, segments=None):
        """The amplitude ``a`` and the Taylor start of its run of u: no run
        of q comes before it, so ``segments`` stays empty."""
        return a, (TAYLOR_START_STEP,
                   *_taylor_start(a, TAYLOR_START_STEP, self.omega, False))

    def radius(self, a: float) -> float:
        return default_max_radius(self.omega)


#: deepest plateau shot at: exp(-700) is still a normal double
_MAX_LOG_DEPTH = 700.0


#: the plateau run of q: its right-hand side and the switch event, where
#: the deviation v rises through v_switch.  The cap min(., 50.0) only binds
#: on trial points far past the switch, where v**5 would overflow
_PLATEAU = _Problem(
    "r, q, qp", "kappa, depth, c2, c3, c4, v_switch",
    ("x = kappa * r - depth", "v = math.exp(50.0 if 50.0 < x else x) * q / r",
     "qp, -2.0 * kappa * qp - q * v * (c2 + v * (c3 + v * (c4 - v)))"),
    ("math.exp(kappa * r - depth) * q / r - v_switch",), (1.0,))


class _DepthShot:
    """Shooting on the depth -s = -ln(eps) of the central value
    u(0) = u+ - eps.

    With v = u+ - u, the profile equation reads v'' + (2/r) v' = -g(v),
    g(v) = f(u+ - v) = -kappa^2 v + c2 v^2 + c3 v^3 + c4 v^4 - v^5 (the
    constant term f(u+) ~ 0 dropped).  The scaled deviation w = v/eps
    obeys w'' + (2/r) w' = -g(eps w)/eps, whose linearisation has the
    regular solution sinh(kappa r)/(kappa r).  It is integrated as
    q = r w exp(-kappa r), which a plateau leaves almost constant
    (1/(2 kappa) on the linear solution), so the steps there are long:

        q'' = -2 kappa q' - q v (c2 + v (c3 + v (c4 - v))),
        v = eps w = exp(kappa r - depth) q / r.

    A trajectory starts on the linear solution where v = delta (or at the
    Taylor start of w when eps >= delta), is marched in q until u falls to
    the midpoint of the force zeros u- < u+, where f < 0 on the way rules
    out a turn, and then goes on in u with the events of ``_AMPLITUDE``.
    Where eps itself reaches that midpoint's deviation, as the ground
    state's does below omega ~ 0.02, the run of u starts at the origin.
    The bracket runs from the depth of amplitude 1e-6 (which turns upward
    at once) to ``_MAX_LOG_DEPTH``.  The integration radius is the front,
    about -s/kappa, plus ``default_max_radius``.
    """

    problem = _AMPLITUDE

    def __init__(self, omega: float, ode_tolerance: float):
        p = force_upper_zero(omega)
        self.omega, self.ode_tolerance, self.p = omega, ode_tolerance, p
        self.k2 = omega - 3.0 * p * p + 5.0 * p**4
        self.kappa = math.sqrt(self.k2)
        self.c2, self.c3, self.c4 = 10.0 * p**3 - 3.0 * p, 1.0 - 10.0 * p * p, 5.0 * p
        # half the gap between the force zeros u+ and u- = sqrt(omega)/u+
        self.v_switch = 0.5 * (p - math.sqrt(omega) / p)
        # the linear start is off by about its own deviation, relative;
        # keep that a hundredth of the ODE tolerance
        self.delta = 1e-2 * ode_tolerance
        self.bracket = (-math.log(p - 1e-6), _MAX_LOG_DEPTH)

    def radius(self, depth: float) -> float:
        return depth / self.kappa + default_max_radius(self.omega)

    def _params(self, depth: float):
        """The values ``_PLATEAU`` binds for a run at ``depth``."""
        return self.kappa, depth, self.c2, self.c3, self.c4, self.v_switch

    def _deviation(self, lib, depth: float, r, q, qp):
        """(v, v') = (u+ - u, -u') from q: with ``lib`` math on floats,
        numpy on arrays."""
        scale = lib.exp(self.kappa * r - depth) / r
        return scale * q, scale * (qp + (self.kappa - 1.0 / r) * q)

    def _start(self, depth: float):
        """Start radius r0 of the q integration, the (q, q') there, and
        ``inner(lib, r)``, the (w, w') of the start solution on (0, r0]
        (``lib`` as for ``_deviation``)."""
        eps, h0, kappa = math.exp(-depth), TAYLOR_START_STEP, self.kappa
        if eps >= self.delta:
            k2, c2, c3, c4, v = self.k2, self.c2, self.c3, self.c4, eps
            # Taylor start of w from w(0) = 1, as _taylor_start for u
            b2 = (k2 - v * (c2 + v * (c3 + v * (c4 - v)))) / 6.0
            b4 = (k2 - v * (2.0 * c2 + v * (3.0 * c3 + v * (4.0 * c4 - 5.0 * v)))) * b2 / 20.0

            def inner(lib, r):
                return 1.0 + b2 * r**2 + b4 * r**4, 2.0 * b2 * r + 4.0 * b4 * r**3
            r0 = h0
        else:
            # sinh(y)/y = delta/eps for y = kappa r0, by fixed-point iteration
            target = math.log(self.delta) + depth
            y = max(target, 1.0)
            for _ in range(4):
                y = target + math.log(2.0 * y) - math.log1p(-math.exp(-2.0 * y))

            def inner(lib, r):
                y = kappa * r
                return lib.sinh(y) / y, kappa * (lib.cosh(y) - lib.sinh(y) / y) / y
            r0 = max(y / kappa, h0)
        w, wp = inner(math, r0)
        decay = math.exp(-kappa * r0)
        return r0, decay * r0 * w, decay * (w + r0 * wp - kappa * r0 * w), inner

    def start(self, depth: float, segments=None):
        """The amplitude at ``depth`` and the (r, u, u') where its run of u
        starts: the Taylor start at the origin when eps is past the switch,
        else past the plateau, or None when the q run does not leave it.

        q is marched from the start solution until u falls to the midpoint
        of the force zeros, at relative tolerance min(tol, 1e-10) for every
        run, so a profile's dense q pass (with a ``segments`` list) is the
        run that its residuals and classifications made: a 1e-8 pass left
        its interpolant between the long plateau steps off by up to 8e-7.
        """
        eps = math.exp(-depth)
        a = self.p - eps
        if eps >= self.v_switch:
            return a, (TAYLOR_START_STEP,
                       *_taylor_start(a, TAYLOR_START_STEP, self.omega, True))
        r0, q, qp, _ = self._start(depth)
        rtol = min(self.ode_tolerance, 1e-10)
        # q is controlled relative to its plateau value 1/(2 kappa), and q'
        # to the same absolute level: its errors reach q damped by 2 kappa.
        # First step 1/kappa, the scale of the linear solution: scipy's
        # initial-step probe looks far past the switch, where v explodes,
        # and would start a dozen steps too small
        event, _, r, q, qp = _march(_PLATEAU, self._params(depth), r0, q, qp, self.radius(depth),
                                    rtol, atol=rtol / (2.0 * self.kappa),
                                    first_step=1.0 / self.kappa, segments=segments)
        if event is None:
            return a, None
        v, vp = self._deviation(math, depth, r, q, qp)
        return a, (r, self.p - v, -vp)

    def plateau(self, depth: float, q_run, r_sw: float, grid, vals, derivs):
        """Write (u, u') below the switch radius ``r_sw`` of the run at
        ``depth`` into ``vals`` and ``derivs`` on ``grid``: the dense q pass
        ``q_run`` from the start radius on, the start solution inside it."""
        eps, p = math.exp(-depth), self.p
        r0, _, _, inner = self._start(depth)
        plateau = (grid >= r0) & (grid < r_sw)
        v, vp = self._deviation(np, depth, grid[plateau], *q_run(grid[plateau]))
        vals[plateau], derivs[plateau] = p - v, -vp
        inside = (grid > 0.0) & (grid < r0)
        w, wp = inner(np, grid[inside])
        vals[inside], derivs[inside] = p - eps * w, -eps * wp


#: relative offset of the secant's second point and of the check's two
#: classifications from the root
_PROBE = 1e-11
#: relative step that stops the secant: slopes from iterates 1e-13 apart
#: are rounding, while a stop at 1e-8 left roots outside the check's probes
_SECANT_STOP = 1e-12
#: most secant steps per solve: from the table it takes two or three; more
#: mean a jump of the residual, where the runs change their steps
_SECANT_STEPS = 3


def _secant(shot, x0: float) -> float:
    """Root of the matching residual g(x) = R u'(R) + (1 + sqrt(omega) R) u(R)
    in the parameter x of ``shot``, by the secant method from ``x0`` and
    ``x0 * (1 + _PROBE)``.  R is the end of the step in which the run from
    ``x0`` falls through ``MATCHING_WINDOW[0]`` times its amplitude; later
    runs go to R with their events disabled.  ``BracketFailure`` when that
    run ends otherwise or no step comes below ``_SECANT_STOP``."""
    decay = math.sqrt(shot.omega)

    def residual(x, r_end, match):
        # the event that ended the run from x, where it stopped, and g there;
        # with ``match`` it stops past the matching level, else at r_end
        a, start = shot.start(x)
        if start is None:
            return None, math.nan, math.nan
        levels = ((*_event_thresholds(a), MATCHING_WINDOW[0] * a) if match
                  else (math.inf, math.inf, -math.inf))
        event, _, r, u, up = _march(shot.problem, (shot.omega, *levels), *start, r_end,
                                    shot.ode_tolerance)
        return event, r, r * up + (1.0 + decay * r) * u

    event, radius, g_prev = residual(x0, shot.radius(x0), True)
    if event != 2:
        raise BracketFailure(
            f"omega={shot.omega}: the run from {x0!r} does not fall to "
            f"{MATCHING_WINDOW[0]:g} of its amplitude")
    x_prev, x = x0, x0 * (1.0 + _PROBE)
    for _ in range(_SECANT_STEPS):
        _, r, g = residual(x, radius, False)
        step = g * (x - x_prev) / (g - g_prev) if g != g_prev else math.nan
        if r != radius or not math.isfinite(step):
            break
        x_prev, g_prev, x = x, g, x - step
        if abs(step) <= _SECANT_STOP * abs(x):
            return x
    raise BracketFailure(f"omega={shot.omega}: the secant from {x0!r} did not settle "
                         f"within {_SECANT_STEPS} steps")


def _root(shot, x0: float) -> tuple[float, RadialProfile]:
    """The ground state's parameter and profile: ``_secant`` from ``x0``,
    checked by the dichotomy.  Just below the root a trajectory must turn
    upward and just above it cross zero, or ``BracketFailure`` is raised.
    The root's dense pass (``_dense_pass``) is one side, so one probe
    ``_PROBE`` off it checks the other; two where the pass is undetermined."""
    x = _secant(shot, x0)
    at, profile = _dense_pass(shot, x)
    below = at if at is TrajectoryClass.TURNS_UPWARD else _classify_at(shot, x * (1.0 - _PROBE))
    above = at if at is TrajectoryClass.CROSSES_ZERO else _classify_at(shot, x * (1.0 + _PROBE))
    if (below, above) != (TrajectoryClass.TURNS_UPWARD, TrajectoryClass.CROSSES_ZERO):
        raise BracketFailure(
            f"omega={shot.omega}: the matched root {x!r} is not bracketed; within {_PROBE:g} "
            f"(relative) the classes are ({below.value}, {above.value})")
    return x, profile()


def _parameter(shot, x0: float | None) -> tuple[float, RadialProfile]:
    """``_root`` from ``x0``; with no start (``x0`` None, outside the depth
    table's span) or where ``_root`` raises (the residual's rounding at
    loose tolerances or near the depth limit, a jump, a start too far
    below), the midpoint of the classes bisected as the table's rows are."""
    if x0 is not None:
        with contextlib.suppress(BracketFailure):
            return _root(shot, x0)
    x = 0.5 * sum(_bisect(shot, BISECTION_TOLERANCE))
    return x, _dense_pass(shot, x)[1]()


def _solve(omega: float, ode_tolerance: float, quintic: bool) -> RadialProfile:
    if quintic:
        shot, x0 = _DepthShot(omega, ode_tolerance), _predict(omega)
    else:
        from . import depth_table
        shot, x0 = _AmplitudeShot(omega, ode_tolerance), depth_table.CUBIC_AMPLITUDE
    return _parameter(shot, x0)[1]


_profile_cache: dict = {}


def _newton_predict(x: float, samples) -> float:
    """Value at x by Newton interpolation through the ``(x_i, value_i)``
    samples, nearest first."""
    near = sorted(samples, key=lambda entry: abs(entry[0] - x))
    nodes = [node for node, _ in near]
    coef = [value for _, value in near]
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - k])
    value, basis = 0.0, 1.0
    for c, node in zip(coef, nodes):
        value += c * basis
        basis *= x - node
    return value


@functools.cache
def _table() -> tuple[tuple[float, float], ...]:
    """The depth table as (x, y) = (ln(3/16 - omega), (3/16 - omega) depth)
    in increasing x: y is of order one over the window, where the depth
    grows like 1/(3/16 - omega).  Read at first use: a table that fails to
    import must not block the bisections regenerating it."""
    from . import depth_table
    return tuple(sorted((math.log(OMEGA_MAX - omega), (OMEGA_MAX - omega) * depth)
                        for omega, depth in depth_table.GROUND_DEPTHS))


#: table nodes per prediction
_TABLE_POINTS = 8


def _predict(omega: float) -> float | None:
    """The ground state's depth -ln(u+ - u(0)) at omega as the depth table
    predicts it: y over x (``_table``) interpolated through the
    ``_TABLE_POINTS`` nearest nodes.  ``None`` outside the table's span.
    """
    x = math.log(OMEGA_MAX - omega)
    nodes = _table()
    i = bisect.bisect(nodes, x, key=lambda node: node[0])
    if not 0 < i < len(nodes):
        return None
    start = min(max(i - _TABLE_POINTS // 2, 0), len(nodes) - _TABLE_POINTS)
    return _newton_predict(x, nodes[start:start + _TABLE_POINTS]) / (OMEGA_MAX - omega)


def solve_ground_state(omega: float, ode_tolerance: float = ODE_TOLERANCE) -> RadialProfile:
    """Positive decaying solution of the cubic-quintic profile equation.

    The shooting parameter is the depth -ln(u+ - u(0)), the log of the gap
    between the amplitude and the force zero, which the amplitude comes
    within one ulp of toward 3/16 (``_DepthShot``), up to omega = 0.186967,
    where the depth reaches ``_MAX_LOG_DEPTH``.  Inside the depth table's
    span the secant method finds the root of the matching residual from
    the table's prediction (``_secant``), and the class of the root's
    dense pass, which samples the profile, and of one probe beside it
    check it (``_root``).  Outside the span, or where the secant or its
    check fails, the trajectory classes are bisected to
    ``BISECTION_TOLERANCE`` instead, as the table's rows are
    (``_parameter``).  No cache feeds the start, so the profile depends on
    omega and the tolerance alone.
    """
    check_frequency(omega)
    check_tolerance(ode_tolerance)
    key = (float(omega), ode_tolerance)
    if key in _profile_cache:
        return _profile_cache[key]
    try:
        profile = _solve(omega, ode_tolerance, quintic=True)
    except BracketFailure as err:
        # only a bisection's ends raise, and its lowest depth turns upward
        # at once, so the deepest end missed
        raise BracketFailure(
            f"omega={omega}: the ground state lies deeper than the depth limit "
            f"-ln(u+ - u(0)) = {_MAX_LOG_DEPTH:g} of depth shooting, as it does "
            f"from omega = 0.186967 on; {err}") from err
    _profile_cache[key] = profile
    return profile


def solve_cubic_reference(ode_tolerance: float = ODE_TOLERANCE) -> RadialProfile:
    """Positive decaying solution of g'' + (2/r)g' = g - g^3 (unit frequency);
    the secant starts from the amplitude stored in the depth table, and
    without it the classes are bisected (``_parameter``)."""
    check_tolerance(ode_tolerance)
    key = ("cubic", ode_tolerance)
    if key in _profile_cache:
        return _profile_cache[key]
    profile = _solve(1.0, ode_tolerance, quintic=False)
    _profile_cache[key] = profile
    return profile
