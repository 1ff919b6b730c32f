"""Ground-state solver: amplitude shooting with bisection on the radial ODE.

The profile equation  u'' + (2/r) u' = omega*u - u^3 + u^5  is integrated
from a Taylor start near the origin.  Central amplitudes split into two
classes: too low and the trajectory turns upward while still positive, too
high (past the ground amplitude) and it crosses zero.  Bisection pins the
separatrix, which is the decaying ground state.

The same machinery solves the pure-cubic reference problem
g'' + (2/r) g' = g - g^3 (quintic term switched off), whose solution
controls the small-frequency asymptotics.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BracketFailure, DomainTooSmall, FrequencyOutOfWindow
from .profiles import (CUBIC_REFERENCE, GROUND_STATE, OMEGA_MAX, RadialProfile,
                       ShootingConfig, even_grid)


class TrajectoryClass(enum.Enum):
    CROSSES_ZERO = "CrossesZero"
    TURNS_UPWARD = "TurnsUpward"
    UNDETERMINED = "Undetermined"


def check_frequency(omega: float):
    if not 0.0 < omega < OMEGA_MAX:
        raise FrequencyOutOfWindow(
            f"omega={omega} outside (0, 3/16): no positive decaying state exists"
        )


def _force(u, omega, quintic):
    return omega * u - u**3 + (u**5 if quintic else 0.0)


def _force_prime(u, omega, quintic):
    return omega - 3.0 * u**2 + (5.0 * u**4 if quintic else 0.0)


def force_upper_zero(omega: float, quintic: bool = True) -> float:
    """Largest amplitude with restoring force toward zero.

    For the cubic-quintic case this is the upper root of
    omega - u^2 + u^4 = 0; the ground amplitude lies strictly below it.
    """
    if not quintic:
        return 20.0  # cubic force u - u^3 stays restoring for all u > 1
    disc = 1.0 - 4.0 * omega
    if disc < 0:
        raise FrequencyOutOfWindow(f"no force zero for omega={omega}")
    return math.sqrt((1.0 + math.sqrt(disc)) / 2.0)


def hamiltonian_upper_root(omega: float) -> float:
    """Largest positive root of -omega a^2/2 + a^4/4 - a^6/6 = 0."""
    disc = 2.25 - 12.0 * omega
    if disc < 0:
        raise FrequencyOutOfWindow(f"flat Hamiltonian has no positive root, omega={omega}")
    s = (1.5 + math.sqrt(disc)) / 2.0
    return math.sqrt(s)


def default_max_radius(omega: float) -> float:
    return max(40.0 / math.sqrt(omega), 60.0)


def _taylor_start(a: float, h: float, omega: float, quintic: bool):
    c2 = _force(a, omega, quintic) / 6.0
    c4 = _force_prime(a, omega, quintic) * c2 / 20.0
    u = a + c2 * h**2 + c4 * h**4
    up = 2.0 * c2 * h + 4.0 * c4 * h**3
    return u, up


def _integrate(a: float, omega: float, cfg: ShootingConfig, quintic: bool,
               max_radius: float, dense: bool = False):
    h0 = cfg.taylor_start_step

    def rhs(r, y):
        u, up = y
        return (up, _force(u, omega, quintic) - 2.0 * up / r)

    # thresholds keep integrator noise (|u'| ~ atol on long plateaus near
    # the upper frequency endpoint) from firing the events spuriously
    cross_eps = 1e-9 * a
    turn_eps = 1e-7 * a

    def ev_cross(r, y):
        return y[0] + cross_eps
    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_turn(r, y):
        return y[1] - turn_eps
    ev_turn.terminal = True
    ev_turn.direction = 1.0

    y0 = _taylor_start(a, h0, omega, quintic)
    sol = solve_ivp(
        rhs, (h0, max_radius), y0, method="DOP853",
        rtol=cfg.ode_tolerance, atol=cfg.ode_tolerance * 1e-2,
        events=(ev_cross, ev_turn), dense_output=dense,
    )
    if sol.t_events[0].size:
        label = TrajectoryClass.CROSSES_ZERO
        r_stop = float(sol.t_events[0][0])
    elif sol.t_events[1].size:
        label = TrajectoryClass.TURNS_UPWARD
        r_stop = float(sol.t_events[1][0])
    else:
        label = TrajectoryClass.UNDETERMINED
        r_stop = float(sol.t[-1])
    return label, r_stop, sol


def classify_trajectory(amplitude: float, omega: float, cfg: ShootingConfig | None = None,
                        quintic: bool = True, max_radius: float | None = None) -> TrajectoryClass:
    """Assign the shooting dichotomy class of one central amplitude."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    cfg = cfg or ShootingConfig()
    if quintic:
        check_frequency(omega)
    if max_radius is None:
        max_radius = cfg.max_radius if cfg.max_radius is not None else default_max_radius(omega)
    if _force(amplitude, omega, quintic) >= 0.0:
        # force pushes away from zero at the start: the trajectory rises
        return TrajectoryClass.TURNS_UPWARD
    return _integrate(amplitude, omega, cfg, quintic, max_radius)[0]


def _default_bracket(omega: float, quintic: bool):
    if quintic:
        # the ground amplitude approaches the force zero exponentially fast
        # as omega -> 3/16, so the upper endpoint must hug it tightly
        hi = force_upper_zero(omega) * (1.0 - 1e-13)
        return 1e-6, hi
    return 1.1, 19.0


#: levels the verification climbs toward the root after a failed check
_CLIMB_LEVELS = 4
#: smallest prediction error, relative to the predicted amplitude.  Within
#: about 1e-12 (relative) of the root the trajectory class is not monotone in
#: the amplitude (widest band seen: 1.1e-12 at ode_tolerance 1e-8, 6e-14 at
#: 1e-10, none at 1e-12); a replayed interval at least twice this wide keeps
#: every unverified midpoint of the cold path outside that band.
_PREDICTION_ERR_FLOOR = 1e-11


def _bisect_amplitude(omega: float, cfg: ShootingConfig, quintic: bool, max_radius: float,
                      prediction: tuple[float, float] | None = None):
    """Bisect the amplitude bracket down to ``cfg.bisection_tolerance``.

    With a ``prediction`` ``(a_pred, err)`` the bisection tree of the root
    bracket is first replayed without integrating, steering each midpoint
    by ``a_pred``, down to an interval no wider than ``4 * err``.  Once
    that interval's endpoints classify as a bracket, the ordinary bisection
    continues from it (a failed check climbs toward the root).  A verified
    interval is a node of the cold bisection path, so the returned bracket
    equals the cold one bit for bit.  ``err`` is raised to at least
    ``_PREDICTION_ERR_FLOOR * |a_pred|``.
    """
    if cfg.amplitude_bracket is not None:
        lo, hi = cfg.amplitude_bracket
    else:
        lo, hi = _default_bracket(omega, quintic)
    classes = {}

    def classify(a):
        if a not in classes:
            classes[a] = classify_trajectory(a, omega, cfg, quintic, max_radius)
        return classes[a]

    def brackets(lo, hi):
        return (classify(lo) is TrajectoryClass.TURNS_UPWARD
                and classify(hi) is TrajectoryClass.CROSSES_ZERO)

    path = [(lo, hi)]
    # the default bracket ends below the force zero, where the classes are
    # ordered in the amplitude, so a verified interval inside it implies the
    # check of the bracket itself; a configured bracket may reach past the
    # force zero and is checked first, as in a cold solve
    if prediction is not None and (cfg.amplitude_bracket is None or brackets(lo, hi)):
        a_pred, err = prediction
        width = max(4.0 * err, 4.0 * _PREDICTION_ERR_FLOOR * abs(a_pred),
                    cfg.bisection_tolerance)
        a, b = lo, hi
        while b - a > width:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break
            a, b = (a, mid) if a_pred < mid else (mid, b)
            path.append((a, b))
    level = len(path) - 1
    while not brackets(*path[level]):
        if level == 0:
            raise BracketFailure(
                f"bracket ({lo}, {hi}) classes ({classify(lo).value}, {classify(hi).value}) "
                "do not separate TurnsUpward from CrossesZero"
            )
        level = max(level - _CLIMB_LEVELS, 0)
    lo, hi = path[level]
    while hi - lo > cfg.bisection_tolerance:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if classify(mid) is TrajectoryClass.CROSSES_ZERO:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _matched_profile(sample, amplitude: float, omega: float, quintic: bool,
                    r_a: float, r_b: float, cfg: ShootingConfig) -> RadialProfile:
    """Profile on the even grid up to r_b with its tail fitted on [r_a, r_b].

    ``sample(grid)`` returns the solver's (u, u') on the grid; the origin
    is pinned to (amplitude, 0).  The tail constant c of
    u ~ c exp(-sqrt(omega) r)/r is the mean of u r exp(sqrt(omega) r) over
    the matching window.
    """
    grid = even_grid(r_b, cfg.grid_spacing, down=True)
    if grid.size < 11:
        raise DomainTooSmall("matching window leaves too few grid points")
    vals, derivs = sample(grid)
    vals[0], derivs[0] = amplitude, 0.0
    decay = math.sqrt(omega)

    window = (grid >= r_a) & (grid <= r_b)
    rw = grid[window]
    zw = vals[window] * rw * np.exp(decay * rw)
    c = float(np.mean(zw))
    mismatch = float(np.max(np.abs(zw - c)) / abs(c))
    if mismatch > cfg.tail_tol:
        # retry on the deeper half of the window, where nonlinear
        # corrections to the decay law are weaker
        half = rw >= 0.5 * (r_a + r_b)
        if np.count_nonzero(half) >= 5:
            c = float(np.mean(zw[half]))
            mismatch = float(np.max(np.abs(zw[half] - c)) / abs(c))
    if mismatch > cfg.tail_tol:
        raise DomainTooSmall(
            f"tail fit mismatch {mismatch:.2e} exceeds {cfg.tail_tol:g}"
        )

    return RadialProfile(
        grid=grid, values=vals, derivs=derivs,
        omega=omega if quintic else None,
        amplitude=amplitude, tail_constant=c, truncation_radius=float(grid[-1]),
        kind=GROUND_STATE if quintic else CUBIC_REFERENCE, decay_rate=decay,
    )


def _build_profile(a: float, omega: float, cfg: ShootingConfig, quintic: bool,
                   max_radius: float) -> RadialProfile:
    _, r_stop, sol = _integrate(a, omega, cfg, quintic, max_radius, dense=True)
    w_lo, w_hi = cfg.matching_window
    h0 = cfg.taylor_start_step

    # locate the matching window on a fine scan of the dense trajectory
    fine = np.linspace(h0, r_stop, 4000)
    u_fine = sol.sol(fine)[0]
    below_hi = np.nonzero(u_fine < w_hi * a)[0]
    if below_hi.size == 0:
        raise DomainTooSmall(
            f"solution has not decayed below {w_hi:g}*amplitude by r={r_stop:.1f}"
        )
    r_a = fine[below_hi[0]]
    below_lo = np.nonzero(u_fine < w_lo * a)[0]
    r_b = fine[below_lo[0]] if below_lo.size else min(0.98 * r_stop, fine[-1])
    if r_b <= r_a:
        r_b = min(0.98 * r_stop, fine[-1])

    def sample(grid):
        vals, derivs = sol.sol(np.maximum(grid, h0))
        # nodes inside the Taylor start (only for pathological spacings)
        inner = (grid > 0.0) & (grid < h0)
        vals[inner], derivs[inner] = _taylor_start(a, grid[inner], omega, quintic)
        return vals, derivs

    return _matched_profile(sample, a, omega, quintic, r_a, r_b, cfg)


def _solve(omega: float, cfg: ShootingConfig, quintic: bool,
           prediction: tuple[float, float] | None = None) -> RadialProfile:
    base_radius = cfg.max_radius if cfg.max_radius is not None else default_max_radius(omega)
    last_err = None
    radius = base_radius
    for _ in range(3):
        try:
            lo, hi = _bisect_amplitude(omega, cfg, quintic, radius, prediction)
            return _build_profile(0.5 * (lo + hi), omega, cfg, quintic, radius)
        except DomainTooSmall as err:
            last_err = err
            radius *= 2.0
            if radius > 4.0 * base_radius:
                break
    raise last_err


_profile_cache: dict = {}


def _predict_amplitude(omega: float, cfg: ShootingConfig) -> tuple[float, float] | None:
    """Ground amplitude at omega and its error bound, by Newton
    interpolation in omega over the (at most four) nearest cached ground
    states of this configuration; ``None`` when none is cached.

    The bound is four times the last Newton term, or 50 |omega - omega_0|
    with a single neighbour.
    """
    fingerprint = cfg.fingerprint()
    near = sorted(((key[0], profile.amplitude) for key, profile in _profile_cache.items()
                   if key[1] == fingerprint and profile.kind == GROUND_STATE),
                  key=lambda entry: abs(entry[0] - omega))[:4]
    if not near:
        return None
    nodes = [o for o, _ in near]
    coef = [a for _, a in near]
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - k])
    a_pred, basis = 0.0, 1.0
    for c, node in zip(coef, nodes):
        term = c * basis
        a_pred += term
        basis *= omega - node
    err = 4.0 * abs(term) if len(nodes) > 1 else 50.0 * abs(omega - nodes[0])
    if not (math.isfinite(a_pred) and math.isfinite(err)):
        return None
    return a_pred, err


def solve_ground_state(omega: float, cfg: ShootingConfig | None = None) -> RadialProfile:
    """Positive decaying solution of the cubic-quintic profile equation.

    Shooting handles frequencies up to a switch point; above it the
    separatrix amplitude is no longer resolvable in double precision and
    the solver hands off to collocation continuation (see bvp module).
    A shooting solve starts its bisection from the amplitude predicted by
    cached neighbours; the profile is the same as without them.
    """
    check_frequency(omega)
    cfg = cfg or ShootingConfig()
    key = (float(omega), cfg.fingerprint())
    if key in _profile_cache:
        return _profile_cache[key]
    from .bvp import OMEGA_SHOOTING_MAX, solve_collocation

    if omega > OMEGA_SHOOTING_MAX:
        profile = solve_collocation(omega, cfg)
    else:
        profile = _solve(omega, cfg, quintic=True,
                         prediction=_predict_amplitude(omega, cfg))
    _profile_cache[key] = profile
    return profile


def solve_cubic_reference(cfg: ShootingConfig | None = None) -> RadialProfile:
    """Positive decaying solution of g'' + (2/r)g' = g - g^3 (unit frequency)."""
    cfg = cfg or ShootingConfig()
    key = ("cubic", cfg.fingerprint())
    if key in _profile_cache:
        return _profile_cache[key]
    profile = _solve(1.0, cfg, quintic=False)
    _profile_cache[key] = profile
    return profile
