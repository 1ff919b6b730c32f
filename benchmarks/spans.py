"""Span tracing of the cqnls layers from outside the package.

The traced run wraps the public functions of each layer (and the few
private boundaries the per-layer metrics need) without touching ``src/``.
``from .shooting import solve_ground_state`` binds by value, so a wrapper
replaces every binding of the original function in every loaded cqnls
module; that way each call is attributed to the span that made it.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
written out by the child process when it exits.  Third-party calls that
happen tens of thousands of times (DOP853 integrations, collocation
rungs, banded solves) are counted, not spanned.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPAN_FIELDS = ["name", "start", "end", "parent", "attrs"]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        #: seconds the wrappers spend outside the calls they wrap
        self.overhead = 0.0
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def counted(self, fn, tally):
        """Wrap ``fn`` so ``tally(result)`` updates counts after each call."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            returned = time.perf_counter()
            tally(result)
            tracer.overhead += time.perf_counter() - returned
            return result
        return wrapper

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` so every call records a span.

        ``before(args, kwargs)`` returns a state handed to
        ``after(state, args, kwargs, result)``, which returns the span's
        attributes.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            record = [name, None, None,
                      tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            state = before(args, kwargs) if before else None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = time.perf_counter()
                record[4] = {"error": True}
                raise
            finally:
                tracer._stack.pop()
            record[2] = time.perf_counter()
            if after:
                record[4] = after(state, args, kwargs, result)
            tracer.overhead += record[1] - entered + time.perf_counter() - record[2]
            return result
        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id, "fields": SPAN_FIELDS, "spans": self.spans,
                "counts": self.counts, "overhead_s": self.overhead}


def _rebind(owner, attr: str, wrapper):
    """Point every cqnls binding of ``owner.attr`` at ``wrapper``."""
    original = getattr(owner, attr)
    for name, module in list(sys.modules.items()):
        if (name == "cqnls" or name.startswith("cqnls.")) \
                and module.__dict__.get(attr) is original:
            setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported cqnls package."""
    # bvp and flow are imported lazily by the package; importing them here
    # lets their bindings be wrapped before the first call
    mods = {name: importlib.import_module(f"cqnls.{name}") for name in (
        "analytic1d", "bvp", "cli", "curves", "dynamics", "flow", "functionals",
        "geometry", "landscape", "profiles", "shooting")}
    shooting, bvp, dynamics, flow = (mods[k] for k in ("shooting", "bvp",
                                                       "dynamics", "flow"))
    counter = tracer.count

    # -- shooting: cache hits, cold shooting solves and their integrations
    def cache_size(args, kwargs):
        return len(shooting._profile_cache)

    def hit(size, args, kwargs, result):
        return {"hit": len(shooting._profile_cache) == size}

    for attr in ("solve_ground_state", "solve_cubic_reference"):
        _rebind(shooting, attr, tracer.span(f"shooting.{attr}",
                                            getattr(shooting, attr),
                                            cache_size, hit))

    def integrations(args, kwargs):
        return tracer.counts.get("shooting.integrations", 0)

    def solve_attrs(before, args, kwargs, result):
        quintic = kwargs.get("quintic", args[2] if len(args) > 2 else True)
        return {"integrations": tracer.counts.get("shooting.integrations", 0) - before,
                "quintic": bool(quintic)}

    _rebind(shooting, "_solve", tracer.span("shooting._solve", shooting._solve,
                                            integrations, solve_attrs))

    def tally_ivp(sol):
        counter("shooting.integrations")
        counter("shooting.rhs_evals", sol.nfev)
    shooting.solve_ivp = tracer.counted(shooting.solve_ivp, tally_ivp)

    # -- bvp: collocation rungs
    def tally_bvp(sol):
        counter("bvp.rungs_attempted")
        # the acceptance test of bvp._climb
        if sol.status == 0 and sol.y[0, 0] > 0.5:
            counter("bvp.rungs_accepted")
        tracer.counts["bvp.max_nodes"] = max(tracer.counts.get("bvp.max_nodes", 0),
                                             int(sol.x.size))
    bvp.solve_bvp = tracer.counted(bvp.solve_bvp, tally_bvp)

    def rungs(args, kwargs):
        return tracer.counts.get("bvp.rungs_attempted", 0)

    def rung_attrs(before, args, kwargs, result):
        return {"rungs": tracer.counts.get("bvp.rungs_attempted", 0) - before}

    _rebind(bvp, "solve_collocation", tracer.span(
        "bvp.solve_collocation", bvp.solve_collocation, rungs, rung_attrs))

    # -- functionals, curves, landscape, geometry, analytic1d
    for module, attrs in (
        ("functionals", ("evaluate",)),
        ("curves", ("scan", "differentiate", "invert_beta", "locate_critical",
                    "classify_stability")),
        ("landscape", ("landscape_table", "e_min_landscape", "classify_normalized",
                       "certify_e_min_by_flow")),
        ("geometry", ("rescale_mass_factor", "rescale_energy_factor")),
        ("analytic1d", ("validate_quadrature_1d",)),
        ("dynamics", ("stability_experiment", "soliton_state", "_reference_family",
                      "modulated_distance", "linearized_spectra",
                      "write_experiment")),
    ):
        for attr in attrs:
            fn = getattr(mods[module], attr)
            _rebind(mods[module], attr, tracer.span(f"{module}.{attr}", fn))

    # -- dynamics: Crank-Nicolson steps and inner banded solves
    dynamics.solve_banded = tracer.counted(dynamics.solve_banded,
                                           lambda _: counter("dynamics.inner"))

    def inner(args, kwargs):
        return tracer.counts.get("dynamics.inner", 0)

    def step_attrs(before, args, kwargs, result):
        initial, t_end, dt = args[:3]
        return {"steps": int(round((t_end - initial.time) / dt)),
                "inner": tracer.counts.get("dynamics.inner", 0) - before}

    _rebind(dynamics, "evolve", tracer.span("dynamics.evolve", dynamics.evolve,
                                            inner, step_attrs))

    # -- flow: iterations of the mass-projected descent
    def flow_attrs(before, args, kwargs, result):
        return {"iterations": int(result.iterations)}

    _rebind(flow, "mass_projected_flow", tracer.span(
        "flow.mass_projected_flow", flow.mass_projected_flow, None, flow_attrs))

    # -- profiles: the Hermite evaluator is a method, so wrap the class slot
    profile_cls = mods["profiles"].RadialProfile
    profile_cls.interpolate = tracer.span("profiles.interpolate",
                                          profile_cls.interpolate)
