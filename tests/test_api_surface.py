"""Every optional parameter of the library is one that some caller sets.

A default that no call in ``src``, ``tests`` or ``benchmarks`` overrides
is a constant spelled as an option: it widens the surface without giving
any caller a choice.  This test reads the sources with ``ast`` and lists
the defaulted parameters of every function in ``src/cqnls`` that no call
sets, by keyword or by position.  Calls are matched to definitions by
name, so a call to any function of that name counts.  A call does not set
a parameter when it passes the default's own literal, or hands on an
optional parameter of its caller that is itself never set.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: options kept on purpose: the solver's one setting and an output path
ALLOWED = {"ode_tolerance", "stem"}


class Parameter(NamedTuple):
    module: str
    function: str
    name: str
    index: int | None     # positional place, None for keyword-only
    method: bool
    default: ast.expr


def _trees(*dirs):
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path.stem, ast.parse(path.read_text(), filename=str(path))


def _callee(func, aliases=None) -> str | None:
    if isinstance(func, ast.Name):
        return (aliases or {}).get(func.id, func.id)
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _parameter_names(fn) -> set[str]:
    return {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}


def _functions(tree):
    return (node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _optional_parameters(module, tree):
    methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for item in cls.body}
    for node in _functions(tree):
        method = id(node) in methods
        positional = node.args.posonlyargs + node.args.args
        offset = len(positional) - len(node.args.defaults)
        for index, (arg, default) in enumerate(zip(positional[offset:], node.args.defaults)):
            yield Parameter(module, node.name, arg.arg, offset + index, method, default)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield Parameter(module, node.name, arg.arg, None, method, default)


class _CallVisitor(ast.NodeVisitor):
    """Each call by the imported name of its function, with the functions
    around it, innermost last; ``functools.partial(f, ...)`` counts as a
    call of f."""

    def __init__(self, module):
        self.module, self.stack, self.calls, self.aliases = module, [], [], {}

    def visit_ImportFrom(self, node):
        self.aliases.update({a.asname: a.name for a in node.names if a.asname})

    def visit_FunctionDef(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func, args = node.func, node.args
        if _callee(func) == "partial" and args:
            func, args = args[0], args[1:]
        self.calls.append((_callee(func, self.aliases), isinstance(func, ast.Attribute),
                           args, node.keywords, self.module, tuple(self.stack)))
        self.generic_visit(node)


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except ValueError:
        return False, None


def unset_optional_parameters() -> list[str]:
    params = []
    for module, tree in _trees("src/cqnls"):
        params.extend(p for p in _optional_parameters(module, tree) if p.name not in ALLOWED)
    by_key = {(p.module, p.function, p.name): p for p in params}

    # every argument that sets a parameter of that function name, with
    # its caller's scope; None stands for a star argument
    settings = defaultdict(list)
    by_function = defaultdict(list)
    for p in params:
        by_function[p.function].append(p)
    for module, tree in _trees("src/cqnls", "tests", "benchmarks"):
        visitor = _CallVisitor(module)
        visitor.visit(tree)
        for name, bound, args, keywords, caller_module, scope in visitor.calls:
            for p in by_function.get(name, ()):
                shift = 1 if p.method and bound else 0
                for place, arg in enumerate(args, start=shift):
                    if isinstance(arg, ast.Starred) and (p.index is None or place <= p.index):
                        settings[p].append((None, caller_module, scope))
                    elif place == p.index:
                        settings[p].append((arg, caller_module, scope))
                for keyword in keywords:
                    if keyword.arg in (p.name, None):
                        value = keyword.value if keyword.arg else None
                        settings[p].append((value, caller_module, scope))

    def passed_on(arg, caller_module, scope):
        """The caller's optional parameter that ``arg`` hands on, if any."""
        if not isinstance(arg, ast.Name):
            return None
        for fn in reversed(scope):
            if arg.id in _parameter_names(fn):
                return by_key.get((caller_module, fn.name, arg.id))
        return None

    def sets(p, arg, caller_module, scope, settled):
        if arg is None:
            return True
        is_literal, value = _literal(arg)
        if is_literal and _literal(p.default) == (True, value):
            return False
        source = passed_on(arg, caller_module, scope)
        return source is None or source in settled

    settled = set()
    grew = True
    while grew:
        grew = False
        for p in params:
            if p not in settled and any(sets(p, *s, settled) for s in settings[p]):
                settled.add(p)
                grew = True
    return [f"{p.module}.{p.function}({p.name})" for p in params if p not in settled]


def test_every_optional_parameter_is_set_by_some_call():
    assert unset_optional_parameters() == []


def test_no_curve_reader_takes_its_own_tolerance():
    # a curve carries the ODE tolerance it was scanned at; a reader with a
    # tolerance of its own mixes two discrete problems when the two differ
    readers = [f"{module}.{fn.name}" for module, tree in _trees("src/cqnls")
               for fn in _functions(tree)
               if {"curve", "ode_tolerance"} <= _parameter_names(fn)]
    assert readers == []
