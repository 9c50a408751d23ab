"""Boundary spans and counters for the ccfour modules.

Spans sit only at module boundaries: every function, or method of a class,
that one ccfour module takes from a sibling module (by a module-level or a
function-local import), plus the census pipeline stages named in ROADMAP.md.
A span's self time (its duration minus its child spans) goes to the module
that defines the callee.  The boundaries are found by walking the module
namespaces and import statements, so renamed functions are still traced.

Wrapping every function would cost far more than the boundary spans do,
which is why the spans stop at boundaries.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "ccfour"
LAYERS = ("cli", "census", "solver", "dziobek", "geometry", "verifier",
          "jsonio")

# Stage spans, named as in ROADMAP.md, on functions the stage consists of.
STAGES = {
    "census.seed_lattice": ("ccfour.census", "seed_grid"),
    "census.seed_multipliers": ("ccfour.census", "_seed_vectors"),
    "solver.newton": ("ccfour.solver", "_newton_batch"),
}
# Post-processing is the time census() spends outside its other stages:
# realize, canonicalize, dedupe and classify.
REMAINDER_STAGES = {"census.postprocess": ("ccfour.census", "census")}


def package_modules() -> dict:
    """The loaded ccfour package and submodules, by name.

    Taken from sys.modules because the package attribute ``ccfour.census``
    is the census function, not the module.
    """
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def layer_of(obj) -> str:
    return getattr(obj, "__module__", "").rsplit(".", 1)[-1]


def rebind(old, new) -> list[tuple]:
    """Replace every module-level binding of `old` in the package by `new`;
    return the (module, name) pairs replaced."""
    replaced = []
    for mod in package_modules().values():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                replaced.append((mod, name))
    return replaced


def _resolve(node: ast.ImportFrom, importer: str) -> str:
    if not node.level:
        return node.module or ""
    base = importer.split(".")[:-node.level]
    return ".".join(base + ([node.module] if node.module else []))


def boundaries() -> tuple[dict, list]:
    """Functions and (class, name, method) triples that cross modules."""
    mods = package_modules()
    funcs: dict[int, object] = {}
    methods: dict[tuple[int, str], tuple] = {}

    def add(obj, importer: str) -> None:
        owner = getattr(obj, "__module__", None)
        if owner not in mods or owner in (importer, PACKAGE):
            return
        if inspect.isfunction(obj):
            funcs[id(obj)] = obj
        elif inspect.isclass(obj):
            for name, attr in vars(obj).items():
                if (inspect.isfunction(attr) and not name.startswith("__")
                        and attr.__module__ in mods):
                    methods[(id(obj), name)] = (obj, name, attr)

    for name, mod in mods.items():
        if name == PACKAGE:  # re-exports, not calls between modules
            continue
        for value in list(vars(mod).values()):
            add(value, name)
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(node, ast.ImportFrom):
                target = mods.get(_resolve(node, name))
                for alias in node.names if target else ():
                    add(getattr(target, alias.name, None), name)
    return funcs, list(methods.values())


class Counters:
    """Always-on counts at two boundaries, cheap enough for timed runs.

    residual_calls / residual_rows: batched evaluations, and the rows in
    them, that solver passes into dziobek.cayley_many.  reports: every
    CensusReport that census.census returns.  A boundary that no longer
    exists is listed in `missing` and its counts stay at zero.
    """

    def __init__(self):
        self.residual_calls = 0
        self.residual_rows = 0
        self.reports: list = []
        self.missing: list[str] = []

    def reset(self) -> None:
        self.residual_calls = 0
        self.residual_rows = 0
        self.reports.clear()

    def install(self) -> None:
        solver = sys.modules.get("ccfour.solver")
        cayley_many = getattr(solver, "cayley_many", None)
        if cayley_many is None:
            self.missing.append("ccfour.solver.cayley_many")
        else:
            @functools.wraps(cayley_many)
            def counted(sq, *args, **kwargs):
                self.residual_calls += 1
                self.residual_rows += len(sq)
                return cayley_many(sq, *args, **kwargs)

            solver.cayley_many = counted
        census = getattr(sys.modules.get("ccfour.census"), "census", None)
        if census is None:
            self.missing.append("ccfour.census.census")
            return

        @functools.wraps(census)
        def captured(*args, **kwargs):
            report = census(*args, **kwargs)
            self.reports.append(report)
            return report

        rebind(census, captured)


class Tracer:
    """Self time and call counts per layer, and time per census stage."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.stage_s: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    def span(self, fn, layer: str, stage: str | None = None,
             remainder: str | None = None):
        """Wrap `fn` in a span.  Each stack frame holds the time of its
        child spans and of those children that are stages."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += dur - frame[0]
                self.calls[layer] += 1
                if stage:
                    self.stage_s[stage] += dur
                if remainder:
                    self.stage_s[remainder] += dur - frame[1]
                if stack:
                    stack[-1][0] += dur
                    if stage:
                        stack[-1][1] += dur

        return traced

    def call(self, fn, *args, **kwargs):
        """A span for one call the benchmark itself makes into ccfour."""
        return self.span(fn, layer_of(fn))(*args, **kwargs)

    def install(self) -> None:
        funcs, methods = boundaries()
        tags: dict[int, dict] = {}
        missing = []
        for table, key in ((STAGES, "stage"), (REMAINDER_STAGES, "remainder")):
            for stage, (modname, attr) in table.items():
                fn = getattr(sys.modules.get(modname), attr, None)
                if not inspect.isfunction(fn):
                    missing.append(stage)
                    continue
                funcs[id(fn)] = fn
                tags.setdefault(id(fn), {})[key] = stage
        self.missing = missing
        for key, fn in funcs.items():
            traced = self.span(fn, layer_of(fn), **tags.get(key, {}))
            self._undo += [(mod, name, fn) for mod, name in rebind(fn, traced)]
        for cls, name, fn in methods:
            setattr(cls, name, self.span(fn, layer_of(fn)))
            self._undo.append((cls, name, fn))

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def active(self):
        """Spans at the boundaries for the duration of the block only."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "stage_s": dict(self.stage_s), "missing": self.missing}


class NullTracer:
    """Stands in for Tracer in untraced runs."""

    @staticmethod
    def call(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def active():
        return contextlib.nullcontext()
