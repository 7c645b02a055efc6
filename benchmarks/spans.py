"""Spans and counts recorded from outside calmir, by wrapping its public functions.

A `Tracer` keeps one span stack per thread.  A span opened on a thread whose
stack is empty takes the outermost open span of the process (the anchor,
normally the `calmir.cli.main` call) as its parent, so sweep rows computed in
pool threads count as children of the CLI call that started them.

Self time is a span's duration minus the part of its interval covered by
the union of its children's intervals; children on different threads may
overlap, and the union counts each instant once.

`hooks(tracer)` replaces every binding of the wrapped functions in every
loaded calmir module (the defining module and each module that imported the
name) and restores them on exit.  A function that no longer exists is
reported as absent rather than as zero calls.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    points: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; `summary()` aggregates them per name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._anchor: Span | None = None
        self.spans: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1].id
            elif self._anchor is not None:
                parent = self._anchor.id
            else:
                parent = None
            span = Span(next(self._ids), name, parent, time.perf_counter())
            if parent is None:
                self._anchor = span
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span '{span.name}' closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)
            if self._anchor is span:
                self._anchor = None

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.id] = (s.end - s.start) - covered
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, points, attrs summed."""
        selfs = self.self_times()
        agg: dict[str, dict] = {}
        for s in self.spans:
            a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0, "attrs": {}})
            a["calls"] += 1
            a["s"] += s.end - s.start
            a["self_s"] += selfs[s.id]
            a["points"] += s.points
            for k, v in s.attrs.items():
                a["attrs"][k] = a["attrs"].get(k, 0) + v
        return agg


# --- wrappers for calmir's public functions ----------------------------------------------


def _plain(tracer, name, fn, points_arg=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            if points_arg is not None:
                s.points = int(np.size(args[points_arg] if len(args) > points_arg else kwargs["xi"]))
            return fn(*args, **kwargs)

    return wrapper


def _force(tracer, fn, counter):
    def wrapper(*args, **kwargs):
        with tracer.span("lifshitz.force") as s:
            res = fn(*args, **kwargs)
            s.attrs[counter] = int(res.n_terms_used)
            return res

    return wrapper


def _adaptive(tracer, fn):
    def wrapper(*args, **kwargs):
        with tracer.span("quadrature.adaptive") as s:
            out = fn(*args, **kwargs)
            s.points = int(out[2])
            return out

    return wrapper


def _rowwise(tracer, fn):
    """The integrand callback handed to the row-wise engine is the reflection layer:
    stack reflection times the damped mode term, one call per refinement pass."""

    def wrapper(fvals, *args, **kwargs):
        with tracer.span("quadrature.rowwise") as outer:
            last = [0]

            def traced_fvals(x):
                with tracer.span("reflection") as s:
                    s.points = int(np.size(x))
                    outer.attrs["passes"] = outer.attrs.get("passes", 0) + 1
                    outer.points += s.points
                    last[0] = s.points
                    return fvals(x)

            out = fn(traced_fvals, *args, **kwargs)
            outer.attrs["final_points"] = last[0]
            return out

    return wrapper


# (module, function, wrapper factory); the factory gets (tracer, original function)
HOOKS = (
    ("calmir.cli", "main", lambda t, f: _plain(t, "cli", f)),
    ("calmir.scenario", "parse", lambda t, f: _plain(t, "scenario.parse", f)),
    ("calmir.lifshitz", "force_zero_T", lambda t, f: _force(t, f, "outer_rows")),
    ("calmir.lifshitz", "force_finite_T", lambda t, f: _force(t, f, "matsubara_terms")),
    ("calmir.lifshitz", "bound_envelope", lambda t, f: _plain(t, "lifshitz.bound_envelope", f)),
    ("calmir.quadrature", "rowwise_panel_integral", _rowwise),
    ("calmir.quadrature", "adaptive_integral", _adaptive),
    ("calmir.materials", "response_sample",
     lambda t, f: _plain(t, "materials.response_sample", f, points_arg=1)),
    ("calmir.asymptotics", "hamaker_c3", lambda t, f: _plain(t, "asymptotics.hamaker_c3", f)),
    ("calmir.asymptotics", "matched_media_force",
     lambda t, f: _plain(t, "asymptotics.matched_media_force", f)),
    ("calmir.asymptotics", "build_report", lambda t, f: _plain(t, "asymptotics.build_report", f)),
    ("calmir.asymptotics", "polylog2", lambda t, f: _plain(t, "asymptotics.polylog", f)),
    ("calmir.asymptotics", "polylog3", lambda t, f: _plain(t, "asymptotics.polylog", f)),
)


def _calmir_modules():
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "calmir" or n.startswith("calmir."))]


@contextlib.contextmanager
def hooks(tracer: Tracer):
    """Wrap every binding of the HOOKS functions; yields the coverage report.

    Coverage maps "module.function" to the list of "module.name" bindings
    replaced, or to the string "absent" when the function does not exist.
    """
    coverage: dict[str, object] = {}
    replaced: list[tuple[object, str, object]] = []
    modules = _calmir_modules()
    try:
        for modname, fname, factory in HOOKS:
            key = f"{modname}.{fname}"
            home = sys.modules.get(modname)
            original = getattr(home, fname, None) if home is not None else None
            if not callable(original):
                coverage[key] = "absent"
                continue
            wrapper = factory(tracer, original)
            bound = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        bound.append(f"{mod.__name__}.{attr}")
            coverage[key] = bound
        yield coverage
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
