"""In-memory spans around the package's layer entry points.

Tracing is done from outside: ``install`` replaces each entry point, in
the namespace of the module that calls it, by a wrapper that records a
span (id, name, start, end, parent) and ``uninstall`` puts the originals
back. Nothing under ``src/`` knows about it.

Self time of a span is its duration minus the durations of its children.
Every workload runs on one thread; a span opened on another thread raises,
because its nesting could not be trusted.
"""

from __future__ import annotations

import functools
import itertools
import threading
from time import perf_counter

import numpy as np

import levycdo.engine
import levycdo.mc
import levycdo.pricing
from levycdo.engine import SurfaceEngine
from levycdo.hjm import ForwardSurface
from levycdo.loss import LossCompensatorSpec


def _thinning_attrs(out):
    _, sizes, counts = out
    return {"events": int(np.sum(counts)), "sizes": sizes, "counts": counts}


def _driver_attrs(out):
    return {"events": int(len(out[0]))}


# (owner, attribute, span name, attrs from result). Owners are the modules
# that call the function, or the class for methods.
SPAN_POINTS = (
    (SurfaceEngine, "__init__", "engine.build", None),
    (ForwardSurface, "from_function", "hjm.surface_build", None),
    (SurfaceEngine, "run_chunk", "engine.run_chunk", None),
    (SurfaceEngine, "_draw_levy_events", "engine.driver_draw", _driver_attrs),
    (SurfaceEngine, "_extra_drift_head", "engine.event_drift", None),
    (SurfaceEngine, "_c_rows", "engine.contagion", None),
    (SurfaceEngine, "_cum_extra", "engine.level_tables", None),
    (SurfaceEngine, "_emit_assembled", "engine.report", None),
    (levycdo.engine, "simulate_loss_paths_bulk", "loss.thinning", _thinning_attrs),
    (levycdo.mc, "simulate_loss_paths_bulk", "loss.thinning", _thinning_attrs),
    (levycdo.mc, "_discounted_bond_values", "mc.collect", None),
    (levycdo.pricing, "bond_price", "hjm.bond_price", None),
)
COUNT_POINTS = (
    (LossCompensatorSpec, "effective_atoms", "loss.effective_atoms_calls"),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "child", "attrs")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child = 0.0      # summed durations of the children
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    def begin(self, name):
        pass

    def end(self, attrs=None):
        pass

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    """Collects spans and counters of one traced run, on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._thread = threading.get_ident()
        self._saved: list = []

    def begin(self, name: str) -> Span:
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} opened off the tracing thread")
        st = self._stack
        span = Span(next(self._ids), name, perf_counter(),
                    st[-1].id if st else 0)
        st.append(span)
        return span

    def end(self, attrs=None) -> Span:
        t1 = perf_counter()
        st = self._stack
        span = st.pop()
        span.end = t1
        span.attrs = attrs
        if st:
            st[-1].child += t1 - span.start
        self.spans.append(span)
        return span

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    # ----- patching ---------------------------------------------------------

    def _span_wrapper(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.end(attrs_of(out) if attrs_of and out is not None
                         else None)
        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs_of in SPAN_POINTS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            if isinstance(fn, classmethod):
                wrapped = classmethod(
                    self._span_wrapper(fn.__func__, name, attrs_of))
            else:
                wrapped = self._span_wrapper(fn, name, attrs_of)
            setattr(owner, attr, wrapped)
        for owner, attr, name in COUNT_POINTS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # ----- output -----------------------------------------------------------

    def save(self, path) -> None:
        """Write every span as columns of an .npz file."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        sp = self.spans
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[s.name] for s in sp], dtype=np.int16),
            id=np.array([s.id for s in sp], dtype=np.int64),
            parent=np.array([s.parent for s in sp], dtype=np.int64),
            start=np.array([s.start for s in sp]),
            end=np.array([s.end for s in sp]),
            self_time=np.array([s.self_time for s in sp]),
        )
