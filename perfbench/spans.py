"""Benchmark-side tracing: timing wrappers around the system's public
calls, spans kept in memory, and the per-layer self-time breakdown.

Nothing here lives inside the package.  :class:`Instrumentation` swaps
each public function or method for a wrapper that records a span
(name, layer, start, end, parent span, operation id) and restores the
originals on :meth:`Instrumentation.uninstall`.  A layer's self time is
its spans' time minus the time their child spans cover; the remainder of
an operation's root span is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layer of each operation's root span; its self time is "unattributed".
ROOT_LAYER = "op"

LAYERS = ("frontend", "interp", "profiling", "classify", "transform",
          "bench", "parallel", "runtime", "service")

RECOVERY = "runtime.recovery"


@dataclass
class Span:
    """One timed call: ``op`` is the id of the operation's root span."""

    id: int
    parent: Optional[int]
    op: int
    name: str
    layer: str
    thread: int
    t0: float
    t1: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> Dict[str, object]:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "layer": self.layer,
                "thread": self.thread, "t0": self.t0, "t1": self.t1,
                "attrs": self.attrs}


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, layer: str, **attrs: object) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, parent.id if parent else None,
                    parent.op if parent else span_id, name, layer,
                    threading.get_ident(), time.perf_counter(), attrs=attrs)
        stack.append(span)
        return span

    def close(self, span: Span, **attrs: object) -> None:
        """Close ``span`` and any span left open above it (an exception
        can skip the close of a recovery span)."""
        now = time.perf_counter()
        stack = self._stack()
        while stack:
            top = stack.pop()
            top.t1 = now
            with self._lock:
                self.spans.append(top)
            if top is span:
                break
        span.attrs.update(attrs)

    @contextmanager
    def operation(self, kind: str, **attrs: object) -> Iterator[Span]:
        """Root span of one timed operation."""
        span = self.open(kind, ROOT_LAYER, **attrs)
        try:
            yield span
        finally:
            self.close(span)


# -- wrappers ---------------------------------------------------------------

def _ir_instructions(module) -> int:
    return sum(sum(1 for _ in fn.instructions())
               for fn in module.functions.values())


class Instrumentation:
    """Installs span-recording wrappers around the public calls."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.bench import cache, pipeline
        from repro.classify import classifier
        from repro.frontend import lower
        from repro.interp.interpreter import Interpreter
        from repro.profiling import loopprof, timeprof
        from repro.runtime.system import RuntimeSystem
        from repro.service import serializers
        from repro.transform.privatize import PrivateerTransform

        self._function(lower, "compile_minic", "frontend",
                       after=lambda s, r: s.attrs.update(
                           ir_insts=_ir_instructions(r)))
        self._function(pipeline, "run_sequential", "bench")
        self._function(timeprof, "profile_execution_time", "profiling")
        self._function(loopprof, "profile_loop", "profiling")
        self._function(classifier, "classify", "classify")
        self._function(pipeline, "prepare", "bench")
        self._function(cache, "load_entry", "bench",
                       after=lambda s, r: s.attrs.update(hit=r is not None))
        self._function(serializers, "fingerprint_source", "service")
        self._method(PrivateerTransform, "run", "transform")
        self._method(pipeline.PreparedProgram, "execute", "parallel")
        self._method(RuntimeSystem, "checkpoint", "runtime")
        self._interpreter_run(Interpreter)
        self._recovery(RuntimeSystem)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, name: str, layer: str,
              after: Optional[Callable] = None) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, result)
            return result
        return wrapper

    def _function(self, module, attr: str, layer: str,
                  after: Optional[Callable] = None) -> None:
        """Replace the function in its module and in every package module
        that bound it by name at import time."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, attr, layer, after)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, wrapper)

    def _method(self, cls: type, attr: str, layer: str) -> None:
        self._set(cls, attr, self._wrap(getattr(cls, attr),
                                        f"{cls.__name__}.{attr}", layer))

    def _interpreter_run(self, cls: type) -> None:
        """``Interpreter.run`` counts instructions; a run inside a
        profiler (an instrumented run) belongs to the profiling layer."""
        tracer = self.tracer
        original = cls.run

        @functools.wraps(original)
        def run(interp, *args, **kwargs):
            parent = tracer.top()
            layer = ("profiling" if parent and parent.layer == "profiling"
                     else "interp")
            span = tracer.open("Interpreter.run", layer)
            steps = interp.steps
            try:
                return original(interp, *args, **kwargs)
            finally:
                tracer.close(span, instructions=interp.steps - steps)
        self._set(cls, "run", run)

    def _recovery(self, cls: type) -> None:
        """Recovery spans from ``squash_to_recovery`` to the matching
        ``resume_after_recovery``; the sequential re-execution between
        them is the recovery span's self time."""
        tracer = self.tracer
        squash, resume = cls.squash_to_recovery, cls.resume_after_recovery

        @functools.wraps(squash)
        def squash_to_recovery(runtime, *args, **kwargs):
            tracer.open(RECOVERY, "runtime")
            span = tracer.open("RuntimeSystem.squash_to_recovery", "runtime")
            try:
                return squash(runtime, *args, **kwargs)
            finally:
                tracer.close(span)

        @functools.wraps(resume)
        def resume_after_recovery(runtime, *args, **kwargs):
            span = tracer.open("RuntimeSystem.resume_after_recovery",
                               "runtime")
            try:
                return resume(runtime, *args, **kwargs)
            finally:
                tracer.close(span)
                top = tracer.top()
                if top is not None and top.name == RECOVERY:
                    tracer.close(top)
        self._set(cls, "squash_to_recovery", squash_to_recovery)
        self._set(cls, "resume_after_recovery", resume_after_recovery)


# -- breakdown --------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the durations of its children.
    Spans nest within one thread, so children never overlap."""
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def nesting_errors(spans: List[Span]) -> List[str]:
    """Self times assume every child span lies inside its parent's
    interval and siblings never overlap; list each span that breaks
    that."""
    by_id = {s.id: s for s in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            errors.append(f"span {s.id} {s.name}: parent {s.parent} missing")
        elif not (parent.t0 <= s.t0 <= s.t1 <= parent.t1):
            errors.append(f"span {s.id} {s.name} [{s.t0}, {s.t1}] outside "
                          f"parent {parent.name} [{parent.t0}, {parent.t1}]")
        children[s.parent].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.t0)
        for a, b in zip(kids, kids[1:]):
            if b.t0 < a.t1:
                errors.append(f"spans {a.id} {a.name} and {b.id} {b.name} "
                              "overlap under one parent")
    return errors


def breakdown(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Operation id -> self seconds per layer (plus ``unattributed`` for
    the root's own time and ``wall`` for the root's duration).  The
    layers and ``unattributed`` sum to ``wall``."""
    own = self_times(spans)
    out: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {layer: 0.0 for layer in LAYERS + ("unattributed",)})
    for s in spans:
        row = out[s.op]
        key = "unattributed" if s.layer == ROOT_LAYER else s.layer
        row[key] += own[s.id]
        if s.parent is None:
            row["wall"] = s.duration
    return dict(out)
