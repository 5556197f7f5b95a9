"""Out-of-program span tracing for the benchmark's traced runs.

The tracer never edits the program: it replaces functions and methods
*where callers look them up* with thin wrappers that record a span around
each call.  A module-level function is replaced in every ``repro`` module
that imported it by name (``finalize_screen`` is called through
``serving.shards``, ``serving.remote`` and ``serving.executor``), a method
on the class that defines it.

A span carries its name, start, end, parent span and the id of the gateway
flush it ran in.  Spans opened on a helper thread (the remote tier fans
shard requests out to a thread pool) take the main thread's innermost open
span as their parent.  Spans stay in memory; :meth:`Tracer.write_chrome`
writes them as Chrome trace-event JSON, which Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

clock = time.perf_counter


class Span:
    """One recorded call: ``[start, end)`` on :func:`clock`, in seconds."""

    __slots__ = ("name", "start", "end", "parent", "flush", "tid", "attrs",
                 "pid")

    def __init__(self, name: str, start: float, end: float,
                 parent: "Span | None" = None, flush: int = 0, tid: int = 0,
                 attrs: dict | None = None, pid: int = 0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.flush = flush
        self.tid = tid
        self.attrs = attrs
        self.pid = pid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.start:.6f}, {self.end:.6f}, "
                f"parent={getattr(self.parent, 'name', None)!r})")


def _resolve(target: str):
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self.flush = 0
        self._flush_ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Callable | None = None,
             opens_flush: bool = False) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span; ``opens_flush`` gives the span (and everything under it) a
        fresh flush id.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            outer_flush = tracer.flush
            if opens_flush:
                tracer.flush = next(tracer._flush_ids)
            span = Span(name, 0.0, 0.0, parent, tracer.flush,
                        threading.get_ident())
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if opens_flush:
                    tracer.flush = outer_flush
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    # -- installing wrappers where callers look them up ------------------
    def _replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, name: str, targets: Iterable[str],
                attrs: Callable | None = None,
                opens_flush: bool = False) -> int:
        """Wrap every target; returns how many bindings were replaced.

        A class target wraps the method in the class namespace (plain,
        class- and static methods).  A module target also replaces every
        other ``repro`` module global bound to the same function object,
        because ``from .x import f`` copies the binding.
        """
        replaced = 0
        for target in targets:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__, attrs,
                                                  opens_flush))
                else:
                    wrapped = self.wrap(name, raw, attrs, opens_flush)
                self._replace(owner, attr, wrapped)
                replaced += 1
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, attrs, opens_flush)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if not (module_name == "repro"
                        or module_name.startswith("repro.")
                        or module is owner):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
                        replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Put every replaced binding back (newest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------
    def write_chrome(self, path: str, spans: Iterable[Span] | None = None,
                     origin: float = 0.0) -> None:
        """Write spans as Chrome trace-event JSON (complete ``X`` events)."""
        spans = list(self.spans if spans is None else spans)
        index = {id(span): i for i, span in enumerate(spans)}
        pid = os.getpid()
        events = []
        for i, span in enumerate(spans):
            args = {"span": i, "flush": span.flush,
                    "parent": index.get(id(span.parent))}
            if span.attrs:
                args.update({k: v for k, v in span.attrs.items()
                             if isinstance(v, (int, float, str, bool))})
            events.append({"name": span.name, "ph": "X",
                           "cat": span.name.split(".")[0],
                           "ts": (span.start - origin) * 1e6,
                           "dur": span.duration * 1e6,
                           "pid": span.pid or pid, "tid": span.tid,
                           "args": args})
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


def dump_spans(spans: Iterable[Span]) -> list[list]:
    """Spans as JSON-ready rows; parents become row indices."""
    spans = list(spans)
    index = {id(span): i for i, span in enumerate(spans)}
    return [[s.name, s.start, s.end, index.get(id(s.parent)), s.flush,
             s.tid, s.attrs] for s in spans]


def load_spans(rows: list[list], pid: int = 0) -> list[Span]:
    """Inverse of :func:`dump_spans`."""
    spans = [Span(name, start, end, None, flush, tid, attrs, pid)
             for name, start, end, _, flush, tid, attrs in rows]
    for span, row in zip(spans, rows):
        if row[3] is not None:
            span.parent = spans[row[3]]
    return spans


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """``id(span) -> duration minus the part its children cover``.

    Children running in parallel (the remote fan-out) are merged as a
    union, so self time never goes negative.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = covered_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ()))
        out[id(span)] = span.duration - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_share(spans: Iterable[Span], layer: str) -> float:
    """Share of a layer's time spent in its own code, not in other layers.

    Numerator: self time of every span of ``layer``; denominator: the
    duration of the layer's outermost spans (those whose parent belongs to
    another layer).  0.0 when the layer recorded nothing.
    """
    spans = list(spans)
    own = self_times(spans)
    total = busy = 0.0
    for span in spans:
        if layer_of(span.name) != layer:
            continue
        busy += own[id(span)]
        if span.parent is None or layer_of(span.parent.name) != layer:
            total += span.duration
    return busy / total if total > 0 else 0.0


def calibrate_overhead(tracer: Tracer, rounds: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = tracer.wrap("trace.calibrate", noop)
    saved, tracer.spans = tracer.spans, []
    try:
        start = clock()
        for _ in range(rounds):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(rounds):
            wrapped()
        traced = clock() - start
    finally:
        tracer.spans = saved
    return max(traced - bare, 0.0) / rounds
