"""Spans around the public functions of the momalign modules.

The tracer wraps functions from outside the program by replacing module
attributes, so no program file changes. A function imported into another
module (``descriptor.newton_schulz_sqrt`` is ``linalg.newton_schulz_sqrt``)
is replaced there too and is named after the module that defines it, which
makes each span belong to one layer.

Spans are kept in memory. A thread whose own stack is empty (an executor
worker) takes the innermost span open on the main thread as its parent, so
``--workers`` spans still nest under ``episode.evaluate``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    t0: int  # perf_counter_ns
    t1: int
    phase: str
    tag: Any = None  # what a tagger derived from the call (size, key, cpu time)


#: tagger(args, kwargs, result) -> tag stored on the span.
Tagger = Callable[[tuple, dict, Any], Any]


class Tracer:
    def __init__(self, taggers: dict[str, Tagger] | None = None, cpu: set[str] | None = None):
        self.spans: list[Span] = []
        self.phase = "call"
        self._taggers = taggers or {}
        self._cpu = cpu or set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        tagger = self._taggers.get(name)
        want_cpu = name in self._cpu

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.process_time() if want_cpu else 0.0
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if want_cpu:
                    tag = time.process_time() - c0
                elif tagger is not None and result is not None:
                    tag = tagger(args, kwargs, result)
                else:
                    tag = None
                self.spans.append(Span(name, sid, parent, t0, t1, self.phase, tag))

        return traced

    def install(self, modules, methods: dict[str, tuple[type, str]]) -> None:
        """Wrap every public function the modules define or import from one
        another, plus the given ``{span name: (class, method)}`` methods."""
        wrapped: dict[Any, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("momalign."):
                    continue
                if value not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrapped[value] = self.wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapped[value])
        for name, (cls, attr) in methods.items():
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its children.

    Children that ran concurrently on worker threads overlap; only the union
    of their intervals is subtracted.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0
        end = s.t0
        for c0, c1 in sorted(children.get(s.sid, ())):
            c0, c1 = max(c0, end), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s.sid] = (s.t1 - s.t0 - covered) / 1e9
    return out


def roots(spans: list[Span]) -> dict[int, int]:
    """Map each span id to the id of its outermost ancestor."""
    parent = {s.sid: s.parent for s in spans}
    out: dict[int, int] = {}
    for sid in parent:
        path = []
        node = sid
        while node not in out and parent.get(node) is not None:
            path.append(node)
            node = parent[node]
        top = out.get(node, node)
        for n in path:
            out[n] = top
        out[node] = top
    return out
