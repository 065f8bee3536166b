"""Span tracer that wraps a program's entry points from outside the program.

An :class:`EntryPoint` names a function or method by the module that defines
it.  While a :class:`Tracer` is active, every module namespace of the
``wdmsim`` package that holds the original object is re-bound to a wrapper, because
modules that ``from x import name`` keep their own binding.  Methods are
wrapped on their class.  Leaving the ``with`` block restores every binding.

Spans (name, start, end, parent, run id, thread) go into per-thread column
arrays, so threads never interleave rows, and call counts go into per-thread
counters, so no update is lost.  A span opened on a thread with no open span
of its own takes as parent the span marked ``adopts_threads`` that is open at
the time, which is how a sweep's worker-thread runs nest under the sweep.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "wdmsim"
MARK = "__perfbench_wrapped__"
_SHIFT = 32  # global span id = (thread buffer number << _SHIFT) | row


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable.

    ``target`` is ``"package.module:function"`` or ``"package.module:Class.method"``.
    ``name`` is the counter key and, unless ``span`` is false, the span name.
    ``on_call(counts, args, kwargs)`` may return replacement kwargs;
    ``on_result(counts, args, kwargs, result)`` records outcome counters.
    """

    target: str
    name: str
    span: bool = True
    on_call: Callable | None = None
    on_result: Callable | None = None
    starts_run: bool = False
    adopts_threads: bool = False


class _Buffer:
    """Columns of the spans one thread recorded."""

    def __init__(self, number: int):
        self.base = number << _SHIFT
        self.thread = threading.current_thread().name
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = 0


class Tracer:
    def __init__(self, entry_points):
        self.entry_points = list(entry_points)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._runs = itertools.count(1)
        self._adopter = -1
        self._patched: list[tuple[object, str, object]] = []
        self.origin = 0.0

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.origin = time.perf_counter()
        try:
            for ep in self.entry_points:
                self._install(ep)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, ep: EntryPoint) -> None:
        module_name, _, qualname = ep.target.partition(":")
        owner = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrap(ep, original)
        if isinstance(owner, type):
            self._bind(owner, attr, wrapper)
            return
        for module in package_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, key, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- recording ------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, ep: EntryPoint, fn):
        tracer = self
        name = ep.name
        name_id = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            buf.counts[name] += 1
            if ep.on_call is not None:
                kwargs = ep.on_call(buf.counts, args, kwargs)
            if ep.starts_run:
                buf.run_id = next(tracer._runs)
            if not ep.span:
                return fn(*args, **kwargs)
            row = len(buf.start)
            gid = buf.base | row
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else tracer._adopter)
            buf.run.append(buf.run_id)
            buf.end.append(0.0)
            buf.stack.append(gid)
            if ep.adopts_threads:
                previous, tracer._adopter = tracer._adopter, gid
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[row] = clock()
                buf.stack.pop()
                if ep.adopts_threads:
                    tracer._adopter = previous
            if ep.on_result is not None:
                ep.on_result(buf.counts, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- results --------------------------------------------------------------

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self._buffers)

    def _rows(self):
        for buf in self._buffers:
            for row in range(len(buf.start)):
                yield (buf.base | row, self.names[buf.name[row]], buf.start[row],
                       buf.end[row], buf.parent[row], buf.run[row], buf.thread)

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds per span name, self seconds per layer).

        A span's self time is its duration minus the part of it that the
        union of its children's intervals covers; the layer is the span
        name up to its first dot.
        """
        kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _, _ in self._rows():
            if parent >= 0:
                kids[parent].append((start, end))
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for gid, name, start, end, _, _, _ in self._rows():
            inclusive[name] += end - start
            own[name.partition(".")[0]] += end - start - _covered(kids.get(gid, ()), start, end)
        return dict(inclusive), dict(own)

    def write_spans(self, path) -> None:
        """Tab-separated spans, times in seconds from the tracer's start."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trun\tthread\n")
            for gid, name, start, end, parent, run, thread in self._rows():
                fh.write(f"{gid}\t{name}\t{start - self.origin:.9f}\t{end - self.origin:.9f}"
                         f"\t{parent}\t{run}\t{thread}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """Every binding in the package (module globals and class attributes) that is a wrapper."""
    found = []
    for module in package_modules():
        for key, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{key}.{attr}"
                             for attr, member in vars(value).items() if getattr(member, MARK, False))
    return found
