"""Outside-in span tracer: wraps the library's public functions in place.

The benchmark never edits the library.  A traced run swaps each listed
function for a wrapper that records one span per call — name, start, end,
parent span and thread — in memory, and puts the originals back afterwards.
A function is replaced at *every* module attribute that binds it (a
``from .repair import batched_removal_rows_multi`` in
:mod:`repro.core.batched` is a second binding of the same object), and a
method on its class.  A name the code no longer has is reported absent
instead of failing, so deleting a mode or helper needs no benchmark edit.

Self time is a span's duration minus the part of its interval that its
child spans (same thread) cover.  Calls made in a forked pool worker pass
straight through: work inside pool workers is not traced.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Target", "Tracer", "self_times"]

#: Modules whose attributes are rebound: the library's.
PACKAGE = "repro"


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` + dotted ``attr`` (``Class.method``).

    ``probe`` is called with ``(args, kwargs)`` before the call and returns
    a function of the call's result; that number (bytes moved, rows
    repaired, hits) is summed per layer.  Both run inside the span.
    """

    name: str
    module: str
    attr: str
    probe: "object | None" = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    thread: int
    extra: float = 0.0


def self_times(spans: "list[Span]") -> "list[float]":
    """Per-span duration minus the union of its children's intervals."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def _resolve(module_name: str, attr: str):
    """``(owner, leaf, value)`` for a dotted attribute, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(
        owner, leaf, None
    )
    if value is None or not callable(value):
        return None
    return owner, leaf, value


class Tracer:
    """Install wrappers for ``targets``; collect spans until :meth:`remove`."""

    def __init__(self, targets: "list[Target]"):
        self.targets = list(targets)
        self.spans: "list[Span]" = []
        self.absent: "list[str]" = []
        #: Targets whose probe raised: their probe values are unavailable.
        self.broken: "set[str]" = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._saved: "list[tuple[object, str, object]]" = []

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name, time.perf_counter(), 0.0,
            stack[-1] if stack else -1, threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int, extra: float = 0.0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.extra = extra
        self._stack().pop()

    def _probe(self, name: str, fn, *args):
        """Run a probe; one that no longer fits the call marks its layer's
        probe values unavailable instead of failing the traced call."""
        if fn is None:
            return None
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - a probe never breaks the program
            self.broken.add(name)
            return None

    def _wrap(self, target: Target, fn):
        tracer = self
        probe = target.probe

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            index = tracer._open(target.name)
            finish = tracer._probe(target.name, probe, args, kwargs)
            value = 0.0
            try:
                result = fn(*args, **kwargs)
                if finish is not None:
                    value = tracer._probe(target.name, finish, result)
                return result
            finally:
                tracer._close(index, float(value or 0.0))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        traced.__qualname__ = getattr(fn, "__qualname__", target.name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- install / remove -------------------------------------------------

    def install(self) -> "Tracer":
        for target in self.targets:
            found = _resolve(target.module, target.attr)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, leaf, fn = found
            wrapper = self._wrap(target, fn)
            if isinstance(owner, type):
                self._saved.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                namespace = getattr(module, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is fn:
                        self._saved.append((module, key, fn))
                        setattr(module, key, wrapper)
        return self

    def remove(self) -> None:
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
