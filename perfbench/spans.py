"""In-memory timing spans recorded by wrapping the functions a caller looks up.

The program is not modified: `install` replaces names in a module's namespace
with wrappers that record a span per call and return exactly what the wrapped
function returns. Spans nest through a per-thread stack; a span opened on a
thread with an empty stack is parented to the root span (the first one
opened), so work done on pool threads still hangs under the entry point.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    """One call of a wrapped function."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one repetition of one workload."""

    def __init__(self, workload: str, repetition: int) -> None:
        self.workload = workload
        self.repetition = repetition
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, fn: Callable, name: str, describe: Callable | None = None) -> Callable:
        """Wrapper around `fn` that records a span named `name` per call.

        `describe(args, kwargs, result)` returns attributes stored on the span
        of a call that returned normally; if it raises, the span records the
        error instead and the program continues.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
                if self._root is None:
                    self._root = span_id
            parent = stack[-1] if stack else (None if span_id == self._root else self._root)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent, threading.get_ident())
                with self._lock:
                    self.spans.append(span)
            if describe is not None:
                try:
                    span.attrs = describe(args, kwargs, result)
                except Exception as exc:  # a changed signature must not break the program
                    span.attrs = {"describe_error": repr(exc)}
            return result

        return wrapper

    def to_json(self) -> list[dict]:
        return [
            {**asdict(s), "workload": self.workload, "repetition": self.repetition}
            for s in sorted(self.spans, key=lambda s: s.id)
        ]


def install(recorder: Recorder, module, names: dict[str, Callable | None], prefix: str) -> list[str]:
    """Wrap each name in `module`; return the qualified names that were absent.

    `names` maps an attribute name to its `describe` callable (or None). The
    span of `module.<name>` is called `<prefix>.<name>`.
    """
    missing = []
    for attr, describe in names.items():
        fn = getattr(module, attr, None)
        if not callable(fn):
            missing.append(f"{prefix}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(fn, f"{prefix}.{attr}", describe))
    return missing


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, []), s.start, s.end) for s in spans}
