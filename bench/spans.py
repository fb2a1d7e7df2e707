"""In-memory span recorder for the benchmark's traced subprocesses.

A span is one timed call at a layer boundary:
``(trace, span_id, parent_id, name, start, end, size)``.  ``trace``
groups the spans of one statement (or one engine call); ``parent_id``
is the span that was open on the same thread when this one started, so
spans of one thread nest by construction.  ``size`` carries an optional
byte count measured at the boundary (a reply's encoded bytes).  An
*event* is a span with no duration, recorded to count something (a
fork, a planner decision) inside the trace that caused it.

Spans are appended to a list in memory and written to one JSON file at
shutdown (:meth:`Recorder.dump`); nothing is written while the program
serves.  The recorder never changes what a wrapped callable returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, List, Optional


class Trace:
    """A mutable trace identity.

    Spans hold a reference, so a trace opened before its final id is
    known (a statement's admission runs before the scheduler assigns
    its session sequence number) is named once, later.
    """

    __slots__ = ("name",)

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name


class Recorder:
    """Collects the spans of one traced process."""

    def __init__(self) -> None:
        self._spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.missing: List[str] = []

    # -- per-thread state ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def trace(self) -> Optional[Trace]:
        """The trace new spans on this thread belong to."""
        return getattr(self._local, "trace", None)

    @trace.setter
    def trace(self, value: Optional[Trace]) -> None:
        self._local.trace = value

    # -- recording -------------------------------------------------------

    def event(self, name: str) -> None:
        """Record a zero-length span in this thread's current trace."""
        now = time.perf_counter()
        self.add(name, now, now, self.trace)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        trace: Optional[Trace],
        size: Optional[int] = None,
    ) -> None:
        """Record a span measured elsewhere (it has no parent)."""
        self._spans.append((trace, next(self._ids), None, name, start, end, size))

    def call(self, name: str, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        trace = self.trace
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._spans.append((trace, span_id, parent, name, start, end, None))

    def patch(
        self, owner: Any, attribute: str, make: Callable[[Any], Callable[..., Any]]
    ) -> bool:
        """Replace ``owner.attribute`` with ``make(original)``.

        A name that no longer exists is reported (``missing``) and
        skipped, so a refactor of the program under test turns one
        layer's numbers into ``null`` instead of crashing the run.
        """
        original = getattr(owner, attribute, None)
        if original is None:
            label = getattr(owner, "__name__", type(owner).__name__)
            self.missing.append(f"{label}.{attribute}")
            print(
                f"warning: cannot trace {label}.{attribute}: not found",
                file=sys.stderr,
                flush=True,
            )
            return False
        setattr(owner, attribute, functools.wraps(original)(make(original)))
        return True

    def wrap(self, owner: Any, attribute: str, name: str) -> bool:
        """Record a span named ``name`` around every call of ``owner.attribute``."""

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return self.call(name, original, *args, **kwargs)

            return traced

        return self.patch(owner, attribute, make)

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        spans = [
            [None if trace is None else trace.name, span_id, parent, name, start, end, size]
            for trace, span_id, parent, name, start, end, size in list(self._spans)
        ]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "missing": self.missing}, handle)
