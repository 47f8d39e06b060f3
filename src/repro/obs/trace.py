"""Structured tracing: nested spans with timing and attributes.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
session, feedback round, subquery split, node expansion, localized
multipoint k-NN, and merge decision (see ``docs/ARCHITECTURE.md``,
"Observability").  The default tracer is a process-wide no-op whose
``span()`` returns a shared singleton, so untraced runs pay only an
attribute lookup and a function call on each instrumentation site.

Usage::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        engine.run_scripted(mark_fn, k=100)
    tracer.spans            # finished root spans (one per session)

Instrumented library code never holds a tracer; it calls
:func:`get_tracer` at use time, so installing a tracer retroactively
affects every layer (engine, session, index, retrieval).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union


class Span:
    """One timed operation, possibly containing child spans.

    Spans are context managers produced by :meth:`Tracer.span`; entering
    starts the clock and pushes the span onto the tracer's stack, exiting
    stops it and attaches the span to its parent (or to the tracer's
    root list).

    Attributes
    ----------
    name:
        Span kind ("session", "round", "localized_knn", ...).
    start:
        Wall-clock epoch seconds when the span was entered.
    duration:
        Elapsed seconds (0.0 while still open; exact on exit).
    attributes:
        Key/value metadata attached via constructor kwargs or :meth:`set`.
    children:
        Nested spans, in completion order.
    """

    __slots__ = ("name", "start", "duration", "attributes", "children",
                 "_tracer", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = 0.0
        self.duration = 0.0
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.children: List["Span"] = []
        self._tracer = tracer
        self._t0 = 0.0

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns the span."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> "Span":
        """Record an instantaneous (zero-duration) child span."""
        child = Span(self._tracer, name, attributes)
        child.start = time.time()
        self.children.append(child)
        return child

    def __enter__(self) -> "Span":
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self._t0
        stack = self._tracer._stack
        # Pop self (robust even if an inner span leaked open).
        while stack:
            top = stack.pop()
            if top is self:
                break
        if stack:
            stack[-1].children.append(self)
        else:
            self._tracer.spans.append(self)

    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form (what the JSONL exporter flattens)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.2f}ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """Shared do-nothing span returned by the no-op tracer."""

    __slots__ = ()

    name = ""
    duration = 0.0
    attributes: Dict[str, Any] = {}
    children: List[Any] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead default: records nothing, allocates nothing."""

    __slots__ = ()

    enabled = False
    spans: List[Span] = []
    current = None

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """Return the shared no-op span (ignores all arguments)."""
        return _NULL_SPAN

    def event(self, name: str, **attributes: Any) -> _NullSpan:
        """No-op instantaneous event."""
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    """Records a forest of spans for one traced run.

    The open-span stack is *thread-local*: each thread serving a request
    nests its own spans independently, so concurrent requests build
    separate trees.  Attaching a finished span to its parent is a single
    ``list.append`` (atomic under the GIL), so concurrent threads can
    safely share one tracer.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attributes: Any) -> Span:
        """Create a span; use as a context manager to time a region."""
        return Span(self, name, attributes)

    def event(self, name: str, **attributes: Any) -> Span:
        """Record an instantaneous span under the innermost open span."""
        if self._stack:
            return self._stack[-1].event(name, **attributes)
        span = Span(self, name, attributes)
        span.start = time.time()
        self.spans.append(span)
        return span

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All finished root spans as nested dictionaries."""
        return [s.to_dict() for s in self.spans]


TracerLike = Union[Tracer, NullTracer]

_current_tracer: TracerLike = NULL_TRACER


def get_tracer() -> TracerLike:
    """The process-wide tracer (the no-op singleton unless installed)."""
    return _current_tracer


def set_tracer(tracer: Optional[TracerLike]) -> TracerLike:
    """Install ``tracer`` globally; returns the previous one.

    ``None`` restores the no-op default.
    """
    global _current_tracer
    previous = _current_tracer
    _current_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: TracerLike) -> Iterator[TracerLike]:
    """Context manager installing ``tracer`` for the enclosed block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
