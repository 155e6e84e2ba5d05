"""Span tracer: nested spans with wall-clock *and* simulated durations.

Spans carry two independent clocks:

* ``wall_s`` -- real elapsed time from ``time.perf_counter()``; measures
  what the reproduction itself costs to run.
* ``sim_s`` -- simulated seconds from the ``TimeModel`` accounting that
  the engines already compute; measures what the modelled hardware
  would spend.  Engines attach it via :meth:`Span.add_sim` once a
  phase's analytic time is known (often after the byte work, because
  the communication makespan is only available at the end of a save).

Nesting uses a per-thread span stack, so spans opened on the same
thread nest naturally (the ``PipelinedRunner`` stage spans nest under
the save's step 3 this way).  Worker threads (``ThreadPoolEncoder``)
inherit no stack, so call sites pass the coordinating span explicitly
via ``parent=``.

The disabled path is a shared :data:`NULL_TRACER` whose ``span()``
returns one preallocated no-op context manager: instrumenting a call
site costs a method call and a truthiness test, nothing else -- no
allocation, no lock, no clock read.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


class Span:
    """A single traced region; also its own context manager."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "start_s",
        "wall_s",
        "sim_s",
        "thread",
        "_tracer",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = 0.0
        self.wall_s: Optional[float] = None
        self.sim_s: Optional[float] = None
        self.thread = threading.current_thread().name

    def __enter__(self) -> "Span":
        self.start_s = self._tracer._now()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = self._tracer._now() - self.start_s
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return None

    def add_sim(self, seconds: float) -> None:
        """Attach simulated-``TimeModel`` duration (accumulates).

        Legal after the span closed: analytic phase times are often only
        known once the whole save has been costed, and the record is not
        serialised until the trace is written.
        """
        self.sim_s = (self.sim_s or 0.0) + seconds

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start_s,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op span: the entire disabled-tracer fast path."""

    __slots__ = ()

    enabled = False
    sim_s = None
    wall_s = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def add_sim(self, seconds: float) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: every operation is a no-op.

    ``enabled`` is False so call sites can skip even argument
    construction for expensive attributes::

        tr = get_tracer()
        if tr.enabled:
            tr.metrics.gauge("save.padding_share").set(padding / total)

    Point events are not written here but through ``obs.event``, the
    one recorder, which forwards them to an enabled tracer's
    :meth:`Tracer.event`.
    """

    __slots__ = ("metrics",)

    enabled = False

    def __init__(self) -> None:
        self.metrics = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record_span(self, name: str, **kwargs: Any) -> _NullSpan:
        return NULL_SPAN

    def rel_time(self, perf_counter_s: float) -> float:
        return 0.0

    def event(self, name: str, **fields: Any) -> None:
        pass

    def current_span(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collecting tracer: thread-safe span + event recorder."""

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- clock ----------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # -- per-thread span stack ------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- public API -----------------------------------------------------

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Create a span context manager.

        ``parent`` overrides the thread-local nesting -- pass the
        coordinating span when opening spans from worker threads.
        """
        if parent is None:
            parent = self.current_span()
        parent_id = parent.span_id if isinstance(parent, Span) else None
        with self._lock:
            span_id = next(self._ids)
        return Span(self, name, span_id, parent_id, attrs)

    def rel_time(self, perf_counter_s: float) -> float:
        """Map a raw ``time.perf_counter()`` reading onto this tracer's
        timeline.

        ``perf_counter`` is ``CLOCK_MONOTONIC`` system-wide on Linux, so
        readings taken in *other processes* (process-pool workers) live on
        the same clock as the parent and translate by subtracting the
        epoch — this is what lets worker spans reconcile exactly with the
        coordinating span that contains them.
        """
        return perf_counter_s - self._epoch

    def record_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        start_s: float = 0.0,
        wall_s: float = 0.0,
        thread: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-completed span from externally measured times.

        The cross-process counterpart of ``span(parent=...)``: pool
        workers cannot open spans on this tracer (it lives in the parent),
        so they report ``perf_counter`` timestamps back and the parent
        records the span on their behalf.  ``start_s`` is tracer-relative
        (use :meth:`rel_time`).  The recorded interval is clamped into the
        parent's bounds so trace validation's containment invariant holds
        even under clock jitter at the boundaries.
        """
        parent_id = parent.span_id if isinstance(parent, Span) else None
        if isinstance(parent, Span) and parent.wall_s is not None:
            p_start, p_end = parent.start_s, parent.start_s + parent.wall_s
            start_s = min(max(start_s, p_start), p_end)
            wall_s = max(0.0, min(wall_s, p_end - start_s))
        with self._lock:
            span_id = next(self._ids)
        span = Span(self, name, span_id, parent_id, attrs)
        span.start_s = start_s
        span.wall_s = wall_s
        if thread is not None:
            span.thread = thread
        with self._lock:
            self.spans.append(span)
        return span

    def event(self, name: str, **fields: Any) -> None:
        record = {
            "type": "event",
            "name": name,
            "t": self._now(),
            "thread": threading.current_thread().name,
            "fields": fields,
        }
        with self._lock:
            self.events.append(record)

    # -- export ---------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """All spans + events as dicts, ordered by start time."""
        with self._lock:
            rows = [s.to_dict() for s in self.spans]
            rows.extend(dict(e) for e in self.events)
        rows.sort(key=lambda r: r.get("start", r.get("t", 0.0)))
        return rows
