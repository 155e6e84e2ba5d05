"""Crash-point injection for the save pipeline.

Engines expose named *crash points* — step boundaries inside their save
flow (post-encode, post-XOR, mid-P2P, pre-metadata-broadcast, ...) — and
call :meth:`~repro.checkpoint.base.CheckpointEngine.fire` at each one.
When a campaign arms an engine with a :class:`CrashInjector`, the injector
raises :class:`InjectedCrash` at the planned point, aborting the save
mid-flight exactly where a real process crash would: whatever chunk
packets and metadata records already landed in host storage stay there as
a genuine torn version; everything later is simply missing.

The injector is thread-safe: ECCheck's step 3 fires its hooks in line on
the saving thread today, but nothing obliges an engine to.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


class InjectedCrash(Exception):
    """A deliberately injected crash aborting a save mid-flight.

    Deliberately *not* a :class:`~repro.errors.ReproError`: library code
    catching its own error hierarchy must never swallow an injected crash,
    just as it could not swallow a SIGKILL.
    """

    def __init__(self, point: str, hits: int, context: dict):
        super().__init__(f"injected crash at {point!r} (hit {hits})")
        self.point = point
        self.hits = hits
        self.context = dict(context)


@dataclass(frozen=True)
class CrashPlan:
    """Where and when to crash: the ``after + 1``-th hit of ``point`` fires."""

    point: str
    after: int = 0


class CrashInjector:
    """Callable armed on an engine; raises at the planned crash point.

    Engines invoke the injector as ``injector(point, **context)`` from
    their save flow.  Hits of other points are counted but harmless; the
    planned point's ``after + 1``-th hit raises :class:`InjectedCrash`
    exactly once (subsequent calls are no-ops, mirroring a process that is
    already dead and cannot crash twice).
    """

    def __init__(self, plan: CrashPlan):
        self.plan = plan
        self.fired = False
        self.hits: dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, point: str, **context) -> None:
        with self._lock:
            if self.fired:
                return
            self.hits[point] = self.hits.get(point, 0) + 1
            if point != self.plan.point:
                return
            if self.hits[point] <= self.plan.after:
                return
            self.fired = True
            raise InjectedCrash(point, self.hits[point], context)
