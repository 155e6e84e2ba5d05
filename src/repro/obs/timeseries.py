"""Sim-time telemetry: columnar ring buffers sampled off the event loop.

The fleet campaigns report end-of-run aggregates; this module adds the
*time* dimension.  A :class:`TimeSeriesSampler` hangs off the simulator's
``on_advance`` hook (see :mod:`repro.sim.events`) and samples registered
probes at a fixed sim-time grid, plus **eagerly** whenever a manager's
degraded window opens or closes (so no window edge is ever quantised to
the grid).  Campaigns without an event loop drive the same sampler with
:meth:`TimeSeriesSampler.advance` against their own manual clock.

Design constraints, mirroring :mod:`repro.obs.metrics`:

1. **Zero perturbation.**  Sampling must not change *anything* a report
   serialises: it never schedules simulator events (``processed`` and
   ``now`` stay untouched), never draws from any rng, and only *reads*
   probe state.  A samples-on vs samples-off run is byte-identical in
   every field except the new ``timeline`` section.
2. **Zero cost when disabled.**  The event recorder ``obs.event`` is
   the one hot call site; it (and the manager's once-per-window
   transition marks) guards on :func:`active`, a single module-attribute
   load returning ``None`` unless a sampler was installed.
3. **Bounded memory.**  Series live in capacity-bounded columnar ring
   buffers; integrals are accumulated online at observe time, so dropping
   old samples never loses accounting.

The per-tenant degraded integral is exact, not approximate: state is
piecewise-constant between events, transitions are sampled eagerly at
their exact sim time, so the trapezoid/step integral over the sample
points reconstructs the ledger's ``degraded_seconds`` at 1e-9 (pinned by
``crosscheck_timeline`` and the analyzer).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError

Probe = Callable[[float], float]

#: Relative tolerance for timeline-vs-ledger reconciliation — the same
#: discipline as the PR-3 span/report crosscheck.
RECONCILE_REL_TOL = 1e-9


def _r(value: float) -> float:
    """Round for serialisation; normalise -0.0 so reruns byte-match."""
    out = round(float(value), 9)
    return 0.0 if out == 0 else out


class SeriesBuffer:
    """Columnar ring buffer: one time column plus named value columns.

    Appending past ``capacity`` drops the oldest row (``dropped`` counts
    them); integrals are accumulated online by the owner, so rotation
    never loses accounting, only plot resolution at the far left.
    """

    __slots__ = ("capacity", "columns", "times", "dropped", "_cols")

    def __init__(self, columns: tuple, capacity: int = 4096) -> None:
        if capacity < 2:
            raise SimulationError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.columns = tuple(columns)
        self.times: List[float] = []
        self._cols: Dict[str, List[float]] = {c: [] for c in self.columns}
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, row: Dict[str, float]) -> None:
        self.times.append(t)
        for name in self.columns:
            self._cols[name].append(row.get(name, 0.0))
        if len(self.times) > self.capacity:
            del self.times[0]
            for col in self._cols.values():
                del col[0]
            self.dropped += 1

    def column(self, name: str) -> List[float]:
        return self._cols[name]

    def last(self, name: str) -> Optional[float]:
        col = self._cols[name]
        return col[-1] if col else None

    def window(self, t_lo: float) -> int:
        """Index of the first retained sample with ``t >= t_lo``."""
        times = self.times
        lo, hi = 0, len(times)
        while lo < hi:
            mid = (lo + hi) // 2
            if times[mid] < t_lo:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def to_dict(self) -> dict:
        payload = {
            "t": [_r(t) for t in self.times],
            "series": {
                name: [_r(v) for v in col] for name, col in self._cols.items()
            },
        }
        if self.dropped:
            payload["dropped"] = self.dropped
        return payload


class TenantSeries:
    """One tenant's sampled signals plus online degraded-time integration.

    ``observe`` accumulates ``state * dt`` segments between consecutive
    sample points; because the manager emits an eager sample at every
    window transition, the integral is exact.  ``closed_integral``
    excludes the currently-open tail so it compares against the ledger,
    which only books *closed* windows.
    """

    __slots__ = (
        "name",
        "buffer",
        "probes",
        "transitions",
        "_last_t",
        "_last_degraded",
        "_integral",
        "_open_since",
        "closed_at",
    )

    def __init__(
        self, name: str, probes: Dict[str, Probe], capacity: int = 1024
    ) -> None:
        self.name = name
        self.probes = dict(probes)
        self.buffer = SeriesBuffer(tuple(self.probes), capacity=capacity)
        self.transitions: List[dict] = []
        self._last_t: Optional[float] = None
        self._last_degraded = 0.0
        self._integral = 0.0
        self._open_since: Optional[float] = None
        self.closed_at: Optional[float] = None

    def observe(self, t: float) -> Dict[str, float]:
        row = {name: float(fn(t)) for name, fn in self.probes.items()}
        degraded = 1.0 if row.get("degraded", 0.0) else 0.0
        if self._last_t is not None and t > self._last_t:
            self._integral += self._last_degraded * (t - self._last_t)
        self._last_t = t if self._last_t is None else max(self._last_t, t)
        if degraded and self._open_since is None:
            self._open_since = t
        elif not degraded:
            self._open_since = None
        self._last_degraded = degraded
        self.buffer.append(t, row)
        return row

    @property
    def open_tail_s(self) -> float:
        """Degraded seconds accrued by the still-open window, if any."""
        if self._open_since is None or self._last_t is None:
            return 0.0
        return self._last_t - self._open_since

    @property
    def closed_integral_s(self) -> float:
        """Integrated degraded time over *closed* windows only."""
        return self._integral - self.open_tail_s

    def close(self, t: float) -> None:
        """Final sample; the series stops integrating here."""
        if self.closed_at is None:
            self.observe(t)
            self.closed_at = t

    def to_dict(self) -> dict:
        payload = self.buffer.to_dict()
        payload["degraded_integral_closed_s"] = _r(self.closed_integral_s)
        payload["degraded_open_tail_s"] = _r(self.open_tail_s)
        if self.transitions:
            payload["transitions"] = self.transitions
        return payload


class TimeSeriesSampler:
    """Samples fleet-wide and per-tenant probes on a sim-time grid.

    Attach to a shared :class:`~repro.sim.events.Simulator` with
    :meth:`attach` (uses the ``on_advance`` observer — adds no events),
    or drive a manual clock with :meth:`advance`.  Probes are callables
    ``fn(t) -> float`` that read — never mutate — live state.
    """

    #: Rows kept in the fleet buffer, and point events kept (drops
    #: counted).
    capacity = 4096
    #: Rows kept in each tenant's buffer.
    tenant_capacity = 1024

    def __init__(self, period_s: float = 60.0, alert_engine=None) -> None:
        if period_s <= 0:
            raise SimulationError(f"period_s must be positive, got {period_s}")
        self.period_s = float(period_s)
        self.alerts = alert_engine
        self._fleet_probes: Dict[str, Probe] = {}
        self.fleet: Optional[SeriesBuffer] = None
        self.tenants: Dict[str, TenantSeries] = {}
        self._by_manager: Dict[int, TenantSeries] = {}
        self.events: List[dict] = []
        self.events_dropped = 0
        self.samples = 0
        self._next_tick: Optional[float] = None
        self._last_t = 0.0
        self._clock_t = 0.0
        self._sim = None

    # -- wiring --------------------------------------------------------
    def register_probe(self, name: str, fn: Probe) -> None:
        """Add a fleet-wide signal (before the first sample lands)."""
        if self.fleet is not None:
            raise SimulationError(
                f"cannot add probe {name!r} after sampling started"
            )
        self._fleet_probes[name] = fn

    def watch_tenant(
        self, name: str, manager, probes: Dict[str, Probe], t: float | None = None
    ) -> TenantSeries:
        """Track a tenant's signals; ``manager`` keys eager transitions."""
        if name in self.tenants:
            raise SimulationError(f"tenant {name!r} already watched")
        series = TenantSeries(name, probes, capacity=self.tenant_capacity)
        self.tenants[name] = series
        if manager is not None:
            self._by_manager[id(manager)] = series
        series.observe(self._last_t if t is None else t)
        return series

    def unwatch(self, name: str, t: float) -> None:
        """Freeze a tenant's series at ``t`` (call *before* release())."""
        series = self.tenants.get(name)
        if series is None:
            return
        series.close(t)
        for key, value in list(self._by_manager.items()):
            if value is series:
                del self._by_manager[key]

    def attach(self, sim) -> None:
        """Observe a simulator's clock; lands a baseline sample at now."""
        if sim.on_advance is not None:
            raise SimulationError("simulator already has an advance observer")
        self._sim = sim
        sim.on_advance = self._on_advance
        self._last_t = sim.now
        self._next_tick = sim.now + self.period_s
        self.sample(sim.now, "baseline")

    def detach(self) -> None:
        if self._sim is not None:
            self._sim.on_advance = None
            self._clock_t = self._sim.now
            self._sim = None

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Sim time: the attached simulator's clock, else the last
        :meth:`advance` of a manual clock."""
        return self._sim.now if self._sim is not None else self._clock_t

    def _on_advance(self, old_now: float, new_now: float) -> None:
        self._backfill(new_now)

    def advance(self, t: float) -> None:
        """Manual-clock campaigns: the clock moved to ``t``."""
        self._clock_t = t
        if self._next_tick is None:
            self._next_tick = self._last_t + self.period_s
        self._backfill(t)

    def _backfill(self, new_now: float) -> None:
        """Sample every grid point crossed by this clock advance.

        State is piecewise-constant between events, so sampling a past
        grid point *now* reads exactly the value it had then — backfill
        is exact, not an approximation.
        """
        while self._next_tick is not None and self._next_tick <= new_now:
            self.sample(self._next_tick, "tick")
            self._next_tick += self.period_s

    # -- sampling ------------------------------------------------------
    def sample(self, t: float, reason: str = "tick") -> None:
        """Land one sample row at sim time ``t`` across all series."""
        if t < self._last_t:
            t = self._last_t  # defensive: never integrate backwards
        if self.fleet is None:
            self.fleet = SeriesBuffer(
                tuple(self._fleet_probes), capacity=self.capacity
            )
        row = {name: float(fn(t)) for name, fn in self._fleet_probes.items()}
        self.fleet.append(t, row)
        for series in self.tenants.values():
            if series.closed_at is None:
                series.observe(t)
        self._last_t = t
        self.samples += 1
        if self.alerts is not None:
            self.alerts.evaluate(self, t, reason)

    def record_transition(
        self, manager, t: float, degraded: bool, cause: str = ""
    ) -> None:
        """Eager sample at a degraded-window edge (called by the manager)."""
        series = self._by_manager.get(id(manager))
        if series is None:
            return
        series.transitions.append(
            {
                "t": _r(t),
                "kind": "degraded" if degraded else "fully_redundant",
                **({"cause": cause} if cause else {}),
            }
        )
        self.sample(t, "transition")

    def note_event(self, t: float, kind: str, /, **fields) -> None:
        """Append one event at sim time ``t`` (``obs.event`` is the caller)."""
        if len(self.events) >= self.capacity:
            self.events_dropped += 1
            return
        self.events.append({"t": _r(t), "kind": kind, **fields})

    def finalize(self, t: float) -> None:
        """Land the final sample and freeze every tenant series."""
        self.sample(t, "final")
        for series in self.tenants.values():
            series.close(t)
        self.detach()

    # -- export --------------------------------------------------------
    def timeline_dict(self) -> dict:
        payload: dict = {
            "period_s": _r(self.period_s),
            "samples": self.samples,
            "fleet": self.fleet.to_dict() if self.fleet is not None else {},
            "tenants": {
                name: series.to_dict()
                for name, series in sorted(self.tenants.items())
            },
        }
        if self.events:
            payload["events"] = self.events
        if self.events_dropped:
            payload["events_dropped"] = self.events_dropped
        if self.alerts is not None:
            payload["alerts"] = self.alerts.to_dict()
        return payload


class ManualClock:
    """Sim time for a campaign with no event loop, feeding its sampler.

    The chaos, tier and hybrid campaigns *derive* the clock from the
    durations the engine's own reports claim; the elastic campaign draws
    its time steps.  Without a sampler every call only keeps ``t``, so a
    campaign script never branches on whether telemetry is on.  Events
    are not the clock's: ``obs.event`` stamps them with the sampler's
    :attr:`~TimeSeriesSampler.now`, the last time this clock spent to.
    """

    def __init__(self, sampler: Optional[TimeSeriesSampler] = None) -> None:
        self.t = 0.0
        self.sampler = sampler

    def watch(self, **probes: Callable[[], float]) -> None:
        """Register the episode's signals and land the baseline sample."""
        if self.sampler is not None:
            for name, read in probes.items():
                self.sampler.register_probe(name, lambda _t, read=read: read())
            self.sampler.sample(0.0, "baseline")

    def spend(self, *durations: float) -> None:
        """Advance by each duration in turn, then catch the sampler up."""
        for duration in durations:
            self.t += float(duration)
        if durations and self.sampler is not None:
            self.sampler.advance(self.t)

    def close(self) -> None:
        if self.sampler is not None:
            self.sampler.finalize(self.t)


def crosscheck_timeline(
    timeline: dict, tenants: list, rel_tol: float = RECONCILE_REL_TOL
) -> List[str]:
    """Reconcile timeline-integrated degraded time against the ledger.

    ``tenants`` is the report's per-tenant SLO list (each entry carries
    ``name`` and ``degraded_seconds``).  The timeline integral over
    *closed* windows must match the ledger value at ``rel_tol`` for every
    tenant present in both; returns human-readable problem strings.
    """
    problems: List[str] = []
    series = timeline.get("tenants", {})
    for record in tenants:
        name = record.get("name")
        if name not in series:
            continue
        ledger = float(record.get("degraded_seconds", 0.0))
        integrated = float(series[name].get("degraded_integral_closed_s", 0.0))
        tol = max(abs(ledger), abs(integrated)) * rel_tol + 1e-9
        if abs(ledger - integrated) > tol:
            problems.append(
                f"tenant {name}: timeline integral {integrated!r} != "
                f"ledger degraded_seconds {ledger!r} (tol {tol:g})"
            )
    return problems


def analyze_report_timelines(path: str, report: dict, out) -> int:
    """Reconcile every episode timeline against its degraded ledger."""
    problems: list[str] = []
    checked = 0
    for episode in report.get("episodes", []):
        timeline = episode.get("timeline")
        if not timeline:
            continue
        checked += 1
        index = episode.get("episode", "?")
        tenants = episode.get("tenants", [])
        episode_problems = crosscheck_timeline(timeline, tenants)
        problems.extend(f"episode {index}: {p}" for p in episode_problems)
        counts = timeline.get("alerts", {}).get("counts", {})
        reconciled = sum(
            1 for t in tenants if t.get("name") in timeline.get("tenants", {})
        )
        print(
            f"episode {index}: {timeline.get('samples', 0)} samples, "
            f"{reconciled} tenant ledgers reconciled at 1e-9, "
            f"{counts.get('total', 0)} alert(s)",
            file=out,
        )
    if not checked:
        print(
            f"{path}: no timeline sections to analyze "
            "(run `repro fleet --timeline`)",
            file=out,
        )
        return 2
    for problem in problems:
        print(f"TIMELINE PROBLEM: {problem}", file=out)
    if not problems:
        print("timeline crosscheck OK", file=out)
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# Active-sampler guard, mirroring ``obs.metrics.active()``: manager-level
# transition marks pay one attribute load when telemetry is off.
# ---------------------------------------------------------------------------

_ACTIVE: Optional[TimeSeriesSampler] = None


def active() -> Optional[TimeSeriesSampler]:
    """The installed sampler, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def _set_active(sampler: Optional[TimeSeriesSampler]) -> None:
    global _ACTIVE
    _ACTIVE = sampler


@contextmanager
def use_sampler(sampler: TimeSeriesSampler):
    """Install ``sampler`` as the active sampler for a ``with`` block."""
    previous = _ACTIVE
    _set_active(sampler)
    try:
        yield sampler
    finally:
        _set_active(previous)
