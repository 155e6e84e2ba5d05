"""Observability layer: span tracing, metrics, structured event logs.

Off by default: :func:`get_tracer` returns a shared no-op
:class:`~repro.obs.tracer.NullTracer`, so instrumented code costs one
attribute test per call site until :func:`install` (or the
:func:`use_tracer` context manager) activates a collecting
:class:`~repro.obs.tracer.Tracer`.

Point events go through one recorder, :func:`event`, which writes
each fact to every installed sink: the tracer's record stream and the
active sampler's timeline.

Typical use::

    from repro import obs

    with obs.use_tracer(obs.Tracer()) as tracer:
        engine.save()
    obs.write_jsonl(tracer, "TRACE_run.jsonl", engine=engine.name)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs import metrics as _metrics_mod
from repro.obs import timeseries as _timeseries_mod
from repro.obs.alerts import AlertEngine, AlertRule, default_fleet_rules
from repro.obs.critical_path import (
    IdleSlotReport,
    TraceAnalysis,
    analyze_trace,
    idle_slot_report,
    render_analysis,
    tier_byte_flow,
)
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.provenance import provenance_stamp
from repro.obs.timeseries import (
    SeriesBuffer,
    TenantSeries,
    TimeSeriesSampler,
    crosscheck_timeline,
    use_sampler,
)
from repro.obs.trace_export import (
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace_io import (
    Trace,
    crosscheck_totals,
    load_trace,
    phase_totals,
    reconcile_phases,
    summarize,
    validate_spans,
    write_jsonl,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

_TRACER = NULL_TRACER


def get_tracer():
    """The active tracer; a shared no-op unless one was installed."""
    return _TRACER


def install(tracer: Optional[Tracer]) -> None:
    """Activate ``tracer`` globally (``None`` restores the no-op default).

    Also publishes the tracer's metrics registry to the hot-path guard
    in :mod:`repro.obs.metrics`.
    """
    global _TRACER
    if tracer is None:
        _TRACER = NULL_TRACER
        _metrics_mod._set_active(None)
    else:
        _TRACER = tracer
        _metrics_mod._set_active(tracer.metrics)


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a block, then restore."""
    tracer = tracer if tracer is not None else Tracer()
    previous = _TRACER
    install(tracer)
    try:
        yield tracer
    finally:
        install(previous if previous is not NULL_TRACER else None)


def event(kind: str, /, **fields) -> dict:
    """Record one fact in every installed sink; returns it as a record.

    The one recorder of point events: the installed tracer's record
    stream when one is enabled, and the active sampler's timeline when
    one is installed, stamped with the sampler's sim time.  With neither
    installed it writes nothing.  Call it once per fact, at the layer
    that knows the fact (``tests/test_event_sites.py`` holds every kind
    to one call site).  The returned ``{"kind": kind, **fields}`` lets a
    caller that also keeps the fact in its own report (the fleet
    scheduler's cycles) keep the record it recorded.
    """
    if _TRACER.enabled:
        _TRACER.event(kind, **fields)
    sampler = _timeseries_mod.active()
    if sampler is not None:
        sampler.note_event(sampler.now, kind, **fields)
    return {"kind": kind, **fields}


def record_phases(tracer, parent, breakdown, kind: str) -> None:
    """Attach one phase-tagged child span per breakdown entry.

    For engines whose save/restore work is not naturally bracketed (the
    analytic phase times only exist once the report is built), this
    materialises the report's ``breakdown`` as zero-wall spans carrying
    the simulated durations, so trace phase totals reconcile with report
    breakdowns by construction.  Must run while ``parent`` is still open
    so the children nest inside its wall interval.
    """
    if not tracer.enabled:
        return
    for phase, seconds in breakdown.items():
        with tracer.span(
            f"{parent.name}.{phase}", parent=parent, kind=kind, phase=phase
        ) as span:
            pass
        span.add_sim(float(seconds))


__all__ = [
    "AlertEngine",
    "AlertRule",
    "Counter",
    "Gauge",
    "Histogram",
    "IdleSlotReport",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SeriesBuffer",
    "Span",
    "TenantSeries",
    "TimeSeriesSampler",
    "Trace",
    "TraceAnalysis",
    "Tracer",
    "analyze_trace",
    "crosscheck_timeline",
    "crosscheck_totals",
    "default_fleet_rules",
    "event",
    "export_chrome_trace",
    "get_tracer",
    "idle_slot_report",
    "install",
    "load_trace",
    "phase_totals",
    "provenance_stamp",
    "reconcile_phases",
    "record_phases",
    "render_analysis",
    "render_dashboard",
    "tier_byte_flow",
    "summarize",
    "use_sampler",
    "use_tracer",
    "validate_chrome_trace",
    "validate_spans",
    "write_chrome_trace",
    "write_dashboard",
    "write_jsonl",
]
