"""Trace serialisation: JSONL writer, loader, validator, summaries.

Trace schema (one JSON object per line):

* ``{"type": "meta", "schema": 1, ...}`` -- first line; free-form
  run description supplied by the writer.
* ``{"type": "span", "id", "parent", "name", "start", "wall_s",
  "sim_s", "thread", "attrs"}`` -- one closed span.  ``start`` and
  ``wall_s`` are wall-clock seconds relative to the tracer epoch;
  ``sim_s`` is the simulated ``TimeModel`` duration (null when the
  span does not map to an analytic phase, e.g. it was interrupted by
  an injected crash before the phase was costed).
* ``{"type": "event", "name", "t", "thread", "fields"}`` -- a point
  event (checkpoint committed, crash point fired, recovery, ...).
* ``{"type": "metrics", "snapshot": {...}}`` -- last line; the
  metrics-registry snapshot at write time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.analysis.breakdown import sum_breakdowns
from repro.errors import ReproError
from repro.obs.provenance import write_atomic
from repro.obs.tracer import Tracer

SCHEMA_VERSION = 1

#: Tolerance for wall-clock containment checks.  Parent/child spans read
#: the clock at slightly different instants; anything below a tenth of a
#: millisecond is clock-read jitter, not a nesting bug.
_WALL_SLACK_S = 1e-4


def write_jsonl(tracer: Tracer, path: str, **meta: Any) -> int:
    """Write the trace to ``path``; returns the number of lines."""
    rows: List[Dict[str, Any]] = [
        {"type": "meta", "schema": SCHEMA_VERSION, **meta}
    ]
    rows.extend(tracer.records())
    rows.append({"type": "metrics", "snapshot": tracer.metrics.snapshot()})
    write_atomic(
        path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    )
    return len(rows)


@dataclass
class Trace:
    """Parsed trace file."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)


def load_trace(path: str) -> Trace:
    """Parse a JSONL trace written by :func:`write_jsonl`."""
    trace = Trace()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{lineno}: invalid JSON: {exc}")
            kind = row.get("type")
            if kind == "meta":
                trace.meta = row
            elif kind == "span":
                trace.spans.append(row)
            elif kind == "event":
                trace.events.append(row)
            elif kind == "metrics":
                trace.metrics = row.get("snapshot", {})
            else:
                raise ReproError(f"{path}:{lineno}: unknown record type {kind!r}")
    return trace


def validate_spans(spans: Iterable[Dict[str, Any]]) -> List[str]:
    """Structural checks on a span set; returns a list of problems.

    Checks: unique ids, parents exist, durations are non-negative, and
    every child's wall interval lies inside its parent's (modulo clock
    jitter).  The containment check holds across threads too, because
    pipeline-stage spans only close while their coordinating save span
    is still open.
    """
    problems: List[str] = []
    by_id: Dict[int, Dict[str, Any]] = {}
    for span in spans:
        sid = span["id"]
        if sid in by_id:
            problems.append(f"duplicate span id {sid}")
        by_id[sid] = span
    for span in by_id.values():
        name, sid = span["name"], span["id"]
        if span["wall_s"] is None or span["wall_s"] < 0:
            problems.append(f"span {sid} ({name}): bad wall_s {span['wall_s']!r}")
            continue
        parent_id = span.get("parent")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {sid} ({name}): unknown parent {parent_id}")
            continue
        if span["start"] < parent["start"] - _WALL_SLACK_S:
            problems.append(
                f"span {sid} ({name}) starts before parent {parent_id}"
            )
        child_end = span["start"] + span["wall_s"]
        parent_end = parent["start"] + (parent["wall_s"] or 0.0)
        if child_end > parent_end + _WALL_SLACK_S:
            problems.append(
                f"span {sid} ({name}) ends after parent {parent_id}"
            )
    return problems


#: Relative tolerance of every traced-vs-reported phase reconciliation.
REL_TOL = 1e-9

#: Breakdown keys that refine a phase rather than add one, so no span
#: carries them: step 3's compute / communication split (Fig. 11) and a
#: delta save's dirty share.
DETAIL_KEYS = frozenset({"step3_encode_compute", "step3_comm", "dirty_fraction"})


def _costed_phases(spans: Iterable[Dict[str, Any]]):
    """``(kind, phase, sim_s)`` of every phase-tagged, costed span.

    Spans without a phase tag or without a simulated duration (e.g. a
    save torn by an injected crash before it was costed) contribute
    nothing, which is exactly what reconciling against completed
    ``SaveReport``/``RecoveryReport`` objects requires.
    """
    for span in spans:
        attrs = span.get("attrs") or {}
        phase = attrs.get("phase")
        if phase is not None and span.get("sim_s") is not None:
            yield attrs.get("kind"), phase, span["sim_s"]


def phase_totals(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Sum ``sim_s`` per ``attrs["phase"]`` over every span kind."""
    totals: Dict[str, float] = {}
    for _, phase, sim_s in _costed_phases(spans):
        totals[phase] = totals.get(phase, 0.0) + sim_s
    return totals


def phase_totals_by_kind(
    spans: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """:func:`phase_totals` for every span kind present, keyed by kind."""
    totals: Dict[str, Dict[str, float]] = {}
    for kind, phase, sim_s in _costed_phases(spans):
        kind_totals = totals.setdefault(kind, {})
        kind_totals[phase] = kind_totals.get(phase, 0.0) + sim_s
    return totals


def crosscheck_totals(
    trace_totals: Dict[str, float],
    report_breakdowns: Iterable[Dict[str, float]],
) -> List[str]:
    """Reconcile traced phase sums against report breakdowns.

    For every phase the trace recorded, the traced total must equal the
    sum of that key over the report breakdowns to within :data:`REL_TOL`
    relative tolerance, and every reported key outside
    :data:`DETAIL_KEYS` must have been traced.  Returns a list of
    mismatch descriptions.
    """
    expected = sum_breakdowns(report_breakdowns)
    problems: List[str] = [
        f"phase {phase!r} reported but never traced"
        for phase in sorted(expected.keys() - trace_totals.keys() - DETAIL_KEYS)
    ]
    for phase, traced in sorted(trace_totals.items()):
        want = expected.get(phase)
        if want is None:
            problems.append(f"phase {phase!r} traced but absent from reports")
            continue
        scale = max(abs(traced), abs(want), 1e-300)
        if abs(traced - want) / scale > REL_TOL:
            problems.append(
                f"phase {phase!r}: traced {traced!r} != reported {want!r}"
            )
    return problems


def reconcile_phases(
    spans: Iterable[Dict[str, Any]],
    breakdowns_by_kind: Mapping[str, Iterable[Dict[str, float]]],
) -> Tuple[Dict[str, Dict[str, Dict[str, float]]], List[str]]:
    """Traced phase sums against report breakdowns, per span kind.

    ``breakdowns_by_kind`` maps each span kind the caller holds reports
    for (``"save"``, ``"restore"``, ``"replicate"``, ``"tier"``, ...) to
    those reports' breakdowns.  Returns ``(sections, problems)``:
    ``sections[kind]`` is ``{"traced": ..., "reported": ...}``, both keyed
    by phase in sorted order, for every named kind with spans or reports
    (a kind with neither is left out); each problem starts with its kind.
    """
    traced_by_kind = phase_totals_by_kind(spans)
    sections: Dict[str, Dict[str, Dict[str, float]]] = {}
    problems: List[str] = []
    for kind, breakdowns in breakdowns_by_kind.items():
        breakdowns = list(breakdowns)
        traced = traced_by_kind.get(kind, {})
        if not traced and not breakdowns:
            continue
        reported = sum_breakdowns(breakdowns)
        problems += [f"{kind} {p}" for p in crosscheck_totals(traced, [reported])]
        sections[kind] = {
            "traced": {phase: traced[phase] for phase in sorted(traced)},
            "reported": {phase: reported[phase] for phase in sorted(reported)},
        }
    return sections, problems


def summarize(tracer: Tracer) -> Dict[str, Any]:
    """Compact digest of a live tracer, for embedding in chaos reports."""
    rows = tracer.records()
    spans = [r for r in rows if r["type"] == "span"]
    events = [r for r in rows if r["type"] == "event"]
    event_counts: Dict[str, int] = {}
    for event in events:
        event_counts[event["name"]] = event_counts.get(event["name"], 0) + 1
    span_counts: Dict[str, int] = {}
    for span in spans:
        span_counts[span["name"]] = span_counts.get(span["name"], 0) + 1
    snapshot = tracer.metrics.snapshot()
    return {
        "spans": len(spans),
        "events": len(events),
        "span_counts": span_counts,
        "event_counts": event_counts,
        "phase_sim_totals": phase_totals(spans),
        "nesting_problems": validate_spans(spans),
        "counters": snapshot["counters"],
    }
