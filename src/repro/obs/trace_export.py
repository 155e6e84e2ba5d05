"""Chrome-trace / Perfetto export of JSONL traces.

Converts a parsed :class:`~repro.obs.trace_io.Trace` into the Chrome
trace-event JSON format (the ``chrome://tracing`` / Perfetto "JSON v1"
schema): one ``"X"`` complete event per span, one ``"i"`` instant event
per point event (crash points, injected failures, recoveries), and ``"M"``
metadata events naming the tracks.

Two processes ("pid"s) structure the view:

* **pid 1 — wall clock.**  Spans land on one track per Python thread
  (``MainThread``, which runs a save's encode→XOR→P2P stages in line,
  and the ``ThreadPoolEncoder`` workers of a bench run), at their
  measured ``start``/``wall_s``, exactly as they executed.
* **pid 2 — sim time.**  The simulated ``TimeModel`` durations have no
  start timestamps (phases are costed analytically once a save
  completes), so the exporter lays the top-level save/backup/restore
  spans end to end on a cumulative sim-time axis, with each one's
  phase-tagged children laid out sequentially inside it on per-phase
  tracks.  The result reads as the modelled cluster's timeline: how long
  each save *would* take at full scale, phase by phase.

All timestamps are microseconds, the unit the trace-event schema
specifies.  Every emitted event carries ``ph``/``ts``/``pid``/``tid``
(plus ``dur`` for ``"X"``), the fields Perfetto's JSON importer requires.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.obs.provenance import write_atomic
from repro.obs.trace_io import Trace

#: Chrome trace events express time in microseconds.
_US = 1e6

WALL_PID = 1
SIM_PID = 2

#: Tracks of the sim-time process: top-level reports, then phases.
_SIM_ROOT_TID = 0


def _thread_tids(rows: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Stable thread-name -> tid mapping; MainThread pinned to 0."""
    tids: Dict[str, int] = {"MainThread": 0}
    for row in rows:
        name = row.get("thread") or "MainThread"
        if name not in tids:
            tids[name] = len(tids)
    return tids


def _category(name: str) -> str:
    """Event category from the span-name prefix (engine/pipeline/...)."""
    return name.split(".", 1)[0]


def _metadata(pid: int, name: str, tid: int = 0, kind: str = "process_name") -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": kind,
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _wall_events(trace: Trace) -> List[Dict[str, Any]]:
    tids = _thread_tids([*trace.spans, *trace.events])
    out: List[Dict[str, Any]] = [_metadata(WALL_PID, "wall clock")]
    for thread, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        out.append(_metadata(WALL_PID, thread, tid, "thread_name"))
    for span in trace.spans:
        attrs = dict(span.get("attrs") or {})
        if span.get("sim_s") is not None:
            attrs["sim_s"] = span["sim_s"]
        out.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": _category(span["name"]),
                "ts": span["start"] * _US,
                "dur": (span["wall_s"] or 0.0) * _US,
                "pid": WALL_PID,
                "tid": tids.get(span.get("thread") or "MainThread", 0),
                "args": attrs,
            }
        )
    for event in trace.events:
        out.append(
            {
                "ph": "i",
                "name": event["name"],
                "cat": "event",
                "ts": event["t"] * _US,
                "pid": WALL_PID,
                "tid": tids.get(event.get("thread") or "MainThread", 0),
                "s": "t",
                "args": dict(event.get("fields") or {}),
            }
        )
    return out


def _sim_events(trace: Trace) -> List[Dict[str, Any]]:
    """Lay costed report spans (and their phases) on a sim-time axis."""
    # A report root is a costed span tagged with a save/restore kind that
    # is not itself a phase child.  Restore spans nest under the manager's
    # ``manager.recovery`` wrapper, so "no parent" is not the criterion.
    roots = [
        s
        for s in trace.spans
        if (s.get("attrs") or {}).get("kind") is not None
        and (s.get("attrs") or {}).get("phase") is None
        and s.get("sim_s") is not None
    ]
    if not roots:
        return []
    roots.sort(key=lambda s: s["start"])
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in trace.spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(span)

    out: List[Dict[str, Any]] = [
        _metadata(SIM_PID, "sim time"),
        _metadata(SIM_PID, "reports", _SIM_ROOT_TID, "thread_name"),
    ]
    phase_tids: Dict[str, int] = {}
    cursor = 0.0
    for root in roots:
        out.append(
            {
                "ph": "X",
                "name": root["name"],
                "cat": _category(root["name"]),
                "ts": cursor * _US,
                "dur": root["sim_s"] * _US,
                "pid": SIM_PID,
                "tid": _SIM_ROOT_TID,
                "args": dict(root.get("attrs") or {}),
            }
        )
        # Phase children in wall start order reproduce execution order
        # (step1 -> step3 -> step2 for eccheck saves).
        offset = cursor
        phase_children = [
            c
            for c in sorted(children.get(root["id"], []), key=lambda s: s["start"])
            if (c.get("attrs") or {}).get("phase") and c.get("sim_s") is not None
        ]
        for child in phase_children:
            phase = child["attrs"]["phase"]
            if phase not in phase_tids:
                tid = len(phase_tids) + 1
                phase_tids[phase] = tid
                out.append(_metadata(SIM_PID, phase, tid, "thread_name"))
            out.append(
                {
                    "ph": "X",
                    "name": phase,
                    "cat": "phase",
                    "ts": offset * _US,
                    "dur": child["sim_s"] * _US,
                    "pid": SIM_PID,
                    "tid": phase_tids[phase],
                    "args": dict(child.get("attrs") or {}),
                }
            )
            offset += child["sim_s"]
        cursor += root["sim_s"]
    return out


def export_chrome_trace(trace: Trace) -> Dict[str, Any]:
    """The Chrome trace-event document for a parsed trace."""
    events = _wall_events(trace) + _sim_events(trace)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "meta": {k: v for k, v in trace.meta.items() if k != "type"},
            "metrics": trace.metrics,
        },
    }


def write_chrome_trace(trace: Trace, path: str) -> int:
    """Write the export to ``path``; returns the number of trace events."""
    doc = export_chrome_trace(trace)
    write_atomic(path, json.dumps(doc, indent=1))
    return len(doc["traceEvents"])


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema check on an export; returns a list of problems.

    Verifies the required top-level shape and that every event carries
    the fields the Perfetto JSON importer needs: ``ph``/``ts``/``pid``/
    ``tid``, a ``dur`` on complete events, and a scope on instants.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, event in enumerate(events):
        for key in ("ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"event {i}: missing {key!r}")
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                problems.append(f"event {i}: X event needs non-negative dur")
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"event {i}: instant needs scope s in t/p/g")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
    return problems
