"""Unit tests for trace serialisation, validation, and reconciliation."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import trace_io
from repro.obs.tracer import Tracer


def _traced_sample():
    tracer = Tracer()
    with tracer.span("save", kind="save", version=1) as save:
        with tracer.span("save.step1", kind="save", phase="step1") as s1:
            pass
        tracer.event("recovery", version=1)
        s1.add_sim(0.25)
        save.add_sim(1.0)
    tracer.metrics.counter("saves").inc()
    return tracer


def test_write_and_load_roundtrip(tmp_path):
    tracer = _traced_sample()
    path = str(tmp_path / "trace.jsonl")
    lines = trace_io.write_jsonl(tracer, path, engine="eccheck", seed=3)
    # meta + 2 spans + 1 event + metrics
    assert lines == 5

    trace = trace_io.load_trace(path)
    assert trace.meta["schema"] == trace_io.SCHEMA_VERSION
    assert trace.meta["engine"] == "eccheck"
    assert len(trace.spans) == 2
    (step1,) = [s for s in trace.spans if s["name"] == "save.step1"]
    assert step1["sim_s"] == 0.25
    (event,) = trace.events
    assert (event["name"], event["fields"]) == ("recovery", {"version": 1})
    assert trace.metrics["counters"]["saves"] == 1


def test_load_rejects_unknown_record_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"type": "mystery"}) + "\n")
    with pytest.raises(ReproError):
        trace_io.load_trace(str(path))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ReproError):
        trace_io.load_trace(str(path))


def test_validate_spans_accepts_real_nesting():
    tracer = _traced_sample()
    spans = [r for r in tracer.records() if r["type"] == "span"]
    assert trace_io.validate_spans(spans) == []


def test_validate_spans_flags_structural_problems():
    base = {"wall_s": 1.0, "sim_s": None, "thread": "t", "attrs": {}}
    spans = [
        {"id": 1, "parent": None, "name": "root", "start": 0.0, **base},
        {"id": 1, "parent": None, "name": "dup", "start": 0.0, **base},
        {"id": 2, "parent": 99, "name": "orphan", "start": 0.0, **base},
        {"id": 3, "parent": 1, "name": "early", "start": -1.0, **base},
        {"id": 4, "parent": 1, "name": "late", "start": 0.9, **base},
        dict(
            {"id": 5, "parent": None, "name": "negative", "start": 0.0, **base},
            wall_s=-0.5,
        ),
    ]
    problems = "\n".join(trace_io.validate_spans(spans))
    assert "duplicate span id 1" in problems
    assert "unknown parent 99" in problems
    assert "starts before parent" in problems
    assert "ends after parent" in problems
    assert "bad wall_s" in problems


def test_phase_totals_filters_kind_and_skips_uncosted():
    spans = [
        {"attrs": {"kind": "save", "phase": "p"}, "sim_s": 1.0},
        {"attrs": {"kind": "save", "phase": "p"}, "sim_s": 2.0},
        {"attrs": {"kind": "restore", "phase": "p"}, "sim_s": 8.0},
        {"attrs": {"kind": "save", "phase": "torn"}, "sim_s": None},
        {"attrs": {}, "sim_s": 4.0},
    ]
    assert trace_io.phase_totals_by_kind(spans) == {
        "save": {"p": 3.0},
        "restore": {"p": 8.0},
    }
    assert trace_io.phase_totals(spans) == {"p": 11.0}


def test_crosscheck_totals_detects_mismatch_and_extra_phase():
    reports = [{"a": 1.0, "b": 2.0}, {"a": 0.5}]
    assert trace_io.crosscheck_totals({"a": 1.5, "b": 2.0}, reports) == []
    problems = trace_io.crosscheck_totals(
        {"a": 1.5 + 1e-6, "ghost": 1.0}, reports
    )
    assert problems == [
        "phase 'b' reported but never traced",
        f"phase 'a': traced {1.5 + 1e-6!r} != reported 1.5",
        "phase 'ghost' traced but absent from reports",
    ]
    # Within tolerance is clean.
    assert trace_io.crosscheck_totals(
        {"a": 1.5 * (1 + 1e-12), "b": 2.0}, reports
    ) == []


def test_crosscheck_totals_flags_reports_with_no_spans():
    # A detail key refines a traced phase; no span carries it.
    reports = [{"a": 1.0, "b": 0.0, **dict.fromkeys(trace_io.DETAIL_KEYS, 0.5)}]
    assert trace_io.crosscheck_totals({}, reports) == [
        "phase 'a' reported but never traced",
        "phase 'b' reported but never traced",
    ]
    _, problems = trace_io.reconcile_phases([], {"restore": reports})
    assert problems == [
        "restore phase 'a' reported but never traced",
        "restore phase 'b' reported but never traced",
    ]


#: Two reports' breakdowns per span kind, the way engines and the elastic
#: controller emit them (one phase-tagged span per breakdown entry).
RECONCILE_TABLE = {
    "save": [{"step1": 0.25, "step3": 1.5}, {"step1": 0.5, "step3": 1.25}],
    "restore": [{"fetch_packets": 0.125, "htod": 0.0625}],
    "replicate": [{"replicate_dtoh": 0.2, "replicate_piggyback": 3.9}] * 2,
    "tier": [{"demote_disk_write": 0.003}, {"demote_disk_write": 0.004}],
    "repair": [{"repair_derive": 0.1, "repair_stream": 2.0, "repair_commit": 0.01}],
    "regroup": [{"regroup_plan": 0.05}, {"regroup_plan": 0.05}],
}


def _reconcile_spans(table):
    spans = [
        {"attrs": {"kind": kind, "phase": phase}, "sim_s": seconds}
        for kind, breakdowns in table.items()
        for breakdown in breakdowns
        for phase, seconds in breakdown.items()
    ]
    # A torn save and an untagged span contribute nothing.
    spans.append({"attrs": {"kind": "save", "phase": "step1"}, "sim_s": None})
    spans.append({"attrs": {}, "sim_s": 9.0})
    return spans


@pytest.mark.parametrize("kind", sorted(RECONCILE_TABLE))
def test_reconcile_phases_one_rule_for_every_span_kind(kind):
    spans = _reconcile_spans(RECONCILE_TABLE)

    # Traced totals equal the reports: one section per kind, no problem.
    sections, problems = trace_io.reconcile_phases(spans, RECONCILE_TABLE)
    assert problems == []
    assert set(sections) == set(RECONCILE_TABLE)
    want = {}
    for breakdown in RECONCILE_TABLE[kind]:
        for phase, seconds in breakdown.items():
            want[phase] = want.get(phase, 0.0) + seconds
    assert sections[kind] == {"traced": want, "reported": want}
    assert list(sections[kind]["traced"]) == sorted(want)

    # A perturbed breakdown is flagged, and only under its own kind.
    perturbed = dict(RECONCILE_TABLE)
    perturbed[kind] = [dict(b) for b in RECONCILE_TABLE[kind]]
    phase = sorted(perturbed[kind][0])[0]
    perturbed[kind][0][phase] *= 1.0 + 1e-6
    _, problems = trace_io.reconcile_phases(spans, perturbed)
    assert len(problems) == 1
    assert problems[0].startswith(f"{kind} phase {phase!r}: traced ")

    # A kind with neither spans nor reports is left out; one with spans
    # but no reports is not.
    others = {k: v for k, v in RECONCILE_TABLE.items() if k != kind}
    sections, problems = trace_io.reconcile_phases(
        _reconcile_spans(others), {**others, kind: []}
    )
    assert problems == []
    assert set(sections) == set(others)
    sections, problems = trace_io.reconcile_phases(spans, {**others, kind: []})
    assert sections[kind]["reported"] == {}
    assert problems and all(
        p.startswith(f"{kind} phase ") and p.endswith("absent from reports")
        for p in problems
    )


def test_summarize_digest():
    summary = trace_io.summarize(_traced_sample())
    assert summary["spans"] == 2
    assert summary["events"] == 1
    assert summary["span_counts"]["save.step1"] == 1
    assert summary["event_counts"]["recovery"] == 1
    assert summary["phase_sim_totals"] == {"step1": 0.25}
    assert summary["nesting_problems"] == []
    assert summary["counters"]["saves"] == 1
