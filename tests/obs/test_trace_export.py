"""Chrome-trace export: schema, track mapping, sim-axis layout."""

import json

from repro.obs.trace_export import (
    SIM_PID,
    WALL_PID,
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

REQUIRED_FIELDS = ("ph", "ts", "pid", "tid")


def _events(traced_run):
    return export_chrome_trace(traced_run.trace)["traceEvents"]


class TestSchema:
    def test_export_passes_schema_validation(self, traced_run):
        doc = export_chrome_trace(traced_run.trace)
        assert validate_chrome_trace(doc) == []

    def test_every_event_has_required_fields(self, traced_run):
        for event in _events(traced_run):
            for key in REQUIRED_FIELDS:
                assert key in event, f"{event.get('name')}: missing {key!r}"
            assert event["ph"] in ("X", "i", "M")
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0

    def test_complete_events_have_nonnegative_dur(self, traced_run):
        for event in _events(traced_run):
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0

    def test_instant_events_carry_scope(self, traced_run):
        instants = [e for e in _events(traced_run) if e["ph"] == "i"]
        assert instants, "traced run should produce instant events"
        for event in instants:
            assert event["s"] in ("t", "p", "g")

    def test_validator_flags_broken_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        doc = {
            "traceEvents": [
                {"ph": "X", "ts": 0, "pid": 1},  # no tid, no dur
                {"ph": "i", "ts": -1, "pid": 1, "tid": 0},  # no scope, bad ts
                {"ph": "Z", "ts": 0, "pid": 1, "tid": 0},  # unknown phase
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("missing 'tid'" in p for p in problems)
        assert any("non-negative dur" in p for p in problems)
        assert any("scope" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("unknown phase" in p for p in problems)


class TestWallProcess:
    def test_every_span_becomes_a_wall_complete_event(self, traced_run):
        wall_x = [
            e
            for e in _events(traced_run)
            if e["pid"] == WALL_PID and e["ph"] == "X"
        ]
        assert len(wall_x) == len(traced_run.trace.spans)
        exported = sorted((e["name"], round(e["ts"], 3)) for e in wall_x)
        expected = sorted(
            (s["name"], round(s["start"] * 1e6, 3))
            for s in traced_run.trace.spans
        )
        assert exported == expected

    def test_every_point_event_becomes_an_instant(self, traced_run):
        instants = [
            e
            for e in _events(traced_run)
            if e["pid"] == WALL_PID and e["ph"] == "i"
        ]
        assert len(instants) == len(traced_run.trace.events)
        names = {e["name"] for e in instants}
        assert "recovery" in names

    def test_threads_get_named_tracks(self, traced_run):
        meta = [
            e
            for e in _events(traced_run)
            if e["pid"] == WALL_PID
            and e["ph"] == "M"
            and e["name"] == "thread_name"
        ]
        names = {e["args"]["name"] for e in meta}
        # Every thread that opened a span gets a named track; the save
        # runs its stages in line, so the run has exactly one.
        assert names == {s["thread"] for s in traced_run.trace.spans}
        assert names == {"MainThread"}

    def test_spans_land_on_their_threads_track(self, traced_run):
        events = _events(traced_run)
        tid_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        threads = {
            (s["name"], round(s["start"] * 1e6, 3)): s["thread"]
            for s in traced_run.trace.spans
        }
        wall_events = [e for e in events if e["pid"] == WALL_PID and e["ph"] == "X"]
        assert any(e["name"] == "pipeline.encode" for e in wall_events)
        for event in wall_events:
            want = threads[(event["name"], round(event["ts"], 3))]
            assert tid_names[(WALL_PID, event["tid"])] == want


    def test_a_worker_threads_spans_get_their_own_track(self, traced_run):
        """The traced run has one thread; relabel its transfer-stage spans
        as a worker's and the exporter must open a second named track."""
        from repro.obs.trace_io import Trace

        spans = [
            dict(s, thread="worker-1") if s["name"] == "pipeline.transfer" else s
            for s in traced_run.trace.spans
        ]
        events = export_chrome_trace(Trace(spans=spans))["traceEvents"]
        tids = {
            e["args"]["name"]: e["tid"]
            for e in events
            if e["pid"] == WALL_PID and e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert set(tids) == {"MainThread", "worker-1"}
        assert tids["MainThread"] != tids["worker-1"]
        for event in events:
            if event["pid"] == WALL_PID and event["ph"] == "X":
                worker = event["name"] == "pipeline.transfer"
                assert event["tid"] == tids["worker-1" if worker else "MainThread"]


class TestSimProcess:
    def test_sim_roots_laid_end_to_end(self, traced_run):
        sim_roots = [
            e
            for e in _events(traced_run)
            if e["pid"] == SIM_PID and e["ph"] == "X" and e["cat"] != "phase"
        ]
        roots = [
            s
            for s in traced_run.trace.spans
            if (s.get("attrs") or {}).get("kind") is not None
            and (s.get("attrs") or {}).get("phase") is None
            and s.get("sim_s") is not None
        ]
        assert len(sim_roots) == len(roots)
        # Both saves and the recovery land on the sim axis.
        kinds = {e["args"]["kind"] for e in sim_roots}
        assert kinds == {"save", "restore"}
        sim_roots.sort(key=lambda e: e["ts"])
        cursor = 0.0
        for event in sim_roots:
            assert abs(event["ts"] - cursor) <= 1e-6 * max(cursor, 1.0)
            cursor = event["ts"] + event["dur"]

    def test_phase_children_chain_from_their_root(self, traced_run):
        events = [e for e in _events(traced_run) if e["pid"] == SIM_PID]
        roots = [e for e in events if e["ph"] == "X" and e["cat"] != "phase"]
        phases = [e for e in events if e["ph"] == "X" and e["cat"] == "phase"]
        assert phases, "costed saves must export phase tracks"
        # Each root's phase children are laid contiguously from the root's
        # start, so every phase event either begins exactly at a root start
        # or abuts the end of another phase event.  (Phases may overrun
        # their root: breakdowns carry overlapping component keys such as
        # step3_comm on top of step3_encode_xor_p2p itself.)
        anchors = [r["ts"] for r in roots]
        anchors += [p["ts"] + p["dur"] for p in phases]
        for phase in phases:
            slack = 1e-6 * max(phase["ts"], 1.0)
            assert any(abs(phase["ts"] - a) <= slack for a in anchors)
        root_starts = {r["ts"] for r in roots}
        assert any(p["ts"] in root_starts for p in phases), (
            "at least one phase chain must anchor at a root start"
        )

    def test_phase_track_totals_match_trace_phase_totals(self, traced_run):
        from repro.obs.trace_io import phase_totals_by_kind

        events = [e for e in _events(traced_run) if e["pid"] == SIM_PID]
        phases = [e for e in events if e["ph"] == "X" and e["cat"] == "phase"]
        exported: dict = {}
        for phase in phases:
            exported[phase["name"]] = exported.get(phase["name"], 0.0) + phase["dur"]
        by_kind = phase_totals_by_kind(traced_run.trace.spans)
        expected = dict(by_kind["save"])
        for name, sim_s in by_kind["restore"].items():
            expected[name] = expected.get(name, 0.0) + sim_s
        assert set(exported) == set(expected)
        for name, total_us in exported.items():
            want_us = expected[name] * 1e6
            assert abs(total_us - want_us) <= 1e-9 * max(abs(want_us), 1.0)


class TestRoundTrip:
    def test_write_chrome_trace_round_trips(self, traced_run, tmp_path):
        path = tmp_path / "trace.perfetto.json"
        count = write_chrome_trace(traced_run.trace, str(path))
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == count
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["meta"]["engine"] == "eccheck"
        assert doc["otherData"]["meta"]["schema"] == 1
        assert "counters" in doc["otherData"]["metrics"]
