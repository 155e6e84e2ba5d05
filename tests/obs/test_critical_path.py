"""Trace analysis behind ``repro analyze``: per-kind phase totals,
wall-clock step attribution and idle-slot placement, on a real traced
run."""

import pytest

from repro.errors import ReproError
from repro.obs.critical_path import (
    analyze_trace,
    idle_slot_report,
    render_analysis,
    save_step_wall,
)
from repro.obs.trace_io import Trace, reconcile_phases


def _spans(trace: Trace, name: str) -> list[dict]:
    return [s for s in trace.spans if s["name"] == name]


class TestIdleSlotReport:
    def test_traced_run_invariants(self, traced_run):
        report = idle_slot_report(traced_run.trace)
        assert report is not None
        saves = [
            s
            for s in traced_run.trace.spans
            if (s.get("attrs") or {}).get("kind") == "save"
            and s.get("parent") is None
            and s.get("sim_s") is not None
        ]
        assert report.saves == len(saves)
        assert report.interval_iterations == traced_run.trace.meta["interval"]
        assert report.iteration_time_s > 0
        assert 0.0 <= report.idle_fraction <= 1.0
        assert report.comm_seconds_per_save > 0
        assert report.in_idle_seconds + report.overflow_seconds == pytest.approx(
            report.comm_seconds_per_save
        )
        assert report.in_idle_bytes + report.collided_bytes == pytest.approx(
            report.bytes_inter_node_per_save
        )
        assert 0.0 <= report.in_idle_fraction <= 1.0
        assert report.fits_in_idle == (report.overflow_seconds == 0.0)
        assert report.naive_collision_seconds >= 0.0

    def test_empty_trace_yields_none(self):
        assert idle_slot_report(Trace()) is None

    def test_no_inter_node_volume_yields_none(self, traced_run):
        stripped = Trace(
            meta=traced_run.trace.meta,
            spans=traced_run.trace.spans,
            events=traced_run.trace.events,
            metrics={"counters": {}},
        )
        assert idle_slot_report(stripped) is None


class TestAnalyzeTrace:
    def test_crosschecks_against_reports(self, traced_run):
        sections, problems = reconcile_phases(
            traced_run.trace.spans,
            {
                "save": traced_run.save_breakdowns,
                "restore": traced_run.restore_breakdowns,
            },
        )
        assert problems == []
        analysis = analyze_trace(traced_run.trace)
        assert analysis.phase_totals["save"]
        assert analysis.phase_totals["restore"]
        for kind, section in sections.items():
            assert analysis.phase_totals[kind] == section["traced"]
        assert analysis.idle_slots is not None

    def test_restore_steps_account_for_the_restore_wall_time(self, traced_run):
        """The engine's wall-only step spans tile ``eccheck.restore``: they
        carry no phase or sim time (phase totals above stay exact) and,
        with the stated remainder, sum to the restore's wall time."""
        steps = analyze_trace(traced_run.trace).restore_step_wall
        assert set(steps) == {
            "step1_locate_verify", "step2_decode", "step3_install",
            "step4_rebuild_redundancy", "(unattributed)",
        }
        restores = _spans(traced_run.trace, "eccheck.restore")
        assert sum(steps.values()) == pytest.approx(sum(s["wall_s"] for s in restores))
        assert 0 <= steps["(unattributed)"] < 0.25 * sum(steps.values())
        for span in traced_run.trace.spans:
            if "step" in (span.get("attrs") or {}):
                assert span["sim_s"] is None and "phase" not in span["attrs"]

    def test_save_steps_account_for_the_save_wall_time(self, traced_run):
        """Without a wrapping op span the rows tile the engine's own save
        spans (this run has no tier policy, hence no demote row)."""
        steps = analyze_trace(traced_run.trace).save_step_wall
        assert set(steps) == {
            "step1_decompose_dtoh", "step2_metadata_broadcast", "step3_encode",
            "step3_transfer", "step3_other", "(unattributed)",
        }
        saves = _spans(traced_run.trace, "eccheck.save")
        assert sum(steps.values()) == pytest.approx(
            sum(s["wall_s"] for s in saves), rel=1e-9
        )
        assert steps["step3_encode"] == pytest.approx(
            sum(s["wall_s"] for s in _spans(traced_run.trace, "pipeline.encode"))
        )
        assert all(wall >= 0 for wall in steps.values())

    def test_save_steps_of_a_ledger_shaped_trace(self):
        """Full and delta saves with the manager's demotion after each,
        every one under an ``op.save`` span as the wall-clock ledger records
        them: the rows, demotion and remainder included, sum to the op
        spans' wall time."""
        from repro import obs
        from repro.chaos.harness import build_testbed
        from repro.checkpoint.tiering import TierPolicy

        job, engine = build_testbed("eccheck", "gpt2-h1024-L16", 5e-4, 0)
        policy = TierPolicy(memory_versions=1, disk_versions=1)
        with obs.use_tracer() as tracer:
            for incremental in (False, True, False, True):
                job.advance(dirty_tensor_fraction=0.1 if incremental else 1.0)
                with tracer.span("op.save"):
                    if incremental:
                        assert "dirty_fraction" in engine.save_incremental().breakdown
                    else:
                        engine.save()
                    decision = policy.decide(
                        engine.memory_versions(),
                        engine.disk_versions(),
                        pinned=engine.delta_base_version(),
                    )
                    for version in decision.demote:
                        engine.demote_version(version)
        spans = [r for r in tracer.records() if r["type"] == "span"]
        steps = save_step_wall(spans)
        assert set(steps) == {
            "step1_decompose_dtoh", "step2_metadata_broadcast", "step3_encode",
            "step3_transfer", "step3_other", "demote", "(unattributed)",
        }
        ops = [s for s in spans if s["name"] == "op.save"]
        assert len(ops) == 4
        assert sum(steps.values()) == pytest.approx(
            sum(s["wall_s"] for s in ops), rel=1e-9
        )
        demotes = [s for s in spans if s["name"] == "eccheck.demote"]
        assert demotes and steps["demote"] == pytest.approx(
            sum(s["wall_s"] for s in demotes)
        )
        # A delta save's step 3 has no stage spans: all of it is "other".
        delta_step3 = [
            s for s in spans
            if s["name"] == "eccheck.save.step3" and s["parent"] in
            {p["id"] for p in spans if p["name"] == "eccheck.save_incremental"}
        ]
        assert len(delta_step3) == 2
        assert steps["step3_other"] >= sum(s["wall_s"] for s in delta_step3)
        assert all(wall >= 0 for wall in steps.values())
        assert save_step_wall([]) == {}

    def test_perturbed_breakdown_is_flagged(self, traced_run):
        perturbed = [dict(b) for b in traced_run.save_breakdowns]
        key = next(iter(perturbed[0]))
        perturbed[0][key] *= 1.0 + 1e-6
        _, problems = reconcile_phases(traced_run.trace.spans, {"save": perturbed})
        assert problems
        assert all(p.startswith(f"save phase {key!r}") for p in problems)

    def test_an_engine_trace_runs_its_stages_in_line(self, traced_run):
        """Why ``repro analyze`` has no critical path or per-thread
        utilization: every span of an engine run is on one thread, and no
        two of a save's stage spans overlap in wall time."""
        spans = traced_run.trace.spans
        assert {s["thread"] for s in spans} == {"MainThread"}
        stages = sorted(
            (s for s in spans if s["name"].startswith("pipeline.")),
            key=lambda s: s["start"],
        )
        assert stages
        for a, b in zip(stages, stages[1:]):
            assert a["start"] + a["wall_s"] <= b["start"] + 1e-6

    def test_empty_trace_raises(self):
        with pytest.raises(ReproError):
            analyze_trace(Trace())

    def test_render_mentions_every_section(self, traced_run):
        analysis = analyze_trace(traced_run.trace)
        text = render_analysis(analysis)
        assert "save phases (sim):" in text
        assert "restore phases (sim):" in text
        assert "save steps (wall):" in text
        assert "restore steps (wall):" in text
        assert "idle-slot placement (sim):" in text
        assert "CROSSCHECK PROBLEM" not in text

    def test_padding_line_closes_the_save_steps_section(self, traced_run):
        """How much of a save's packets is padding, and what the landing
        digests made of it: three gauges, recorded only when traced (gauges
        because every counter is embedded in the traced campaign reports)."""
        analysis = analyze_trace(traced_run.trace)
        share = analysis.padding["save.padding_share"]
        crcd = analysis.padding["integrity.bytes_digested"]
        folded = analysis.padding["integrity.bytes_closed_form"]
        engine = traced_run.engine
        lengths = [length for _, length in engine._records(engine.version, [0])]
        packet = engine.host.get(0, ("chunk", engine.version, "data", 0, 0)).size
        assert share == pytest.approx(1 - sum(lengths) / (len(lengths) * packet))
        assert crcd + folded == 2 * len(lengths) * packet  # (k + m) / k = 2
        assert "integrity.bytes_digested" not in traced_run.trace.metrics["counters"]
        assert 0 < folded < crcd  # two long shards, six short ones
        lines = render_analysis(analysis).splitlines()
        section = lines[
            lines.index("save steps (wall):") : lines.index("restore steps (wall):")
        ]
        assert section[-1] == (
            f"  padding {share:.1%} of packet bytes; landing digests CRC'd "
            f"{crcd / 2**20:.2f} MiB, closed-form {folded / 2**20:.2f} MiB (last save)"
        )
        assert sum("padding" in line for line in lines) == 1

    def test_digests_line_closes_the_restore_steps_section(self, traced_run):
        """How the last restore's rebuilt digests were made: two gauges (not
        counters, which the traced campaign reports embed)."""
        analysis = analyze_trace(traced_run.trace)
        crcd = analysis.restore_digests["restore.digests_crcd"]
        derived = analysis.restore_digests["restore.digests_derived"]
        assert "restore.digests_crcd" not in traced_run.trace.metrics["counters"]
        engine = traced_run.engine
        plan = engine.placement_of(traced_run.recovery_reports[-1].version)
        assert plan.parity_nodes[0] == 1  # the failed node held parity 0: all derived
        assert (crcd, derived) == (0, len(plan.data_group[0]))
        lines = render_analysis(analysis).splitlines()
        start = lines.index("restore steps (wall):")
        end = next(i for i in range(start + 1, len(lines)) if not lines[i].startswith(" "))
        assert lines[end - 1] == (
            "  digests of rebuilt chunk packets: 0 CRC'd, "
            f"{derived:.0f} derived by XOR algebra (last restore)"
        )
        assert any("(unattributed)" in line for line in lines[start:end])

    def test_an_untraced_or_foreign_trace_prints_no_padding_line(self, traced_run):
        trace = Trace(spans=traced_run.trace.spans, metrics={"counters": {}, "gauges": {}})
        assert analyze_trace(trace).padding == {}
        assert "padding" not in render_analysis(analyze_trace(trace))
