"""Critical-path / utilization / idle-slot analyses: synthetic DAGs with
brute-force cross-checks, plus invariants on a real traced run."""

import itertools

import pytest

from repro.errors import ReproError
from repro.obs.critical_path import (
    PIPELINE_STAGES,
    analyze_trace,
    idle_slot_report,
    pipeline_critical_path,
    render_analysis,
    save_step_wall,
    thread_utilization,
)
from repro.obs.trace_io import Trace


def _span(sid, name, start, wall, parent=None, thread="MainThread", **attrs):
    return {
        "id": sid,
        "parent": parent,
        "name": name,
        "start": start,
        "wall_s": wall,
        "sim_s": None,
        "thread": thread,
        "attrs": attrs,
    }


def _pipeline_spans(walls, parent=100):
    """Stage spans for a save: walls[stage][item] wall seconds.

    Starts are synthesised in dependency order so queue-order sorting
    sees items in sequence.
    """
    spans = [_span(parent, "engine.save", 0.0, 1000.0)]
    sid = parent + 1
    finish = {}
    for s, stage_walls in enumerate(walls):
        for i, wall in enumerate(stage_walls):
            start = max(
                finish.get((s, i - 1), 0.0), finish.get((s - 1, i), 0.0)
            )
            finish[(s, i)] = start + wall
            spans.append(
                _span(
                    sid,
                    PIPELINE_STAGES[s],
                    start,
                    wall,
                    parent=parent,
                    thread=f"worker-{s}",
                )
            )
            sid += 1
    return spans


def _brute_force_critical(walls):
    """Max-weight monotone path from (0, 0) to (last stage, last item)."""
    stages, items = len(walls), len(walls[0])
    best = 0.0
    # A monotone lattice path is a choice of which steps are "next item".
    for item_steps in itertools.combinations(
        range(stages + items - 2), items - 1
    ):
        s = i = 0
        total = walls[0][0]
        for step in range(stages + items - 2):
            if step in item_steps:
                i += 1
            else:
                s += 1
            total += walls[s][i]
        best = max(best, total)
    return best


class TestPipelineCriticalPath:
    @pytest.mark.parametrize(
        "walls",
        [
            [[5.0, 1.0], [4.0, 1.0], [1.0, 1.0]],
            [[1.0, 1.0, 1.0], [1.0, 9.0, 1.0], [2.0, 1.0, 3.0]],
            [[0.5], [0.25], [0.125]],
            [[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0]],
        ],
    )
    def test_matches_brute_force(self, walls):
        (report,) = pipeline_critical_path(_pipeline_spans(walls))
        assert report.items == len(walls[0])
        want = _brute_force_critical(walls)
        assert report.critical_wall_s == pytest.approx(want, rel=1e-12)

    def test_path_is_a_valid_chain(self):
        walls = [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 5.0, 1.0]]
        (report,) = pipeline_critical_path(_pipeline_spans(walls))
        # Monotone through the DAG, one dependency edge per hop.
        for a, b in zip(report.path, report.path[1:]):
            assert (b.stage, b.item) in (
                (a.stage + 1, a.item),
                (a.stage, a.item + 1),
            )
        assert (report.path[0].stage, report.path[0].item) == (0, 0)
        last = report.path[-1]
        assert (last.stage, last.item) == (len(walls) - 1, report.items - 1)
        assert report.critical_wall_s == pytest.approx(
            sum(n.wall_s for n in report.path)
        )

    def test_totals_and_bottleneck(self):
        walls = [[5.0, 1.0], [1.0, 1.0], [1.0, 2.0]]
        (report,) = pipeline_critical_path(_pipeline_spans(walls))
        assert report.stage_wall_totals == {
            "pipeline.encode": 6.0,
            "pipeline.xor_reduce": 2.0,
            "pipeline.transfer": 3.0,
        }
        assert report.bottleneck_stage == "pipeline.encode"
        assert report.serial_wall_s == pytest.approx(11.0)
        assert 1.0 <= report.overlap_efficiency <= len(PIPELINE_STAGES)

    def test_torn_save_with_uneven_items_is_skipped(self):
        spans = _pipeline_spans([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        spans = [
            s
            for s in spans
            if not (s["name"] == "pipeline.transfer" and s["start"] > 0)
        ]
        assert pipeline_critical_path(spans) == []

    def test_non_pipeline_spans_are_ignored(self):
        spans = [
            _span(1, "engine.save", 0.0, 1.0),
            _span(2, "engine.save.step1", 0.0, 0.5, parent=1),
        ]
        assert pipeline_critical_path(spans) == []

    def test_traced_run_has_one_path_per_pipelined_save(self, traced_run):
        reports = pipeline_critical_path(traced_run.trace.spans)
        assert len(reports) == len(traced_run.trace.spans_named("eccheck.save"))
        for report in reports:
            assert report.items >= 1
            # The longest chain of the pipeline DAG is part of the serial
            # work, and holds at least the busiest stage.
            assert report.critical_wall_s <= report.serial_wall_s + 1e-9
            assert (
                max(report.stage_wall_totals.values())
                <= report.critical_wall_s + 1e-9
            )
            assert report.bottleneck_stage in PIPELINE_STAGES
            assert sum(report.stage_wall_totals.values()) == pytest.approx(
                report.serial_wall_s
            )
            # The runner executes the stages in line, one span after the
            # other on one thread: the makespan is the serial work plus
            # the gaps between spans, so the "overlap" reads just under 1.
            assert report.serial_wall_s <= report.makespan_wall_s + 1e-9
            assert 0.5 < report.overlap_efficiency <= 1.0 + 1e-9


class TestThreadUtilization:
    def test_leaf_spans_only(self):
        spans = [
            _span(1, "outer", 0.0, 10.0),
            _span(2, "inner", 1.0, 2.0, parent=1),
            _span(3, "inner", 2.0, 4.0, parent=1, thread="worker"),
        ]
        util = thread_utilization(spans)
        assert util["MainThread"]["busy_s"] == pytest.approx(2.0)
        assert util["MainThread"]["busy_fraction"] == pytest.approx(0.2)
        assert util["worker"]["busy_s"] == pytest.approx(4.0)
        assert util["worker"]["busy_fraction"] == pytest.approx(0.4)

    def test_overlapping_leaves_merge(self):
        spans = [
            _span(1, "a", 0.0, 5.0),
            _span(2, "b", 3.0, 5.0),
        ]
        util = thread_utilization(spans)
        assert util["MainThread"]["busy_s"] == pytest.approx(8.0)
        assert util["MainThread"]["spans"] == 2

    def test_empty(self):
        assert thread_utilization([]) == {}

    def test_traced_run_bounds(self, traced_run):
        util = thread_utilization(traced_run.trace.spans)
        # One thread does all of it: the save starts no stage workers.
        assert set(util) == {"MainThread"}
        for stats in util.values():
            assert 0.0 <= stats["busy_fraction"] <= 1.0
            assert stats["busy_s"] >= 0.0
            assert stats["spans"] >= 1


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
        analysis = analyze_trace(
            traced_run.trace,
            save_breakdowns=traced_run.save_breakdowns,
            restore_breakdowns=traced_run.restore_breakdowns,
            rel_tol=1e-9,
        )
        assert analysis.crosscheck_problems == []
        assert analysis.save_phase_totals
        assert analysis.restore_phase_totals
        assert analysis.critical_paths
        assert analysis.utilization
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
        restores = traced_run.trace.spans_named("eccheck.restore")
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
        saves = traced_run.trace.spans_named("eccheck.save")
        assert sum(steps.values()) == pytest.approx(
            sum(s["wall_s"] for s in saves), rel=1e-9
        )
        assert steps["step3_encode"] == pytest.approx(
            sum(s["wall_s"] for s in traced_run.trace.spans_named("pipeline.encode"))
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
        analysis = analyze_trace(
            traced_run.trace, save_breakdowns=perturbed, rel_tol=1e-9
        )
        assert analysis.crosscheck_problems

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
        assert "pipeline critical paths (wall):" in text
        assert "thread utilization (wall):" in text
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
