"""Trace-consistency: a traced chaos-style episode must self-reconcile.

The tentpole's acceptance contract, as a test: run a save/crash/restore
episode with tracing enabled and assert

* spans nest correctly (no orphan, inversion, or containment violation),
* every crash point that fired appears exactly once in the event log,
* phase totals derived from spans reconcile with the engine's own
  ``TimeModel`` accounting (the report breakdowns) within float
  tolerance — torn saves contributing nothing,
* and tracing never changes the simulation itself: a traced run and an
  untraced run of the same seed produce identical reports.
"""

import pytest

from repro import obs
from repro.obs import trace_io
from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def _build(seed=0):
    job = TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=seed,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2, encode_threads=2))
    return job, engine


def _run_episode(crash_point):
    """Save, crash a save at ``crash_point``, fail a node, restore."""
    job, engine = _build()
    manager = CheckpointManager(job, engine, interval=2, remote_backup_every=2)
    for _ in range(4):
        job.advance()
        manager.step()

    engine.crash_injector = CrashInjector(CrashPlan(crash_point))
    job.advance()
    job.advance()
    with pytest.raises(InjectedCrash):
        manager.step()
    engine.crash_injector = None

    recovery = manager.on_failure({1})
    return manager, recovery


@pytest.mark.parametrize("crash_point", ["post_encode", "mid_metadata_broadcast"])
def test_traced_episode_reconciles(crash_point):
    with obs.use_tracer() as tracer:
        manager, recovery = _run_episode(crash_point)

    spans = [r for r in tracer.records() if r["type"] == "span"]
    events = [r for r in tracer.records() if r["type"] == "event"]

    # Spans nest: no structural problems at all.
    assert trace_io.validate_spans(spans) == []

    # The injected crash shows up exactly once in the event log, at the
    # armed point.
    fired = [e for e in events if e["name"] == "crash_point_fired"]
    assert [e["fields"]["point"] for e in fired] == [crash_point]

    # The torn save left an uncosted span: kind=save span with sim_s None.
    torn = [
        s
        for s in spans
        if (s["attrs"] or {}).get("kind") == "save" and s["sim_s"] is None
    ]
    assert torn, "crashed save should leave an uncosted span behind"

    # Phase totals reconcile with the *completed* reports' TimeModel
    # accounting; the torn save contributes nothing.
    save_breakdowns = [r.breakdown for r in manager.stats.save_reports]
    save_breakdowns += [r.breakdown for r in manager.stats.backup_reports]
    sections, problems = trace_io.reconcile_phases(
        spans, {"save": save_breakdowns, "restore": [recovery.breakdown]}
    )
    assert problems == []
    assert set(sections) == {"save", "restore"}

    # Recovery events carry exact lost-work accounting.
    recoveries = [e for e in events if e["name"] == "recovery"]
    assert len(recoveries) == 1
    assert recoveries[0]["fields"]["recovery_s"] == recovery.recovery_time


def test_tracing_does_not_change_the_simulation():
    """Traced and untraced runs of one seed are report-identical."""

    def run():
        manager, recovery = _run_episode("post_xor")
        return (
            [(r.version, r.checkpoint_time, r.stall_time, tuple(sorted(r.breakdown.items())))
             for r in manager.stats.save_reports],
            (recovery.version, recovery.recovery_time,
             tuple(sorted(recovery.breakdown.items()))),
        )

    untraced = run()
    with obs.use_tracer():
        traced = run()
    assert untraced == traced


def test_traced_runner_end_to_end(tmp_path):
    """`repro trace` acceptance: valid JSONL, crosscheck within 1e-9."""
    import io

    from repro.obs.runner import run_traced_job

    path = str(tmp_path / "trace.jsonl")
    out = io.StringIO()
    assert run_traced_job(output=path, out=out) == 0
    assert "crosscheck OK" in out.getvalue()

    trace = trace_io.load_trace(path)
    assert trace.meta["schema"] == trace_io.SCHEMA_VERSION
    assert trace.meta["engine"] == "eccheck"
    assert trace_io.validate_spans(trace.spans) == []
    span_names = [s["name"] for s in trace.spans]
    event_names = [e["name"] for e in trace.events]
    assert "eccheck.save" in span_names
    assert "pipeline.encode" in span_names
    assert "recovery" in event_names
    # Nothing crashes, so every root save span commits: its sim time is
    # set only once the save lands.
    saves = [s for s in trace.spans if s["name"] == "eccheck.save"]
    assert saves and all(s["sim_s"] is not None for s in saves)
    assert "checkpoint" not in event_names
    # The decoding-matrix cache the restore hits surfaces as gauges, and
    # no other cache does.
    cache_gauges = [g for g in trace.metrics["gauges"] if g.startswith("cache.")]
    assert "cache.decode_hits" in cache_gauges
    assert all(g.startswith("cache.decode_") for g in cache_gauges)


def test_delta_save_is_attributed_to_the_three_step_spans():
    """A delta save runs under the full save's step spans: the walk in
    step 1, every patched chunk in step 3, the commit record in step 2 —
    costed on completion only, so a delta torn mid-P2P reconciles too."""
    job, engine = _build()
    engine.save()
    where: dict[str, set] = {}

    def spy(label, fn):
        def wrapped(*args, **kwargs):
            span = obs.get_tracer().current_span()
            where.setdefault(label, set()).add(span and span.name)
            return fn(*args, **kwargs)

        return wrapped

    put = engine.host.put
    engine._walk_workers = spy("walk", engine._walk_workers)
    engine.host.put = lambda node, key, value: spy(key[0], put)(node, key, value)
    reports = []
    with obs.use_tracer() as tracer:
        for crash_plan in (None, CrashPlan("mid_p2p", after=6), None):
            job.advance(dirty_tensor_fraction=0.1)
            if crash_plan is None:
                reports.append(engine.save_incremental())
                assert "dirty_fraction" in reports[-1].breakdown
            else:
                engine.crash_injector = CrashInjector(crash_plan)
                with pytest.raises(InjectedCrash):
                    engine.save_incremental()
                engine.crash_injector = None
    assert where == {
        "walk": {"eccheck.save.step1"},
        "chunk": {"eccheck.save.step3"},
        "digest": {"eccheck.save.step3"},
        "meta": {"eccheck.save.step2"},
    }

    spans = [r for r in tracer.records() if r["type"] == "span"]
    assert trace_io.validate_spans(spans) == []
    roots = [s for s in spans if s["name"] == "eccheck.save_incremental"]
    assert [s["sim_s"] for s in roots] == [
        reports[0].checkpoint_time, None, reports[1].checkpoint_time
    ]
    for root, torn in zip(roots, (False, True, False)):
        children = [s for s in spans if s["parent"] == root["id"]]
        assert sorted(s["name"] for s in children) == (
            ["eccheck.save.step1", "eccheck.save.step3"]  # never reached step 2
            if torn
            else ["eccheck.save.step1", "eccheck.save.step2", "eccheck.save.step3"]
        )
        assert all((s["sim_s"] is None) == torn for s in children)
    _, problems = trace_io.reconcile_phases(
        spans, {"save": [r.breakdown for r in reports]}
    )
    assert problems == []
