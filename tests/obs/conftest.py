"""Shared fixture: one traced eccheck save/restore run, reused across the
export / critical-path / analysis suites (tracing a job is the expensive
part; every consumer only reads the resulting records)."""

from types import SimpleNamespace

import pytest

from repro import obs
from repro.checkpoint.manager import CheckpointManager
from repro.obs import trace_io
from repro.chaos.harness import build_testbed


def run_traced_episode(
    engine_name: str = "eccheck",
    iterations: int = 6,
    interval: int = 2,
    backup_every: int = 2,
    fail_nodes: frozenset = frozenset({1}),
    seed: int = 0,
):
    """A traced job mirroring ``repro trace``, returning all the pieces."""
    job, engine = build_testbed(engine_name, "gpt2-h1024-L16", 5e-4, seed)
    supports_backup = hasattr(engine, "save_remote_backup")
    with obs.use_tracer() as tracer:
        manager = CheckpointManager(
            job,
            engine,
            interval=interval,
            remote_backup_every=backup_every if supports_backup else 0,
        )
        for _ in range(iterations):
            job.advance()
            manager.step()
        recovery_reports = []
        if fail_nodes:
            recovery_reports.append(manager.on_failure(set(fail_nodes)))
    spans = [r for r in tracer.records() if r["type"] == "span"]
    events = [r for r in tracer.records() if r["type"] == "event"]
    return SimpleNamespace(
        engine_name=engine_name,
        job=job,
        engine=engine,
        tracer=tracer,
        manager=manager,
        recovery_reports=recovery_reports,
        spans=spans,
        events=events,
        save_breakdowns=(
            [r.breakdown for r in manager.stats.save_reports]
            + [r.breakdown for r in manager.stats.backup_reports]
        ),
        restore_breakdowns=[r.breakdown for r in recovery_reports],
    )


@pytest.fixture(scope="session")
def traced_run(tmp_path_factory):
    """One traced eccheck run plus its JSONL round-trip."""
    episode = run_traced_episode()
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    trace_io.write_jsonl(
        episode.tracer,
        str(path),
        engine=episode.engine_name,
        model="gpt2-h1024-L16",
        scale=5e-4,
        seed=0,
        iterations=6,
        interval=2,
        nodes=episode.job.cluster.num_nodes,
    )
    episode.path = str(path)
    episode.trace = trace_io.load_trace(str(path))
    return episode
