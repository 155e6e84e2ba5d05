"""Traced-job driver behind the ``repro trace`` CLI.

Runs a checkpoint job on the standard testbed shape (4 nodes x 2 GPUs,
TP=2 / PP=4 — the same cluster the chaos campaigns use) with a collecting
:class:`~repro.obs.tracer.Tracer` installed, writes the JSONL trace, and
prints a per-phase overhead breakdown.  The breakdown is *cross-checked*:
every phase total derived from the trace's spans must reconcile with the
sum of the engine's own :class:`SaveReport`/:class:`RecoveryReport`
breakdowns within a relative tolerance, so the trace is evidence, not a
second opinion.
"""

from __future__ import annotations

import os
import sys

from repro import obs
from repro.errors import ReproError
from repro.obs import trace_io
from repro.obs.critical_path import ordered_kinds, phase_table
from repro.chaos.harness import build_testbed
from repro.checkpoint.base import SupportsRemoteBackup, SupportsTiers
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.core.eccheck import ECCheckEngine


def _snapshot_cache_gauges(tracer, engine) -> None:
    """Surface the decoding-matrix cache the restore hits as ``cache.decode_*``."""
    if not isinstance(engine, ECCheckEngine):
        return
    for key, value in engine.code.decode_cache_info().items():
        tracer.metrics.gauge(f"cache.decode_{key}").set(float(value))


def run_traced_job(
    engine_name: str = "eccheck",
    iterations: int = 8,
    interval: int = 2,
    backup_every: int = 2,
    fail_nodes: tuple[int, ...] = (1,),
    model: str = "gpt2-h1024-L16",
    scale: float = 5e-4,
    seed: int = 0,
    output: str = "TRACE_run.jsonl",
    out_dir: str | None = None,
    keep_failed: bool = False,
    tier_memory_versions: int = 0,
    out=None,
) -> int:
    """Run a traced save/restore job; return 0 iff the trace reconciles.

    Emits ``output`` (JSONL, schema v1) and prints a per-phase sim-time
    table per span kind (save, restore, replicate, tier), each reconciled
    against the manager's report breakdowns of that kind by
    :func:`repro.obs.trace_io.reconcile_phases`.

    ``tier_memory_versions > 0`` runs the manager under a
    :class:`~repro.checkpoint.tiering.TierPolicy` with that hot-tier
    depth (engines with the tier API only), which adds demotion
    (``tier``) spans.

    ``out_dir`` places the trace file (and any relative ``output`` path)
    inside a directory, created if needed.  The trace is written
    (atomically) only when the crosscheck reconciles — pass
    ``keep_failed=True`` to write it anyway for debugging — so a failed
    run never leaves a partial/misleading JSONL behind.
    """
    out = out or sys.stdout
    if output and out_dir:
        output = os.path.join(out_dir, os.path.basename(output))
    job, engine = build_testbed(engine_name, model, scale, seed)
    supports_backup = isinstance(engine, SupportsRemoteBackup)
    tier_policy = None
    if tier_memory_versions > 0:
        if not isinstance(engine, SupportsTiers):
            raise ReproError(
                f"engine {engine_name!r} has no tier API; "
                "--tier-keep needs eccheck"
            )
        tier_policy = TierPolicy(memory_versions=tier_memory_versions)
    with obs.use_tracer() as tracer:
        manager = CheckpointManager(
            job,
            engine,
            interval=interval,
            remote_backup_every=backup_every if supports_backup else 0,
            tier_policy=tier_policy,
        )
        for _ in range(iterations):
            job.advance()
            manager.step()
        recovery_reports = []
        if fail_nodes:
            recovery_reports.append(manager.on_failure(set(fail_nodes)))
        _snapshot_cache_gauges(tracer, engine)

    spans = [r for r in tracer.records() if r["type"] == "span"]
    problems = trace_io.validate_spans(spans)

    stats = manager.stats
    sections, mismatches = trace_io.reconcile_phases(
        spans,
        {
            "save": [r.breakdown for r in stats.save_reports + stats.backup_reports],
            "restore": [r.breakdown for r in recovery_reports],
            "replicate": [r.breakdown for r in stats.replicate_reports],
            "tier": [r.breakdown for r in stats.demote_reports],
        },
    )
    problems += mismatches

    events = len(tracer.records()) - len(spans)
    print(
        f"traced {engine_name}: {stats.checkpoints} checkpoints, "
        f"{stats.remote_backups} backups, "
        f"{stats.recoveries} recoveries "
        f"({len(spans)} spans, {events} events)",
        file=out,
    )
    for kind in ordered_kinds(sections):
        traced = sections[kind]["traced"]
        if not traced:
            continue
        print("\n".join(phase_table(f"{kind} phases (sim):", traced)), file=out)
        if kind == "replicate":
            print(
                f"  gradient stream: {stats.replications} replications "
                f"({stats.bytes_replicated} B over the trunk), "
                f"{stats.replayed_iterations} iterations replayed",
                file=out,
            )
        elif kind == "tier":
            print(
                f"  tier stack: {stats.demotions} demotions "
                f"({stats.bytes_to_disk} B to disk), "
                f"{stats.evictions} evictions "
                f"({stats.disk_bytes_evicted} B reclaimed)",
                file=out,
            )
    counters = tracer.metrics.snapshot()["counters"]
    for name in sorted(counters):
        print(f"  counter {name} = {counters[name]}", file=out)
    if output and problems and not keep_failed:
        print(f"crosscheck failed; trace not written to {output}", file=out)
    elif output:
        written = trace_io.write_jsonl(
            tracer,
            output,
            engine=engine_name,
            model=model,
            scale=scale,
            seed=seed,
            iterations=iterations,
            interval=interval,
            nodes=job.cluster.num_nodes,
        )
        print(f"trace written to {output} ({written} records)", file=out)
    if problems:
        for problem in problems:
            print(f"TRACE PROBLEM: {problem}", file=out)
        return 1
    print(
        f"crosscheck OK: phase totals match reports within {trace_io.REL_TOL:g}",
        file=out,
    )
    return 0
