"""Every engine's traced envelope: root spans, sim time, phases, bytes.

One traced save, then the restore of one lost node, per registered
engine.  The root spans must carry the names each engine documents, bill
exactly the report's time, and carry phases that reconcile with the
report breakdowns; ``p2p.bytes_inter_node`` must exist exactly when the
saves moved bytes between nodes.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig
from repro.core.registry import build_engine, engine_names
from repro.obs.trace_io import reconcile_phases
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec

#: ``(save root spans, restore root spans)`` per engine.  The hybrid's
#: save is its inner EC engine's; its restore is the inner restore plus
#: the tail replay.
ROOTS = {
    "eccheck": (["eccheck.save"], ["eccheck.restore"]),
    "base1": (["base1.save"], ["base1.restore"]),
    "base2": (["base2.save"], ["base2.restore"]),
    "base3": (["base3.save"], ["base3.restore"]),
    "gradrep": (["gradrep.save"], ["gradrep.restore"]),
    "hybrid": (["eccheck.save"], ["eccheck.restore", "hybrid.replay"]),
}


def test_the_table_names_every_registered_engine():
    assert sorted(ROOTS) == sorted(engine_names())


@pytest.mark.parametrize("name", engine_names())
def test_traced_save_and_restore_envelope(name):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=3,
    )
    engine = build_engine(name, job, ECCheckConfig(k=2, m=2, encode_threads=2))
    with obs.use_tracer() as tracer:
        job.advance()
        save = engine.save()
        saved_spans = len(tracer.records())
        job.fail_nodes({1})
        restore = engine.restore({1})
    records = tracer.records()
    spans = [r for r in records if r["type"] == "span"]
    save_roots = [
        r for r in records[:saved_spans] if r["type"] == "span" and r["parent"] is None
    ]
    restore_roots = [
        r for r in records[saved_spans:] if r["type"] == "span" and r["parent"] is None
    ]
    save_names, restore_names = ROOTS[name]
    assert [r["name"] for r in save_roots] == save_names
    assert [r["name"] for r in restore_roots] == restore_names
    assert math.isclose(
        sum(r["sim_s"] for r in save_roots), save.checkpoint_time, rel_tol=1e-12
    )
    assert math.isclose(
        sum(r["sim_s"] for r in restore_roots), restore.recovery_time, rel_tol=1e-12
    )

    sections, problems = reconcile_phases(
        spans, {"save": [save.breakdown], "restore": [restore.breakdown]}
    )
    assert problems == []
    assert sections["save"]["traced"] and sections["restore"]["traced"]

    counters = tracer.metrics.snapshot()["counters"]
    moved = save.bytes_inter_node
    assert counters.get("p2p.bytes_inter_node") == (moved or None)
