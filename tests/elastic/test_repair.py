"""Tests for the repair planner/executor: ledger semantics, epoch-staged
relayouts, crash consistency mid-stream, and resumability."""

import numpy as np
import pytest

from repro.errors import RecoveryError
from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.chaos.invariants import (
    check_eccheck_redundancy,
    check_repair_ledger,
    check_restored_states,
)
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.elastic.repair import (
    REPAIR_CRASH_POINTS,
    RepairExecutor,
    RepairLedger,
    plan_repair,
)
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def make_engine(seed=31):
    job = TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=seed,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2, encode_threads=2))


def degrade_and_resave(job, engine, dead=frozenset({1})):
    """Save, lose ``dead``, regroup shrunk, save again degraded."""
    engine.save()
    active = [n for n in range(4) if n not in dead]
    for rank in dead:
        engine.host.wipe(rank)
    engine.reconfigure(1, len(active) - 1, active_nodes=active)
    job.advance()
    engine.save()
    return engine.version


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------
def test_same_layout_plan_fills_only_gaps():
    job, engine = make_engine()
    engine.save()
    plan = engine.placement
    groups = len(plan.data_group[0])
    wiped = plan.data_nodes[0]
    engine.host.wipe(wiped)
    ledger = plan_repair(engine, 1, plan)
    # Same layout -> storage diff: exactly the wiped node's packets.
    assert ledger.epoch == engine.epoch_of(1) == 0
    assert {(it.node, it.kind, it.idx) for it in ledger.items} == {
        (wiped, "data", 0)
    }
    assert len(ledger.items) == groups


def test_relayout_plan_emits_every_target_packet_into_fresh_epoch():
    job, engine = make_engine()
    version = degrade_and_resave(job, engine)
    target = engine.placement  # the shrunk (1, 2) layout differs from v1's
    ledger = plan_repair(engine, 1, target, generation=3)
    groups = len(target.data_group[0])
    # Chunk keys carry no layout identity, so a relayout must not trust
    # digest-valid bytes already under the target's keys: every packet
    # is ledgered and streamed into the generation's staging epoch.
    assert ledger.epoch == 3
    assert len(ledger.items) == (target.k + target.m) * groups
    del version


# ---------------------------------------------------------------------------
# Execution: commit, epoch flip, stale-chunk collection
# ---------------------------------------------------------------------------
def test_relayout_repair_commits_epoch_and_collects_stale_chunks():
    job, engine = make_engine()
    version = degrade_and_resave(job, engine)
    source = engine.placement_of(version)
    # Spare returns; regroup back to full strength.
    engine.host.wipe(1)
    engine.reconfigure(2, 2, active_nodes=[0, 1, 2, 3])
    target = engine.placement
    ledger = plan_repair(engine, version, target, generation=1)
    report = RepairExecutor(engine, ledger).run()
    assert ledger.committed and ledger.complete
    assert engine.placement_of(version) == target
    assert engine.epoch_of(version) == 1
    assert report.items_repaired == len(ledger.items)
    assert check_eccheck_redundancy(engine, version) == []
    # The superseded layout's epoch-0 packets were garbage-collected.
    groups = len(source.data_group[0])
    for j, node in enumerate(source.data_nodes):
        for r in range(groups):
            key = engine.chunk_key(version, "data", j, r, epoch=0)
            assert not engine.host.contains(node, key)


def test_repaired_version_restores_bit_exact():
    job, engine = make_engine()
    states = {1: None}
    engine.save()
    states[1] = job.snapshot_states()
    job.fail_nodes({1})
    engine.restore({1})
    engine.host.wipe(1)
    engine.reconfigure(1, 2, active_nodes=[0, 2, 3])
    # Replacement arrives; repair v1 into the restored full layout.
    engine.host.wipe(1)
    engine.reconfigure(2, 2, active_nodes=[0, 1, 2, 3])
    ledger = plan_repair(engine, 1, engine.placement, generation=1)
    RepairExecutor(engine, ledger).run()
    job.fail_nodes({0, 2})  # m = 2 losses against the repaired layout
    report = engine.restore({0, 2})
    assert report.version == 1
    assert not check_restored_states(job, states[1])


def test_repair_refuses_below_k_survivors():
    job, engine = make_engine()
    engine.save()
    plan = engine.placement
    for node in plan.data_nodes:
        engine.host.wipe(node)
    engine.host.wipe(plan.parity_nodes[0])
    ledger = plan_repair(engine, 1, plan)
    with pytest.raises(RecoveryError):
        RepairExecutor(engine, ledger).run()


# ---------------------------------------------------------------------------
# Crash consistency and resume
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("point", REPAIR_CRASH_POINTS)
def test_crash_leaves_sound_ledger_and_source_layout_whole(point):
    job, engine = make_engine()
    version = degrade_and_resave(job, engine)
    states = job.snapshot_states()
    engine.host.wipe(1)
    engine.reconfigure(2, 2, active_nodes=[0, 1, 2, 3])
    ledger = plan_repair(engine, version, engine.placement, generation=1)
    # mid_stream fires per packet; the two bracketing points fire once.
    after = 4 if point == "mid_stream" else 0
    injector = CrashInjector(CrashPlan(point=point, after=after))
    with pytest.raises(InjectedCrash):
        RepairExecutor(engine, ledger, injector).run()
    assert not ledger.committed
    # Marked-implies-durable holds at every crash point...
    assert check_repair_ledger(ledger, engine, version) == []
    # ...and the source layout's authoritative bytes are untouched: the
    # staged epoch-1 packets alias nothing, so a further failure still
    # restores the degraded layout bit-exact.
    assert engine.epoch_of(version) == 0
    report = engine.restore(set())
    assert report.version == version
    assert not check_restored_states(job, states)


def test_crashed_repair_resumes_without_redoing_done_items():
    job, engine = make_engine()
    version = degrade_and_resave(job, engine)
    engine.host.wipe(1)
    engine.reconfigure(2, 2, active_nodes=[0, 1, 2, 3])
    target = engine.placement
    ledger = plan_repair(engine, version, target, generation=1)
    injector = CrashInjector(CrashPlan(point="mid_stream", after=4))
    with pytest.raises(InjectedCrash):
        RepairExecutor(engine, ledger, injector).run()
    done_before = set(ledger.done)
    # The crash hit between the 5th store and its mark: 4 marked, and
    # the 5th packet is durable-but-unmarked (redone safely on resume).
    assert len(done_before) == 4
    report = RepairExecutor(engine, ledger).run()
    # Resume streamed only the remainder; the ledger's done set is the
    # dedup record, not a storage re-diff.
    assert report.items_repaired == len(ledger.items) - len(done_before)
    assert ledger.committed and ledger.complete
    assert engine.placement_of(version) == target
    assert check_eccheck_redundancy(engine, version) == []


def test_ledger_mark_done_bounds():
    ledger = RepairLedger(version=1, generation=0, target_plan=None, items=[])
    with pytest.raises(RecoveryError):
        ledger.mark_done(0)
