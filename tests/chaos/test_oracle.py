"""The raw-storage oracle: every fault named, and its CRC work pinned.

After a clean restore each engine's redundancy check must be silent, and
one fault in any store the oracle reads — a flipped byte in a chunk
packet, a chunk digest, an anchor packet or a gradient-log entry, a
dropped metadata or commit record — must come back as exactly one
violation with its pinned message.  The second half counts
``invariants.verify_chunk`` calls: the prediction plus the redundancy
check of one recovery CRC exactly as many packets as they always have
(the oracle runs inside every fleet episode).
"""

from __future__ import annotations

import pytest

from repro.chaos import invariants
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.core.eccheck import ECCheckConfig
from repro.core.integrity import corrupt_buffer
from repro.core.registry import build_engine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def make_setup(name, interval, **manager_kwargs):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=13,
    )
    engine = build_engine(
        name, job, ECCheckConfig(k=2, m=2, encode_threads=2)
    )
    return job, engine, CheckpointManager(job, engine, interval, **manager_kwargs)


def recovered(name):
    """An engine restored from one lost node, with a replayed log tail on
    the streaming engines; returns it and the restored version."""
    job, engine, manager = make_setup(name, interval=4)
    for _ in range(7):  # saves at iterations 1 and 5, log entries 6 and 7
        job.advance()
        manager.step()
    report = manager.on_failure({1})
    assert report.tier == "memory"
    assert invariants.check_redundancy(engine, report.version, False) == []
    return engine, report.version


# -- faults: each returns the undo ---------------------------------------
def flip(store, node, key):
    corrupt_buffer(store.get(node, key), 0)
    return lambda: corrupt_buffer(store.get(node, key), 0)


def flip_digest(store, node, key):
    digest = store.get(node, key)
    store.put(node, key, digest ^ 1)
    return lambda: store.put(node, key, digest)


def drop(store, node, key):
    value = store.get(node, key)
    store.delete(node, key)
    return lambda: store.put(node, key, value)


def chunk_faults(ec, version):
    plan = ec.placement_of(version)
    data, parity = plan.data_nodes[0], plan.parity_nodes[1]
    return [
        (flip, data, ec.chunk_key(version, "data", 0, 0),
         f"data chunk 0 packet 0 corrupt on node {data}"),
        (flip_digest, parity, ec.digest_key(version, "parity", 1, 1),
         f"parity chunk 1 packet 1 corrupt on node {parity}"),
        (drop, parity, ec.chunk_key(version, "parity", 1, 0),
         f"parity chunk 1 packet 0 missing on node {parity}"),
        (drop, 3, ("meta", version, 5),
         "metadata for worker 5 missing on node 3"),
    ]


def log_faults(engine):
    seq = engine.log.seqs[0]
    worker = engine.job.world_size - 1
    home, buddy = engine.log.entries.replicas(worker)
    return [
        (flip, buddy, ("grad", seq, worker),
         f"log entry seq={seq} worker {worker} delta corrupt on node {buddy}"),
        (flip_digest, home, ("graddig", seq, worker),
         f"log entry seq={seq} worker {worker} delta corrupt on node {home}"),
        (drop, home, ("gradmeta", seq, worker),
         f"log entry seq={seq} worker {worker} delta missing on node {home}"),
        (drop, 2, ("gradcommit", seq),
         f"log entry seq={seq} commit record not on every node"),
    ]


def anchor_faults(engine, version):
    worker = 0
    home, buddy = engine.anchors.replicas(worker)
    label = f"anchor v{version} packet of worker {worker}"
    return [
        (flip, home, ("apkt", version, worker), f"{label} corrupt on node {home}"),
        (flip_digest, buddy, ("adig", version, worker),
         f"{label} corrupt on node {buddy}"),
        (drop, buddy, ("ameta", version, worker), f"{label} missing on node {buddy}"),
        (drop, 1, ("anchor", version), f"anchor v{version} record missing on node 1"),
    ]


def faults_of(name, engine, version):
    if name == "eccheck":
        return chunk_faults(engine, version)
    if name == "hybrid":
        return chunk_faults(engine.inner, version) + log_faults(engine)
    if name == "gradrep":
        return anchor_faults(engine, version) + log_faults(engine)
    assert name == "base3"
    return [
        (drop, 2, ("ckpt", version, 6), "replica of worker 6 missing on node 2"),
    ]


@pytest.mark.parametrize("name", ["eccheck", "base3", "gradrep", "hybrid"])
def test_check_redundancy_names_each_fault(name):
    engine, version = recovered(name)
    for fault, node, key, message in faults_of(name, engine, version):
        undo = fault(engine.host, node, key)
        assert invariants.check_redundancy(engine, version, False) == [message]
        undo()
        assert invariants.check_redundancy(engine, version, False) == []


@pytest.mark.parametrize("name", ["base1", "base2"])
def test_remote_engines_have_no_in_memory_redundancy_to_check(name):
    job, engine, manager = make_setup(name, interval=1)
    job.advance()
    manager.step()
    engine.remote.delete(("ckpt", engine.version, 0))
    assert invariants.check_redundancy(engine, engine.version, False) == []


def test_check_restored_states_names_every_worker_it_cannot_judge():
    job, _, _ = make_setup("eccheck", interval=1)
    reference = job.snapshot_states()
    assert invariants.check_restored_states(job, reference) == []
    del reference[3]
    job.state_dicts[5] = None
    job.state_of(6)["iteration"] += 1
    assert invariants.check_restored_states(job, reference) == [
        "worker 3 has no reference state",
        "worker 5 has no state after recovery",
        "worker 6 state differs from the checkpointed bytes",
    ]


def test_oracle_refuses_an_engine_it_has_no_rule_for():
    _, engine, _ = make_setup("eccheck", interval=1)
    engine.name = "unknown"
    with pytest.raises(ValueError, match="no oracle for engine 'unknown'"):
        invariants.expected_recovery(engine, set())
    assert invariants.check_redundancy(engine, 1, False) == []


# -- CRC work --------------------------------------------------------------
@pytest.fixture
def crcs(monkeypatch):
    calls = [0]
    verify = invariants.verify_chunk

    def counted(*args, **kwargs):
        calls[0] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(invariants, "verify_chunk", counted)
    return calls


def judged_cycle(job, engine, manager, failed, iterations, crcs):
    """Train, predict, restore, check; the oracle's verify_chunk calls."""
    for _ in range(iterations):
        job.advance()
        manager.step()
    before = crcs[0]
    pred = invariants.expected_recovery(engine, failed)
    report = manager.on_failure(failed)
    outcome = "backup" if report.tier == "remote" else report.tier
    assert (pred["outcome"], pred["version"], pred["replayed"]) == (
        outcome,
        report.version,
        report.replayed_iterations,
    )
    assert invariants.check_redundancy(engine, report.version, False) == []
    return outcome, crcs[0] - before


def test_eccheck_oracle_crc_work_is_pinned(crcs):
    """The ledger's four failure patterns, then a loss beyond m that the
    disk tier serves."""
    job, engine, manager = make_setup(
        "eccheck", interval=1, tier_policy=TierPolicy(memory_versions=2)
    )
    data, parity = engine.placement.data_nodes, engine.placement.parity_nodes
    patterns = {
        "parity1": {parity[0]},
        "data1": {data[0]},
        "data2": set(data[:2]),
        "data1_parity1": {data[0], parity[0]},
        "beyond_m": {data[0], data[1], parity[0]},
    }
    work = {
        name: judged_cycle(job, engine, manager, failed, 3, crcs)
        for name, failed in patterns.items()
    }
    assert work == {
        "parity1": ("memory", 28),
        "data1": ("memory", 28),
        "data2": ("memory", 24),
        "data1_parity1": ("memory", 24),
        "beyond_m": ("disk", 40),
    }


@pytest.mark.parametrize(
    "name,work", [("gradrep", (72, 48)), ("hybrid", (76, 52))]
)
def test_streaming_oracle_crc_work_is_pinned(name, work, crcs):
    job, engine, manager = make_setup(name, interval=4)
    first = judged_cycle(job, engine, manager, {1}, 7, crcs)
    second = judged_cycle(job, engine, manager, {0}, 3, crcs)
    assert (first, second) == (("memory", work[0]), ("memory", work[1]))
