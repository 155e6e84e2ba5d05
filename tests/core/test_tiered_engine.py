"""Tier-stack tests for the ECCheck engine: demotion, promotion,
restore-from-disk after total memory loss, disk GC and remote-backup GC."""

import numpy as np
import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


def make_job(scale=2e-3, seed=11):
    return TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=4),
        strategy=ParallelismSpec(tensor_parallel=4, pipeline_parallel=4),
        scale=scale,
        seed=seed,
    )


@pytest.fixture
def job():
    return make_job()


@pytest.fixture
def engine(job):
    return ECCheckEngine(job, ECCheckConfig(k=2, m=2))


def save_versions(job, engine, count):
    """Advance + save ``count`` times; returns {version: state snapshot}."""
    states = {}
    for _ in range(count):
        job.advance()
        report = engine.save()
        states[report.version] = job.snapshot_states()
    return states


ALL_NODES = {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Demotion
# ---------------------------------------------------------------------------
def test_demote_moves_every_version_key_to_disk(engine, job):
    save_versions(job, engine, 2)
    report = engine.demote_version(1)
    assert report.version == 1
    assert report.bytes_to_disk > 0
    assert report.demote_time > 0
    assert report.breakdown == {"demote_disk_write": report.demote_time}
    assert engine.memory_versions() == [2]
    assert engine.disk_versions() == [1]
    for node in range(4):
        for key in engine.host.keys(node):
            assert not (isinstance(key, tuple) and key[1] == 1), key
    # The disk copy is complete enough to restore from on its own.
    assert engine._whole(1, engine.disk) is not None


def test_demote_refuses_unknown_and_double_demote(engine, job):
    save_versions(job, engine, 2)
    with pytest.raises(CheckpointError):
        engine.demote_version(99)
    engine.demote_version(1)
    with pytest.raises(CheckpointError):
        engine.demote_version(1)


def test_demote_refuses_the_delta_base(engine, job):
    job.advance()
    engine.save()
    job.advance()
    engine.save_incremental()  # the base advances to v2
    assert engine.delta_base_version() == 2
    with pytest.raises(CheckpointError, match="delta base"):
        engine.demote_version(2)
    engine.demote_version(1)  # the superseded base is demotable


def test_demote_refuses_torn_versions(engine, job):
    save_versions(job, engine, 2)
    engine.host.wipe(0)  # part of v1 is gone
    with pytest.raises(CheckpointError, match="intact"):
        engine.demote_version(1)


def test_demotion_decouples_tiers(engine, job):
    """Corrupting the promoted in-memory copy must not rot the disk copy."""
    save_versions(job, engine, 2)
    engine.demote_version(1)
    for node in range(4):
        for key in engine.disk.keys(node):
            if isinstance(key, tuple) and key[0] == "chunk":
                payload = engine.disk.get(node, key)
                assert isinstance(payload, np.ndarray)
    assert engine._whole(1, engine.disk) is not None


# ---------------------------------------------------------------------------
# Restore walks memory -> disk -> remote
# ---------------------------------------------------------------------------
def test_full_memory_wipe_restores_bit_exact_from_disk(engine, job):
    states = save_versions(job, engine, 2)
    engine.demote_version(1)
    # v2 only lives in memory; a full power-cycle loses it.  v1 survives
    # on disk and must come back bit-exact.
    report = engine.restore(ALL_NODES)
    assert report.tier == "disk"
    assert report.version == 1
    assert report.bytes_from_disk > 0
    assert report.breakdown["promote_disk_read"] > 0
    assert report.recovery_time >= report.breakdown["promote_disk_read"]
    for worker, expected in states[1].items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_restore_prefers_newer_memory_over_older_disk(engine, job):
    save_versions(job, engine, 2)
    engine.demote_version(1)
    report = engine.restore(set())  # pure restart, memory intact
    assert report.tier == "memory"
    assert report.version == 2
    assert report.bytes_from_disk == 0


def test_restore_walks_past_torn_disk_version(engine, job):
    states = save_versions(job, engine, 3)
    engine.demote_version(1)
    engine.demote_version(2)
    # Rot one chunk packet of v2 on disk: the digest walk must reject v2
    # and restore v1 instead.
    for node in range(4):
        torn = [
            key
            for key in engine.disk.keys(node)
            if isinstance(key, tuple) and key[0] == "chunk" and key[1] == 2
        ]
        if torn:
            engine.disk.get(node, torn[0])[0] ^= 0xFF
            break
    report = engine.restore(ALL_NODES)
    assert report.tier == "disk"
    assert report.version == 1
    for worker, expected in states[1].items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_restore_falls_back_to_remote_past_disk(engine, job):
    save_versions(job, engine, 1)
    backup_version = engine.save_remote_backup().version
    # Memory and disk both empty-handed: disk never got a demotion.
    report = engine.restore(ALL_NODES)
    assert report.tier == "remote"
    assert report.version == backup_version


def test_restore_refuses_when_every_tier_is_empty(engine, job):
    save_versions(job, engine, 1)
    with pytest.raises(RecoveryError):
        engine.restore(ALL_NODES)


def test_disk_restore_repopulates_memory_tier(engine, job):
    save_versions(job, engine, 2)
    engine.demote_version(1)
    engine.restore(ALL_NODES)  # loses memory-only v2, promotes v1
    # Promotion put the chunks back; a second pure-restart restore now
    # serves the same version from memory.
    report = engine.restore(set())
    assert report.tier == "memory"
    assert report.version == 1


# ---------------------------------------------------------------------------
# Disk GC, replacement wipe, remote GC
# ---------------------------------------------------------------------------
def test_evict_reclaims_disk_bytes(engine, job):
    save_versions(job, engine, 2)
    demoted = engine.demote_version(1).bytes_to_disk
    freed = engine.evict_disk_version(1)
    assert freed == demoted
    assert engine.disk_versions() == []
    assert engine.disk.total_bytes == 0
    assert engine.evict_disk_version(1) == 0  # idempotent


def test_node_replacement_wipes_only_that_disk(engine, job):
    save_versions(job, engine, 2)
    engine.demote_version(1)
    engine.on_node_replaced(0)
    assert engine.disk.node_bytes(0) == 0
    assert engine.disk.total_bytes > 0  # other disks untouched
    assert engine._whole(1, engine.disk) is None


def test_gc_remote_backups_keeps_newest(engine, job):
    last_backup = None
    for _ in range(3):
        job.advance()
        engine.save()
        last_backup = engine.save_remote_backup().version
    reclaimed = engine.gc_remote_backups(keep=1)
    assert reclaimed > 0
    versions = {key[1] for key in engine.remote.keys() if key[0] == "ckpt"}
    assert versions == {last_backup}
    with pytest.raises(CheckpointError):
        engine.gc_remote_backups(keep=0)


# ---------------------------------------------------------------------------
# Manager integration
# ---------------------------------------------------------------------------
def test_manager_applies_tier_policy_each_save(job):
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    manager = CheckpointManager(
        job,
        engine,
        interval=1,
        tier_policy=TierPolicy(memory_versions=1, disk_versions=2),
    )
    for _ in range(4):
        job.advance()
        manager.step()
    assert engine.memory_versions() == [4]
    assert engine.disk_versions() == [2, 3]  # v1 demoted then evicted
    assert manager.stats.demotions == 3
    assert manager.stats.evictions == 1
    assert manager.stats.bytes_to_disk == sum(
        r.bytes_to_disk for r in manager.stats.demote_reports
    )
    assert manager.stats.disk_bytes_evicted > 0


def test_manager_rejects_tier_policy_for_engines_without_tier_api(job):
    from repro.checkpoint.sync_remote import SyncRemoteEngine

    with pytest.raises(CheckpointError, match="tier"):
        CheckpointManager(
            job, SyncRemoteEngine(job), tier_policy=TierPolicy()
        )


def test_manager_full_cycle_restores_from_disk(job):
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    manager = CheckpointManager(
        job,
        engine,
        interval=1,
        tier_policy=TierPolicy(memory_versions=1, disk_versions=4),
    )
    states = {}
    for _ in range(3):
        job.advance()
        manager.step()
        states[engine.version] = job.snapshot_states()
    report = manager.on_failure(ALL_NODES)
    assert report.tier == "disk"
    assert report.version == 2  # v3 was memory-only, v2 newest on disk
    for worker, expected in states[2].items():
        assert state_dicts_equal(job.state_of(worker), expected), worker
