"""Tests for base1/base2/base3 checkpoint engines: real-byte round trips,
failure semantics, and the timing shapes the paper's figures rely on."""

import pytest

from repro.errors import CheckpointError, DecodeError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.checkpoint.two_phase import TwoPhaseEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal
from tests.core.test_save_bytes import make_testbed


def verify_full_restore(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


# ---------------------------------------------------------------------------
# base1
# ---------------------------------------------------------------------------
def test_base1_save_then_restore_all_nodes_failed(testbed_job):
    engine = SyncRemoteEngine(testbed_job)
    engine.save()
    reference = testbed_job.snapshot_states()
    testbed_job.fail_nodes({0, 1, 2, 3})  # total cluster loss
    report = engine.restore({0, 1, 2, 3})
    verify_full_restore(testbed_job, reference)
    assert report.bytes_from_remote == testbed_job.total_logical_bytes()


def test_base1_stall_equals_checkpoint_time(testbed_job):
    report = SyncRemoteEngine(testbed_job).save()
    assert report.stall_time == report.checkpoint_time
    assert report.bytes_to_remote == testbed_job.total_logical_bytes()


def test_base1_checkpoint_time_dominated_by_remote_pipe(testbed_job):
    from repro.sim.network import gbps

    report = SyncRemoteEngine(testbed_job).save()
    floor = testbed_job.total_logical_bytes() / gbps(
        testbed_job.time_model.remote_storage_gbps
    )
    assert report.checkpoint_time >= floor
    assert report.breakdown["transfer_remote"] > report.breakdown["serialize"]


def test_base1_restores_latest_version(testbed_job):
    engine = SyncRemoteEngine(testbed_job)
    engine.save()
    testbed_job.advance()
    engine.save()
    reference = testbed_job.snapshot_states()
    testbed_job.advance()  # progress past the checkpoint, then crash
    testbed_job.fail_nodes({0})
    engine.restore({0})
    verify_full_restore(testbed_job, reference)


def test_restore_without_checkpoint_raises(testbed_job):
    engine = SyncRemoteEngine(testbed_job)
    with pytest.raises(CheckpointError):
        engine.restore(set())


# ---------------------------------------------------------------------------
# base2
# ---------------------------------------------------------------------------
def test_base2_stall_is_snapshot_only(testbed_job):
    report = TwoPhaseEngine(testbed_job).save()
    assert report.stall_time < 0.1 * report.checkpoint_time
    assert report.breakdown["snapshot_dtoh"] == report.stall_time
    assert report.bytes_dtoh == testbed_job.total_logical_bytes()


def test_base2_checkpoint_consistent_despite_training_progress(testbed_job):
    """Training advances during the async persist; the checkpoint must
    reflect the snapshot instant, not the later live state."""
    engine = TwoPhaseEngine(testbed_job)
    reference = testbed_job.snapshot_states()
    engine.save()
    testbed_job.advance(2)  # progress that must NOT leak into the checkpoint
    testbed_job.fail_nodes({0, 1, 2, 3})
    engine.restore({0, 1, 2, 3})
    verify_full_restore(testbed_job, reference)


def test_base2_checkpoint_time_close_to_base1(testbed_job):
    """base2 hides the stall but not the total persist latency."""
    base1 = SyncRemoteEngine(testbed_job).save()
    base2 = TwoPhaseEngine(testbed_job).save()
    assert base2.checkpoint_time == pytest.approx(base1.checkpoint_time, rel=0.2)
    assert base2.stall_time < 0.05 * base1.stall_time


def test_base2_breakdown_reconciles_along_the_critical_request(testbed_job):
    """The persist phases are attributed along the request whose flow
    finishes last, so the breakdown must sum exactly to checkpoint_time —
    the old ``makespan - stall - max(serialize)`` split broke this
    identity whenever the longest-serializing worker was not the one
    whose transfer finished last."""
    report = TwoPhaseEngine(testbed_job).save()
    breakdown = report.breakdown
    assert breakdown["serialize"] >= 0.0
    assert breakdown["transfer_remote"] > 0.0
    assert (
        breakdown["snapshot_dtoh"]
        + breakdown["serialize"]
        + breakdown["transfer_remote"]
    ) == pytest.approx(report.checkpoint_time, rel=1e-12)


def test_base2_save_with_no_writers_does_not_raise(testbed_job, monkeypatch):
    """Regression: an empty writer set used to crash on ``max()`` over
    the empty serialize-time sequence; now it degenerates to a free
    checkpoint."""
    engine = TwoPhaseEngine(testbed_job)
    monkeypatch.setattr(TrainingJob, "world_size", property(lambda self: 0))
    report = engine.save()
    assert report.version == 1
    assert report.stall_time == 0.0
    assert report.checkpoint_time == 0.0
    assert report.breakdown == {
        "snapshot_dtoh": 0.0,
        "serialize": 0.0,
        "transfer_remote": 0.0,
    }
    assert report.bytes_dtoh == 0
    assert report.bytes_to_remote == 0


# ---------------------------------------------------------------------------
# base3
# ---------------------------------------------------------------------------
def test_base3_groups_paper_testbed(testbed_job):
    engine = GeminiReplicationEngine(testbed_job)
    assert engine.groups() == [[0, 1], [2, 3]]
    assert engine.group_of(3) == [2, 3]


def test_base3_group_size_validation():
    """Pairs must tile the cluster: an odd node count is refused."""
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(3, 1),
        ParallelismSpec(pipeline_parallel=3),
        scale=1e-3,
    )
    with pytest.raises(CheckpointError):
        GeminiReplicationEngine(job)


def test_base3_save_replicates_within_group(testbed_job):
    engine = GeminiReplicationEngine(testbed_job)
    engine.save()
    # Node 1 must hold node 0's workers' snapshots and vice versa.
    for worker in [0, 1, 2, 3]:
        assert engine.host.contains(1, ("ckpt", 1, worker))
    for worker in [4, 5, 6, 7]:
        assert engine.host.contains(0, ("ckpt", 1, worker))
    # But not across groups.
    assert not engine.host.contains(2, ("ckpt", 1, 0))


def test_base3_recovers_one_failure_per_group(testbed_job):
    engine = GeminiReplicationEngine(testbed_job)
    engine.save()
    reference = testbed_job.snapshot_states()
    testbed_job.advance()
    testbed_job.fail_nodes({1, 3})  # one per group: recoverable
    report = engine.restore({1, 3})
    verify_full_restore(testbed_job, reference)
    assert report.bytes_inter_node > 0


def test_base3_cannot_recover_two_failures_in_one_group(testbed_job):
    """The Fig. 13b scenario: both members of one group fail."""
    engine = GeminiReplicationEngine(testbed_job)
    engine.save()
    testbed_job.fail_nodes({2, 3})
    with pytest.raises(RecoveryError):
        engine.restore({2, 3})


def test_base3_restores_redundancy_after_recovery(testbed_job):
    engine = GeminiReplicationEngine(testbed_job)
    engine.save()
    testbed_job.fail_nodes({0})
    report = engine.restore({0})
    # The replaced node holds its peer's replicas again.
    for worker in [4, 5, 6, 7]:
        assert engine.host.contains(0, ("ckpt", 1, worker))
    assert report.restore_redundancy_time > 0


def test_base3_much_faster_than_remote_baselines(testbed_job):
    """The headline in-memory vs remote gap (Fig. 10)."""
    base1 = SyncRemoteEngine(testbed_job).save()
    base3 = GeminiReplicationEngine(testbed_job).save()
    assert base3.checkpoint_time < base1.checkpoint_time / 5


def test_base3_recovery_faster_than_remote(testbed_job):
    base1 = SyncRemoteEngine(testbed_job)
    base3 = GeminiReplicationEngine(testbed_job)
    base1.save()
    base3.save()
    reference = testbed_job.snapshot_states()

    testbed_job.fail_nodes({1})
    r3 = base3.restore({1})
    verify_full_restore(testbed_job, reference)

    testbed_job.fail_nodes({1})
    r1 = base1.restore({1})
    verify_full_restore(testbed_job, reference)
    assert r3.recovery_time < r1.recovery_time / 5


# ---------------------------------------------------------------------------
# The remote-tier install is all or nothing
# ---------------------------------------------------------------------------
def rot_last_remote_blob(engine, version):
    """Truncate the last writer's blob of ``version``; returns that writer."""
    worker = engine.job.world_size - 1
    blob = engine.remote.get(("ckpt", version, worker))
    engine.remote.put(("ckpt", version, worker), blob[: len(blob) // 2])
    return worker


def assert_refused_whole(engine, failed, version, worker):
    job = engine.job
    job.fail_nodes(failed)
    before = dict(job.state_dicts)
    with pytest.raises(DecodeError, match=f"v{version} of worker {worker}"):
        engine.restore(failed)
    assert all(job.state_dicts[w] is before[w] for w in before), "installed on a refusal"


def test_base1_rotten_blob_of_the_last_writer_is_refused_whole():
    job, _ = make_testbed()
    engine = SyncRemoteEngine(job)
    engine.save()
    worker = rot_last_remote_blob(engine, 1)
    assert job.world_size == 8
    assert_refused_whole(engine, {0}, 1, worker)


def test_eccheck_backup_fallback_rotten_blob_is_refused_whole():
    job, engine = make_testbed()
    engine.save_remote_backup()
    worker = rot_last_remote_blob(engine, 1)
    assert_refused_whole(engine, {0, 1, 2}, 1, worker)  # > m: only the backup is left
