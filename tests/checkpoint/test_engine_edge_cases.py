"""Edge-case coverage for the baseline engines.

These paths are easy to miss: larger replication groups (the engine's
group size patched from the paper's pairs), repeated save/restore cycles,
and byte accounting.
"""

import pytest

from repro.errors import RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.checkpoint.two_phase import TwoPhaseEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


def verify(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


# ---------------------------------------------------------------------------
# base3 with larger groups
# ---------------------------------------------------------------------------
def make_wide_job(num_nodes=8):
    return TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes, 1),
        ParallelismSpec(pipeline_parallel=num_nodes),
        scale=1e-3,
        seed=67,
    )


@pytest.fixture
def groups_of_four(monkeypatch):
    monkeypatch.setattr(GeminiReplicationEngine, "group_size", 4)


def test_base3_group_of_four_survives_three_failures(groups_of_four):
    job = make_wide_job()
    engine = GeminiReplicationEngine(job)
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    job.fail_nodes({0, 1, 2})  # one survivor (node 3) holds all replicas
    engine.restore({0, 1, 2})
    verify(job, reference)


def test_base3_group_of_four_dies_with_whole_group(groups_of_four):
    job = make_wide_job()
    engine = GeminiReplicationEngine(job)
    engine.save()
    job.fail_nodes({0, 1, 2, 3})
    with pytest.raises(RecoveryError):
        engine.restore({0, 1, 2, 3})


def test_base3_memory_cost_scales_with_group_size(monkeypatch):
    """Each node stores G x its own bytes — the replication overhead the
    paper contrasts with erasure coding."""
    e2 = GeminiReplicationEngine(make_wide_job())
    e2.save()
    monkeypatch.setattr(GeminiReplicationEngine, "group_size", 4)
    e4 = GeminiReplicationEngine(make_wide_job())
    e4.save()
    # Not exactly 2x: node 0's own (embedding-heavy) shard dominates both.
    assert e4.host.node_bytes(0) > 1.3 * e2.host.node_bytes(0)


# ---------------------------------------------------------------------------
# Repeated cycles / accounting
# ---------------------------------------------------------------------------
def test_base2_repeated_save_restore_cycles():
    job = make_wide_job()
    engine = TwoPhaseEngine(job)
    for _ in range(3):
        job.advance()
        engine.save()
        reference = job.snapshot_states()
        job.advance()
        job.fail_nodes({5})
        engine.restore({5})
        verify(job, reference)


def test_save_reports_account_every_writer_byte():
    job = make_wide_job()
    for engine in (SyncRemoteEngine(job), TwoPhaseEngine(job)):
        report = engine.save()
        assert report.bytes_to_remote == job.total_logical_bytes()
    report = GeminiReplicationEngine(job).save()
    assert report.bytes_dtoh == job.total_logical_bytes()
    assert report.bytes_inter_node == job.total_logical_bytes()  # G-1 = 1 copy


def test_advance_dirty_fraction_validation():
    job = make_wide_job()
    from repro.errors import CheckpointError

    with pytest.raises(CheckpointError):
        job.advance(dirty_tensor_fraction=0.0)
    with pytest.raises(CheckpointError):
        job.advance(dirty_tensor_fraction=1.5)
