"""Long-horizon integration: repeated training, checkpoints, failures.

These tests exercise the full stack across many checkpoint versions and
failure injections — the closest thing to running the system in anger.
"""

import numpy as np
import pytest

from repro.errors import RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.failures import sample_node_failures
from repro.tensors.state_dict import state_dicts_equal


def make_job(seed=0, scale=5e-4):
    return TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=scale,
        seed=seed,
    )


def verify(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_training_loop_with_random_failures_over_many_rounds():
    """20 rounds of train/save with randomly injected <= m failures; every
    recovery must land exactly on the latest checkpoint."""
    job = make_job(seed=3)
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    rng = np.random.default_rng(42)
    recoveries = 0
    for round_index in range(20):
        job.advance()
        engine.save()
        reference = job.snapshot_states()
        failed = sample_node_failures(4, 0.25, rng)
        if not failed or len(failed) > 2:
            continue
        job.advance()  # work that will be rolled back
        job.fail_nodes(failed)
        engine.restore(failed)
        verify(job, reference)
        recoveries += 1
    assert recoveries >= 3  # the trace actually exercised recovery


def test_checkpoint_versions_are_independent():
    """Restoring after several saves must not mix bytes across versions."""
    job = make_job(seed=5)
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    snapshots = {}
    for _ in range(4):
        job.advance()
        engine.save()
        snapshots[engine.version] = job.snapshot_states()
    job.fail_nodes({1, 2})
    engine.restore({1, 2})
    verify(job, snapshots[4])  # latest version wins
    assert job.state_of(0)["iteration"] == 4


def test_back_to_back_failures_different_nodes():
    """Fail, recover, fail different nodes, recover — redundancy must be
    fully re-established between incidents."""
    job = make_job(seed=7)
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    for failed in ({0, 1}, {2, 3}, {0, 2}, {1, 3}):
        job.advance()
        job.fail_nodes(failed)
        engine.restore(failed)
        verify(job, reference)


def test_all_engines_restore_identical_state():
    """Every engine, fed the same training state, restores the same bytes."""
    reference = None
    for factory in (
        lambda j: SyncRemoteEngine(j),
        lambda j: GeminiReplicationEngine(j),
        lambda j: ECCheckEngine(j, ECCheckConfig(k=2, m=2)),
    ):
        job = make_job(seed=11)
        job.advance(2)
        engine = factory(job)
        engine.save()
        snapshot = job.snapshot_states()
        if reference is None:
            reference = snapshot
        else:
            for worker in reference:
                assert state_dicts_equal(reference[worker], snapshot[worker])
        job.fail_nodes({1})
        engine.restore({1})
        verify(job, reference)


def test_catastrophic_failure_then_backup_cycle():
    """> m failures -> remote backup restore -> training continues -> new
    in-memory checkpoints work again."""
    job = make_job(seed=17)
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    job.advance()
    engine.save_remote_backup()
    backup_reference = job.snapshot_states()
    job.advance()
    engine.save()
    job.fail_nodes({0, 1, 2})
    engine.restore({0, 1, 2})   # falls back to the backup
    verify(job, backup_reference)
    # The system keeps working after the fallback.
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.fail_nodes({3})
    engine.restore({3})
    verify(job, reference)


def test_unrecoverable_without_backup_leaves_clear_error():
    job = make_job(seed=19)
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    engine.save()
    job.fail_nodes({0, 1, 2})
    with pytest.raises(RecoveryError, match="exceed"):
        engine.restore({0, 1, 2})
