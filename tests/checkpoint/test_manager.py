"""Tests for the CheckpointManager lifecycle API."""

import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.base import CheckpointEngine, SaveReport
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


def make_setup(interval=4, **manager_kwargs):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=23,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    manager = CheckpointManager(job, engine, interval=interval, **manager_kwargs)
    return job, engine, manager


def test_first_step_checkpoints_immediately():
    job, engine, manager = make_setup()
    job.advance()
    assert manager.step() is True
    assert engine.version == 1


def test_checkpoints_respect_interval():
    job, engine, manager = make_setup(interval=4)
    took = []
    for _ in range(12):
        job.advance()
        took.append(manager.step())
    # First step checkpoints, then every 4 iterations.
    assert sum(took) == 3
    assert manager.stats.checkpoints == 3
    assert manager.stats.steps == 12


def test_on_failure_restores_and_accounts_lost_iterations():
    job, engine, manager = make_setup(interval=4)
    for _ in range(5):
        job.advance()
        manager.step()  # checkpoints at iteration 1 and 5
    reference = job.snapshot_states()
    job.advance(3)  # iterations 6-8 will be lost
    report = manager.on_failure({0, 3})
    assert report.version == 2
    assert manager.stats.iterations_lost == 3
    assert job.iteration == 5
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_training_resumes_after_recovery():
    job, engine, manager = make_setup(interval=2)
    job.advance()
    manager.step()
    manager.on_failure({1})
    # The manager's clock rewound; stepping further checkpoints again.
    job.advance(2)
    assert manager.step() is True
    assert engine.version >= 2


def test_remote_backup_cadence():
    job, engine, manager = make_setup(interval=1, remote_backup_every=2)
    for _ in range(4):
        job.advance()
        manager.step()
    assert manager.stats.checkpoints == 4
    assert manager.stats.remote_backups == 2
    assert engine.remote.keys()  # backups actually landed in remote storage


def test_remote_backup_rescues_catastrophe_via_manager():
    job, engine, manager = make_setup(interval=1, remote_backup_every=1)
    job.advance()
    manager.step()
    reference = job.snapshot_states()
    job.advance()
    report = manager.on_failure({0, 1, 2})  # > m: falls back to backup
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker
    assert report.bytes_from_remote > 0


class BackupOnlyEngine(CheckpointEngine):
    """Nothing but the base class plus a remote-backup path: the remote GC
    it has is the one ``CheckpointEngine`` defines."""

    name = "backup-only"

    def save(self):
        self.version += 1
        return SaveReport(self.name, self.version, 0.0, 0.0)

    def restore(self, failed_nodes):
        raise RecoveryError("no in-memory redundancy")

    def save_remote_backup(self):
        self.version += 1
        transfer, total = self._persist_all_to_remote(self.version)
        return SaveReport(self.name, self.version, 0.0, transfer, bytes_to_remote=total)


def test_remote_backup_keep_reclaims_bytes_on_a_base_engine():
    """Regression: the manager used to probe ``gc_remote_backups`` with
    ``hasattr`` — always true, the base class defines it — so the call is
    direct now, and a base engine's old backups really are reclaimed."""
    job, _, _ = make_setup()
    engine = BackupOnlyEngine(job)
    assert type(engine).gc_remote_backups is CheckpointEngine.gc_remote_backups
    manager = CheckpointManager(
        job, engine, interval=1, remote_backup_every=1, remote_backup_keep=1
    )
    written = {}
    put = engine.remote.put

    def recording_put(key, blob):
        written[key] = len(blob)
        return put(key, blob)

    engine.remote.put = recording_put
    for _ in range(3):
        job.advance()
        manager.step()
    assert manager.stats.remote_backups == 3
    # One backup stays; everything older was deleted as it aged out.
    assert {key[1] for key in engine.remote.keys()} == {engine.version}
    kept = sum(n for key, n in written.items() if key[1] == engine.version)
    assert engine.remote.total_bytes == kept < sum(written.values())


def test_stats_accumulate():
    job, engine, manager = make_setup(interval=1)
    for _ in range(3):
        job.advance()
        manager.step()
    assert manager.stats.total_stall_s > 0
    assert manager.stats.total_checkpoint_s >= manager.stats.total_stall_s
    assert len(manager.stats.save_reports) == 3


def test_validation():
    job, engine, _ = make_setup()
    with pytest.raises(CheckpointError):
        CheckpointManager(job, engine, interval=0)
    with pytest.raises(CheckpointError):
        CheckpointManager(job, engine, remote_backup_every=-1)
    base1 = SyncRemoteEngine(job)
    with pytest.raises(CheckpointError):
        CheckpointManager(job, base1, remote_backup_every=2)


def test_unrecoverable_failure_propagates():
    job, engine, manager = make_setup(interval=1)
    job.advance()
    manager.step()
    with pytest.raises(RecoveryError):
        manager.on_failure({0, 1, 2})  # no backup configured
