"""Checkpoint engines and storage substrates.

Contains the paper's three baselines and the shared infrastructure every
engine (including ECCheck in :mod:`repro.core.eccheck`) builds on:

* :class:`~repro.checkpoint.job.TrainingJob` — a simulated training job:
  cluster + parallelism + per-worker ``state_dict`` shards with *real*
  tensor bytes (at a configurable materialisation scale) and full-scale
  logical byte accounting.
* :mod:`repro.checkpoint.storage` — volatile per-node host-memory stores
  (wiped on node failure) and durable remote storage.
* **base1** (:class:`~repro.checkpoint.sync_remote.SyncRemoteEngine`) —
  synchronous ``torch.save``-to-remote checkpointing.
* **base2** (:class:`~repro.checkpoint.two_phase.TwoPhaseEngine`) —
  CheckFreq-style snapshot + asynchronous persist.
* **base3** (:class:`~repro.checkpoint.replication.GeminiReplicationEngine`)
  — GEMINI-style grouped in-memory replication.
"""

from repro.checkpoint.job import TrainingJob
from repro.checkpoint.storage import HostMemoryStore, RemoteStorage
from repro.checkpoint.base import CheckpointEngine, RecoveryReport, SaveReport
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.checkpoint.two_phase import TwoPhaseEngine
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.checkpoint.manager import CheckpointManager, ManagerStats

__all__ = [
    "CheckpointManager",
    "ManagerStats",
    "TrainingJob",
    "HostMemoryStore",
    "RemoteStorage",
    "CheckpointEngine",
    "RecoveryReport",
    "SaveReport",
    "SyncRemoteEngine",
    "TwoPhaseEngine",
    "GeminiReplicationEngine",
]
