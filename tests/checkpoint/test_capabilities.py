"""The typed engine surface: which engine can do what, declared once.

The optional capabilities are structural protocols.  A runtime-checkable
protocol only asks "are these names there?", so a misspelt member would
quietly turn a capability off for every engine; the exact table below
is what catches that.  Callers check a capability once, where they take
the engine, and refuse it there with a typed error.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.base import (
    SupportsRemoteBackup,
    SupportsReplication,
    SupportsTiers,
)
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.checkpoint.tiering import TierPolicy
from repro.core import registry
from repro.core.eccheck import ECCheckConfig
from repro.elastic import ElasticClusterController
from repro.errors import CheckpointError
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.spares import SparePool
from tests.checkpoint.test_manager import BackupOnlyEngine

CAPABILITIES = (SupportsRemoteBackup, SupportsReplication, SupportsTiers)

EXPECTED = {
    "eccheck": {SupportsRemoteBackup, SupportsTiers},
    "base1": set(),
    "base2": set(),
    "base3": set(),
    "gradrep": {SupportsReplication},
    "hybrid": {SupportsRemoteBackup, SupportsReplication},
    "backup-only": {SupportsRemoteBackup},
}


def make_job():
    return TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=3,
    )


def every_engine(job):
    config = ECCheckConfig(k=2, m=2, encode_threads=2)
    engines = [registry.build_engine(name, job, config) for name in registry.engine_names()]
    return engines + [BackupOnlyEngine(job)]


def test_capability_table_is_exact():
    engines = every_engine(make_job())
    assert set(registry.engine_names()) | {"backup-only"} == set(EXPECTED)
    table = {
        engine.name: {cap for cap in CAPABILITIES if isinstance(engine, cap)}
        for engine in engines
    }
    assert table == EXPECTED


@pytest.mark.parametrize(
    "capability,kwargs,missing",
    [
        (SupportsRemoteBackup, {"remote_backup_every": 2}, "has no remote-backup path"),
        (SupportsTiers, {"tier_policy": TierPolicy(memory_versions=1)}, "has no tier API"),
    ],
)
def test_manager_refuses_a_knob_the_engine_cannot_serve(capability, kwargs, missing):
    job = make_job()
    for engine in every_engine(job):
        if capability in EXPECTED[engine.name]:
            CheckpointManager(job, engine, **kwargs)
        else:
            with pytest.raises(CheckpointError, match=missing):
                CheckpointManager(job, engine, **kwargs)


def test_manager_replicates_only_on_a_streaming_engine():
    job = make_job()
    for engine in every_engine(job):
        manager = CheckpointManager(job, engine, interval=3)
        for _ in range(3):
            job.advance()
            manager.step()
        streams = SupportsReplication in EXPECTED[engine.name]
        assert manager.stats.replications == (2 if streams else 0), engine.name


class ReconfigurableRemoteEngine(SyncRemoteEngine):
    """Has a ``reconfigure`` method, yet none of the ECCheck layout the
    elastic controller regroups and repairs."""

    def reconfigure(self, k, m, active_nodes=None, node_of_worker=None):
        return None


def test_elastic_controller_refuses_a_non_eccheck_engine_up_front():
    job = make_job()
    manager = CheckpointManager(job, ReconfigurableRemoteEngine(job), interval=1)
    with pytest.raises(CheckpointError, match="does not support elastic"):
        ElasticClusterController(manager, SparePool(size=1))
