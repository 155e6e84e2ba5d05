"""Tests for the engine-side elastic surface: reconfigure, per-version
placements, and epoch-tagged chunk keys."""

import pytest

from repro.errors import CheckpointError
from repro.chaos.invariants import check_restored_states
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def make_engine(seed=17):
    job = TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=seed,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2, encode_threads=2))


# ---------------------------------------------------------------------------
# reconfigure
# ---------------------------------------------------------------------------
def test_reconfigure_validates_shape():
    job, engine = make_engine()
    with pytest.raises(CheckpointError):
        engine.reconfigure(2, 2, active_nodes=[0, 1, 2])  # k+m != active
    with pytest.raises(CheckpointError):
        engine.reconfigure(3, 1)  # 3 does not divide world 8
    with pytest.raises(CheckpointError):
        engine.reconfigure(0, 4)
    with pytest.raises(CheckpointError):
        engine.reconfigure(1, -1, active_nodes=[0])
    with pytest.raises(CheckpointError):
        engine.reconfigure(1, 0, active_nodes=[])


def test_reconfigure_reschedules_dead_ranks_workers():
    job, engine = make_engine()
    engine.reconfigure(1, 2, active_nodes=[0, 2, 3])
    assert engine.active_nodes == [0, 2, 3]
    assert (engine.config.k, engine.config.m) == (1, 2)
    # Rank 1's workers are hosted round-robin on survivors; workers of
    # live ranks keep their home.
    for w in range(job.world_size):
        host = engine.node_hosting(w)
        assert host in {0, 2, 3}
        if job.node_of(w) != 1:
            assert host == job.node_of(w)


def test_old_versions_keep_their_placement_across_regroups():
    job, engine = make_engine()
    engine.save()
    old_plan = engine.placement
    engine.reconfigure(1, 2, active_nodes=[0, 2, 3])
    job.advance()
    engine.save()
    assert engine.placement_of(1) == old_plan
    assert engine.placement_of(2) == engine.placement
    assert engine.placement_of(2) != old_plan


def test_degraded_save_restores_bit_exact_from_survivors():
    job, engine = make_engine()
    engine.save()
    job.fail_nodes({1})
    engine.restore({1})
    engine.host.wipe(1)
    engine.reconfigure(1, 2, active_nodes=[0, 2, 3])
    job.advance()
    engine.save()
    states = job.snapshot_states()
    # Lose m'=2 of the 3 actives; the degraded layout must still decode.
    job.fail_nodes({0, 3})
    report = engine.restore({0, 3})
    assert report.version == 2
    assert not check_restored_states(job, states)


# ---------------------------------------------------------------------------
# Epoch-tagged chunk keys
# ---------------------------------------------------------------------------
def test_epoch_zero_keys_match_legacy_format():
    job, engine = make_engine()
    assert engine.epoch_of(1) == 0
    # Save-time writes use the bare 5-tuple every pre-elastic consumer
    # (and on-disk trace) expects.
    assert engine.chunk_key(1, "data", 0, 2) == ("chunk", 1, "data", 0, 2)
    assert engine.digest_key(1, "parity", 1, 0) == ("digest", 1, "parity", 1, 0)


def test_positive_epoch_suffixes_keys():
    job, engine = make_engine()
    assert engine.chunk_key(1, "data", 0, 2, epoch=3) == (
        "chunk", 1, "data", 0, 2, 3,
    )
    # Defaulting follows the version's committed epoch.
    engine.commit_repair(1, engine.placement, 3, [])
    assert engine.epoch_of(1) == 3
    assert engine.chunk_key(1, "data", 0, 2) == ("chunk", 1, "data", 0, 2, 3)
    # Other versions are unaffected.
    assert engine.epoch_of(2) == 0
    assert engine.chunk_key(2, "data", 0, 2) == ("chunk", 2, "data", 0, 2)


def test_commit_repair_collects_only_a_superseded_epoch():
    job, engine = make_engine()
    engine.save()
    records, _ = engine.decodable(1, range(4))
    node = engine.placement.data_nodes[0]
    engine.commit_repair(1, engine.placement, 0, records)  # same epoch: kept
    assert engine.epoch_of(1) == 0
    assert engine.host.contains(node, ("chunk", 1, "data", 0, 0))
    engine.commit_repair(1, engine.placement, 2, records)
    assert engine.epoch_of(1) == 2
    assert not engine.host.contains(node, ("chunk", 1, "data", 0, 0))
    assert engine.host.contains(node, ("meta", 1, 0))


def test_save_writes_under_the_bare_epoch_zero_keys():
    job, engine = make_engine()
    engine.save()
    plan = engine.placement
    node = plan.data_nodes[0]
    assert engine.host.contains(node, ("chunk", 1, "data", 0, 0))
    assert engine.host.contains(node, ("digest", 1, "data", 0, 0))
