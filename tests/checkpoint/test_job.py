"""Tests for the TrainingJob substrate."""

import pytest

from repro.errors import CheckpointError, ShardingError
from repro.checkpoint.job import TrainingJob
from repro.models.config import CheckpointSizeModel
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


def test_create_materialises_all_workers(testbed_job):
    assert set(testbed_job.state_dicts) == set(range(16))
    assert all(s is not None for s in testbed_job.state_dicts.values())


def test_create_by_name_and_config_agree():
    from repro.models.config import get_model_config

    a = TrainingJob.create(
        "gpt2-h1024-L16", ClusterSpec(2, 2), ParallelismSpec(2, 2), scale=1e-3
    )
    b = TrainingJob.create(
        get_model_config("gpt2-h1024-L16"),
        ClusterSpec(2, 2),
        ParallelismSpec(2, 2),
        scale=1e-3,
    )
    assert a.model is b.model


def test_create_rejects_mismatched_strategy():
    with pytest.raises(ShardingError):
        TrainingJob.create(
            "gpt2-h1024-L16", ClusterSpec(2, 2), ParallelismSpec(4, 4)
        )


def test_logical_bytes_track_shard_parameters(testbed_job):
    for worker in range(16):
        expected = int(
            testbed_job.shards[worker].parameter_count()
            * CheckpointSizeModel.bytes_per_parameter
        )
        assert testbed_job.logical_shard_bytes(worker) == expected
    assert testbed_job.total_logical_bytes() == sum(
        testbed_job.logical_shard_bytes(w) for w in range(16)
    )


def test_node_logical_bytes_sums_workers(testbed_job):
    node0 = sum(testbed_job.logical_shard_bytes(w) for w in [0, 1, 2, 3])
    assert testbed_job.node_logical_bytes(0) == node0


def test_advance_changes_state_and_iteration(testbed_job):
    before = testbed_job.snapshot_states()
    testbed_job.advance(3)
    assert testbed_job.iteration == 3
    after = testbed_job.state_of(0)
    assert after["iteration"] == 3
    assert not state_dicts_equal(before[0], after)


def test_advance_rejects_nonpositive(testbed_job):
    with pytest.raises(CheckpointError):
        testbed_job.advance(0)


def test_fail_nodes_loses_worker_state(testbed_job):
    testbed_job.fail_nodes({1})
    lost = [w for w, state in testbed_job.state_dicts.items() if state is None]
    assert lost == [4, 5, 6, 7]
    with pytest.raises(CheckpointError):
        testbed_job.state_of(4)
    # Other workers unaffected.
    assert testbed_job.state_of(0) is not None


def test_fail_nodes_validates_range(testbed_job):
    with pytest.raises(ShardingError):
        testbed_job.fail_nodes({9})


def test_snapshot_states_are_deep_copies(testbed_job):
    snap = testbed_job.snapshot_states()
    testbed_job.advance()
    assert not state_dicts_equal(snap[0], testbed_job.state_of(0))
