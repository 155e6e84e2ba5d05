"""Tests for the hybrid parallelism layout."""

import pytest

from repro.errors import ShardingError
from repro.parallel.strategy import ParallelismSpec, RankCoords
from repro.parallel.topology import ClusterSpec


def worker_of(spec: ParallelismSpec, coords: RankCoords) -> int:
    """The inverse of ``coords_of``: TP varies fastest, then PP."""
    return coords.tp_rank + coords.pp_rank * spec.tensor_parallel


def test_world_size_is_product():
    spec = ParallelismSpec(tensor_parallel=4, pipeline_parallel=4)
    assert spec.world_size == 16


def test_coords_round_trip():
    spec = ParallelismSpec(tensor_parallel=2, pipeline_parallel=3)
    for worker in range(spec.world_size):
        assert worker_of(spec, spec.coords_of(worker)) == worker


def test_tp_varies_fastest():
    spec = ParallelismSpec(tensor_parallel=4, pipeline_parallel=4)
    assert spec.coords_of(0) == RankCoords(0, 0)
    assert spec.coords_of(1) == RankCoords(1, 0)
    assert spec.coords_of(4) == RankCoords(0, 1)


def test_paper_testbed_tp_groups_on_one_node():
    """TP=4 on 4-GPU nodes: each TP group is exactly one node's GPUs."""
    cluster = ClusterSpec(num_nodes=4, gpus_per_node=4)
    spec = ParallelismSpec(tensor_parallel=4, pipeline_parallel=4)
    spec.validate_cluster(cluster)
    for worker in range(16):
        c = spec.coords_of(worker)
        group = [
            worker_of(spec, RankCoords(tp, c.pp_rank))
            for tp in range(spec.tensor_parallel)
        ]
        nodes = {cluster.node_of(w) for w in group}
        assert len(nodes) == 1


def test_pp_group_spans_stages():
    spec = ParallelismSpec(tensor_parallel=4, pipeline_parallel=4)
    stages = [worker_of(spec, RankCoords(0, pp)) for pp in range(4)]
    assert stages == [0, 4, 8, 12]


def test_validate_cluster_mismatch():
    with pytest.raises(ShardingError):
        ParallelismSpec(tensor_parallel=4).validate_cluster(ClusterSpec(4, 4))


def test_invalid_degrees():
    with pytest.raises(ShardingError):
        ParallelismSpec(tensor_parallel=0)


def test_worker_out_of_range():
    with pytest.raises(ShardingError):
        ParallelismSpec(tensor_parallel=2).coords_of(2)
