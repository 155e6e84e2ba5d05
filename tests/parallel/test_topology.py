"""Tests for cluster topology."""

import pytest

from repro.errors import ReproError
from repro.parallel.topology import ClusterSpec


def test_world_size():
    assert ClusterSpec(4, 4).world_size == 16


def test_node_of_and_local_rank():
    cluster = ClusterSpec(num_nodes=3, gpus_per_node=2)
    assert cluster.node_of(0) == 0
    assert cluster.node_of(5) == 2
    assert cluster.workers_of(2).index(5) == 1  # local rank


def test_workers_of():
    cluster = ClusterSpec(num_nodes=2, gpus_per_node=4)
    assert cluster.workers_of(1) == [4, 5, 6, 7]


def test_origin_groups_matches_paper_fig9():
    # Fig. 9: 3 nodes x 2 devices -> origin_group = [[0,1],[2,3],[4,5]].
    assert ClusterSpec(3, 2).origin_groups() == [[0, 1], [2, 3], [4, 5]]


def test_same_node():
    cluster = ClusterSpec(2, 2)
    assert cluster.node_of(0) == cluster.node_of(1)
    assert cluster.node_of(1) != cluster.node_of(2)


def test_bounds_checking():
    cluster = ClusterSpec(2, 2)
    with pytest.raises(ReproError):
        cluster.node_of(4)
    with pytest.raises(ReproError):
        cluster.workers_of(2)
    with pytest.raises(ReproError):
        ClusterSpec(0, 4)
    with pytest.raises(ReproError):
        ClusterSpec(4, 0)
