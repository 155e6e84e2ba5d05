"""Tests for rack topology and rack-correlated failure sampling."""

import numpy as np
import pytest

from repro.analysis.grouping import (
    rack_aligned_groups,
    rack_failure_survivable,
    rack_transversal_groups,
)
from repro.errors import ReproError, SimulationError
from repro.parallel.topology import ClusterSpec
from repro.sim.failures import sample_correlated_failures


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
def test_rack_of_and_nodes_of_rack():
    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    assert cluster.num_racks == 2
    assert cluster.rack_of(0) == 0
    assert cluster.rack_of(5) == 1
    assert cluster.nodes_of_rack(1) == [4, 5, 6, 7]


def test_rackless_cluster_is_one_domain():
    cluster = ClusterSpec(4, 2)
    assert cluster.num_racks == 1
    assert cluster.rack_of(3) == 0
    assert cluster.nodes_of_rack(0) == [0, 1, 2, 3]


def test_rack_validation():
    with pytest.raises(ReproError):
        ClusterSpec(8, 1, nodes_per_rack=3)
    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    with pytest.raises(ReproError):
        cluster.rack_of(8)
    with pytest.raises(ReproError):
        cluster.nodes_of_rack(2)


# ---------------------------------------------------------------------------
# Correlated failure sampling
# ---------------------------------------------------------------------------
def test_correlated_sampling_rack_failures_take_whole_racks():
    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    rng = np.random.default_rng(0)
    saw_rack_failure = False
    for _ in range(200):
        failed = sample_correlated_failures(cluster, p_node=0.0, p_rack=0.2, rng=rng)
        if failed:
            saw_rack_failure = True
            # Failures arrive in whole racks only (p_node = 0).
            for rack in range(cluster.num_racks):
                members = set(cluster.nodes_of_rack(rack))
                assert not (failed & members) or members <= failed
    assert saw_rack_failure


def test_correlated_sampling_validation():
    cluster = ClusterSpec(4, 1, nodes_per_rack=2)
    rng = np.random.default_rng(0)
    with pytest.raises(SimulationError):
        sample_correlated_failures(cluster, -0.1, 0.0, rng)
    with pytest.raises(SimulationError):
        sample_correlated_failures(cluster, 0.0, 1.1, rng)


def test_correlated_monte_carlo_transversal_beats_aligned():
    """Under rack-correlated failures, transversal grouping survives far
    more often than aligned grouping at the same (G=2, m=1) redundancy."""
    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    aligned = rack_aligned_groups(cluster, 2)
    transversal = rack_transversal_groups(cluster, 2)
    rng = np.random.default_rng(1)
    survived = {"aligned": 0, "transversal": 0}
    trials = 2000
    for _ in range(trials):
        failed = sample_correlated_failures(cluster, p_node=0.02, p_rack=0.05, rng=rng)
        if rack_failure_survivable(aligned, failed, m=1):
            survived["aligned"] += 1
        if rack_failure_survivable(transversal, failed, m=1):
            survived["transversal"] += 1
    assert survived["transversal"] > survived["aligned"] + trials * 0.03
