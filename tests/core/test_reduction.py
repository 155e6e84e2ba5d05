"""Tests for reduction groups and XOR-reduction target selection."""

import pytest

from repro.errors import ShardingError
from repro.core.placement import select_data_parity_nodes
from repro.core.reduction import (
    build_reduction_plan,
    select_targets_for_group,
)
from repro.parallel.topology import ClusterSpec


def make_plan(num_nodes, gpus, k):
    cluster = ClusterSpec(num_nodes, gpus)
    placement = select_data_parity_nodes(cluster.origin_groups(), k)
    node_of = {w: cluster.node_of(w) for w in range(cluster.world_size)}
    return placement, node_of, cluster


def test_reduction_group_structure_matches_paper_count():
    """W workers, k data groups -> W/k reduction groups, each of k workers,
    and (W/k)*m total reductions."""
    placement, node_of, cluster = make_plan(4, 4, k=2)
    plan = build_reduction_plan(placement, node_of)
    assert len(plan.groups) == cluster.world_size // 2
    assert all(len(g.workers) == 2 for g in plan.groups)
    assert plan.total_reductions == (cluster.world_size // 2) * 2


def test_reduction_group_members_share_relative_index():
    placement, node_of, _ = make_plan(4, 4, k=2)
    plan = build_reduction_plan(placement, node_of)
    for group in plan.groups:
        for j, worker in enumerate(group.workers):
            assert worker == placement.data_group[j][group.index]


def test_targets_prefer_parity_workers():
    """A reduction group containing a worker on parity node i should make
    that worker the target for parity packet i (no P2P hop)."""
    placement, node_of, _ = make_plan(4, 4, k=2)
    plan = build_reduction_plan(placement, node_of)
    parity_nodes = placement.parity_nodes
    for group in plan.groups:
        for i, target in enumerate(group.targets):
            on_parity_i = [
                w for w in group.workers if node_of[w] == parity_nodes[i]
            ]
            if on_parity_i:
                assert target == on_parity_i[0], (group, i)


def test_all_targets_are_group_members():
    for n, g, k in [(4, 4, 2), (4, 2, 2), (6, 2, 3), (8, 1, 4), (4, 1, 2)]:
        placement, node_of, _ = make_plan(n, g, k)
        plan = build_reduction_plan(placement, node_of)
        for group in plan.groups:
            assert len(group.targets) == plan.m
            assert set(group.targets) <= set(group.workers)


def test_k_equals_m_distinct_targets_without_parity_members():
    """k == m: each of the m results lands on a distinct worker."""
    targets = select_targets_for_group([10, 20], m=2, parity_index_of_worker={})
    assert sorted(targets) == [10, 20]


def test_k_greater_than_m_spreads_by_stride():
    """k > m: targets at stride floor(k/m); k - m workers send nothing."""
    targets = select_targets_for_group([0, 1, 2, 3, 4, 5], m=2, parity_index_of_worker={})
    assert targets == [0, 3]
    targets = select_targets_for_group([0, 1, 2, 3], m=3, parity_index_of_worker={})
    assert len(set(targets)) == 3


def test_k_less_than_m_round_robin():
    """k < m: some workers take multiple targets, balanced round-robin."""
    targets = select_targets_for_group([7, 8], m=5, parity_index_of_worker={})
    assert set(targets) == {7, 8}
    assert abs(targets.count(7) - targets.count(8)) <= 1


def test_parity_preference_combines_with_fill():
    # Worker 9 lives on parity node 1; remaining target(s) picked elsewhere.
    targets = select_targets_for_group(
        [5, 9], m=2, parity_index_of_worker={9: 1}
    )
    assert targets[1] == 9
    assert targets[0] == 5


def test_invalid_group_rejected():
    with pytest.raises(ShardingError):
        select_targets_for_group([], m=1, parity_index_of_worker={})
    with pytest.raises(ShardingError):
        select_targets_for_group([1], m=0, parity_index_of_worker={})


def test_unequal_data_groups_rejected():
    from repro.core.placement import PlacementPlan

    bad = PlacementPlan(
        data_nodes=[0, 1], parity_nodes=[], data_group=[[0, 1], [2]]
    )
    with pytest.raises(ShardingError):
        build_reduction_plan(bad, {0: 0, 1: 0, 2: 1})


def test_communication_volume_formula():
    """(W/k) * m * (k-1) * s, the Sec. V-F XOR-reduction volume."""
    placement, node_of, cluster = make_plan(4, 4, k=2)
    plan = build_reduction_plan(placement, node_of)
    s = 1000
    volume = plan.total_reductions * (plan.k - 1) * s  # (k-1) sends each
    W, k, m = cluster.world_size, 2, 2
    assert volume == (W // k) * m * (k - 1) * s


def test_zero_parity_plan():
    placement, node_of, _ = make_plan(4, 2, k=4)
    plan = build_reduction_plan(placement, node_of)
    assert plan.m == 0
    assert plan.total_reductions == 0
    assert all(g.targets == [] for g in plan.groups)
