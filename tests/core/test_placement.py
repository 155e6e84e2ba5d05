"""Tests for sweep-line data/parity node selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardingError
from repro.core.placement import (
    PlacementPlan,
    build_data_group,
    max_overlap_pairing_bruteforce,
    max_overlap_pairing_sweepline,
    select_data_parity_nodes,
)
from repro.parallel.topology import ClusterSpec


def p2p_data_transfer_count(plan: PlacementPlan, origin_group: list[list[int]]) -> int:
    """Data packets that must move during P2P placement.

    Data node ``j`` must end up holding every packet of data group ``j``;
    packets already resident on it move for free.  This is the quantity the
    sweep-line selection minimises (Fig. 9 of the paper).
    """
    moves = 0
    for j, workers in enumerate(plan.data_group):
        resident = set(origin_group[plan.data_nodes[j]])
        moves += sum(1 for w in workers if w not in resident)
    return moves


def test_build_data_group_even_partition():
    assert build_data_group(6, 2) == [[0, 1, 2], [3, 4, 5]]
    assert build_data_group(4, 4) == [[0], [1], [2], [3]]
    with pytest.raises(ShardingError):
        build_data_group(6, 4)
    with pytest.raises(ShardingError):
        build_data_group(6, 0)


def test_paper_fig9_example():
    """Fig. 9: 3 nodes x 2 devices, k=2 -> node 0 and node 2 are data nodes
    (node 1 as parity), giving 6 units of traffic instead of 7."""
    origin = [[0, 1], [2, 3], [4, 5]]
    plan = select_data_parity_nodes(origin, k=2)
    assert plan.data_group == [[0, 1, 2], [3, 4, 5]]
    assert plan.data_nodes == [0, 2]
    assert plan.parity_nodes == [1]
    # Good selection: only 2 data packets need to move (1 per data node).
    assert p2p_data_transfer_count(plan, origin) == 2
    # Bad selection (node 2 as parity, Fig. 9b): 3 packets move.
    bad = PlacementPlan(data_nodes=[0, 1], parity_nodes=[2], data_group=plan.data_group)
    assert p2p_data_transfer_count(bad, origin) == 3


def test_testbed_4x4_k2():
    """Paper testbed: 4 nodes x 4 GPUs, k=m=2. Data groups align exactly
    with node pairs, so zero overlap ambiguity."""
    origin = ClusterSpec(4, 4).origin_groups()
    plan = select_data_parity_nodes(origin, k=2)
    # data_group = [[0..7], [8..15]]; nodes 0 and 2 maximally overlap.
    assert plan.data_nodes == [0, 2]
    assert plan.parity_nodes == [1, 3]


def test_data_nodes_are_distinct():
    origin = ClusterSpec(4, 1).origin_groups()
    plan = select_data_parity_nodes(origin, k=2)
    assert len(set(plan.data_nodes)) == 2
    assert set(plan.data_nodes) | set(plan.parity_nodes) == {0, 1, 2, 3}


def test_k_equals_n_all_nodes_data():
    origin = ClusterSpec(4, 2).origin_groups()
    plan = select_data_parity_nodes(origin, k=4)
    assert sorted(plan.data_nodes) == [0, 1, 2, 3]
    assert plan.parity_nodes == []
    assert p2p_data_transfer_count(plan, origin) == 0


def test_k_out_of_range():
    origin = ClusterSpec(4, 2).origin_groups()
    with pytest.raises(ShardingError):
        select_data_parity_nodes(origin, k=0)
    with pytest.raises(ShardingError):
        select_data_parity_nodes(origin, k=5)


def test_bruteforce_rejects_malformed_intervals():
    with pytest.raises(ShardingError):
        max_overlap_pairing_bruteforce([[0, 2]], [[0, 1, 2]])
    with pytest.raises(ShardingError):
        max_overlap_pairing_bruteforce([], [[0]])
    with pytest.raises(ShardingError):
        max_overlap_pairing_bruteforce([[0], []], [[0]])


def test_sweepline_matches_bruteforce_on_testbed_shapes():
    for n, g in [(4, 4), (3, 2), (8, 2), (6, 3), (5, 4)]:
        origin = ClusterSpec(n, g).origin_groups()
        world = n * g
        for k in range(1, n + 1):
            if world % k:
                continue
            data = build_data_group(world, k)
            assert max_overlap_pairing_sweepline(origin, data) == (
                max_overlap_pairing_bruteforce(origin, data)
            ), (n, g, k)


@given(
    n=st.integers(min_value=1, max_value=12),
    g=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_sweepline_equals_bruteforce_property(n, g, data):
    """Sweep line and brute force agree on arbitrary cluster shapes."""
    origin = ClusterSpec(n, g).origin_groups()
    world = n * g
    divisors = [k for k in range(1, n + 1) if world % k == 0]
    k = data.draw(st.sampled_from(divisors))
    dg = build_data_group(world, k)
    assert max_overlap_pairing_sweepline(origin, dg) == (
        max_overlap_pairing_bruteforce(origin, dg)
    )


@given(
    n=st.integers(min_value=2, max_value=10),
    g=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_selection_minimises_p2p_traffic(n, g):
    """The sweep-line choice never moves more packets than any alternative
    assignment of the same data groups to distinct nodes (optimality)."""
    import itertools

    origin = ClusterSpec(n, g).origin_groups()
    world = n * g
    ks = [k for k in range(1, n + 1) if world % k == 0]
    for k in ks:
        plan = select_data_parity_nodes(origin, k)
        chosen_cost = p2p_data_transfer_count(plan, origin)
        if n <= 7:  # exhaustive check only on small instances
            best = min(
                p2p_data_transfer_count(
                    PlacementPlan(
                        data_nodes=list(assignment),
                        parity_nodes=[x for x in range(n) if x not in assignment],
                        data_group=plan.data_group,
                    ),
                    origin,
                )
                for assignment in itertools.permutations(range(n), k)
            )
            assert chosen_cost == best, (n, g, k)
