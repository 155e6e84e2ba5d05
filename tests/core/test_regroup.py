"""Tests for elastic regrouping primitives: equal data groups and
placement over a surviving-node subset."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardingError
from repro.core.placement import build_data_group, regroup_plan
from repro.parallel.topology import ClusterSpec


# ---------------------------------------------------------------------------
# build_data_group
# ---------------------------------------------------------------------------
def test_build_data_group_rejects_bad_k():
    with pytest.raises(ShardingError):
        build_data_group(8, 0)
    with pytest.raises(ShardingError):
        build_data_group(8, 9)
    with pytest.raises(ShardingError):
        build_data_group(8, 3)


@given(
    world=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_partition_covers_workers_in_equal_groups(world, k):
    if k > world or world % k:
        with pytest.raises(ShardingError):
            build_data_group(world, k)
        return
    groups = build_data_group(world, k)
    assert [w for g in groups for w in g] == list(range(world))
    assert {len(g) for g in groups} == {world // k}


# ---------------------------------------------------------------------------
# regroup_plan over a node subset
# ---------------------------------------------------------------------------
def test_regroup_uses_only_active_nodes():
    origin = ClusterSpec(4, 2).origin_groups()
    plan = regroup_plan(origin, [0, 2, 3], k=1)
    assert set(plan.data_nodes) | set(plan.parity_nodes) <= {0, 2, 3}
    assert len(plan.data_nodes) == 1 and len(plan.parity_nodes) == 2
    # Data groups still partition ALL workers, including the dead rank's.
    assert [w for g in plan.data_group for w in g] == list(range(8))


def test_regroup_validates_subset_and_k():
    origin = ClusterSpec(4, 2).origin_groups()
    with pytest.raises(ShardingError):
        regroup_plan(origin, [], k=1)
    with pytest.raises(ShardingError):
        regroup_plan(origin, [0, 0, 2], k=1)
    with pytest.raises(ShardingError):
        regroup_plan(origin, [0, 5], k=1)
    with pytest.raises(ShardingError):
        regroup_plan(origin, [0, 2], k=3)
    # k=3 does not divide 8 workers.
    with pytest.raises(ShardingError):
        regroup_plan(origin, [0, 1, 2, 3], k=3)


@given(
    n=st.integers(min_value=2, max_value=10),
    g=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_every_regroup_keeps_any_m_failures_recoverable(n, g, data):
    """The elastic safety property: for every survivor subset and every
    admissible shrunk (k', m'), the regrouped plan places its k' + m'
    chunks on distinct active nodes and covers every worker — so losing
    any m' further nodes still leaves >= k' chunks, i.e. the version
    stays decodable."""
    from itertools import combinations

    origin = ClusterSpec(n, g).origin_groups()
    world = n * g
    active = sorted(
        data.draw(
            st.sets(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=n,
            )
        )
    )
    ks = [k for k in range(1, len(active) + 1) if world % k == 0]
    k = data.draw(st.sampled_from(ks))
    plan = regroup_plan(origin, active, k)
    m = plan.m
    chunk_nodes = plan.data_nodes + plan.parity_nodes
    # One chunk per active node, no double-hosting.
    assert sorted(chunk_nodes) == active
    # Full worker coverage in order (the reduction plan relies on it).
    assert [w for grp in plan.data_group for w in grp] == list(range(world))
    # Any m' further losses leave >= k' distinct chunk holders.
    lose = min(m, len(active) - 1)
    for lost in combinations(active, lose):
        survivors = set(chunk_nodes) - set(lost)
        assert len(survivors) >= plan.k
