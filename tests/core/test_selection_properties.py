"""Property tests for the placement sweep-line and XOR-target selection.

Two optimisation passes decide where checkpoint bytes travel: the
sweep-line data-node pairing (Sec. IV-B1) and the reduction-target choice
(Sec. IV-B2).  Both are checked against brute-force optima on small random
topologies, and both must be deterministic functions of their inputs —
the chaos campaigns rely on a fixed seed replaying byte-for-byte.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import (
    build_data_group,
    max_overlap_pairing_bruteforce,
    max_overlap_pairing_sweepline,
    select_data_parity_nodes,
)
from repro.core.reduction import build_reduction_plan, select_targets_for_group
from tests.core.test_placement import p2p_data_transfer_count


# ----------------------------------------------------------------------
# Topology strategies.


@st.composite
def clusters(draw):
    """(origin_group, k): n nodes x g workers each, k dividing the world."""
    n = draw(st.integers(min_value=2, max_value=6))
    g = draw(st.integers(min_value=1, max_value=4))
    world = n * g
    divisors = [k for k in range(1, n + 1) if world % k == 0]
    k = draw(st.sampled_from(divisors))
    origin = [list(range(i * g, (i + 1) * g)) for i in range(n)]
    return origin, k


@st.composite
def reduction_groups(draw):
    """(workers, m, parity_index_of_worker) for one reduction group."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    workers = draw(
        st.lists(
            st.integers(min_value=0, max_value=31),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    # Each worker lives on some node; a subset of nodes carry parity
    # chunks.  Encode that directly as the worker -> parity-index map the
    # selector consumes (absent workers live on data nodes).
    parity_of = {}
    for worker in workers:
        idx = draw(st.integers(min_value=-1, max_value=m + 1))
        if idx >= 0:
            parity_of[worker] = idx
    return workers, m, parity_of


# ----------------------------------------------------------------------
# Sweep-line placement.


@settings(deadline=None)
@given(clusters())
def test_sweepline_matches_bruteforce_on_random_clusters(cluster):
    origin, k = cluster
    data_group = build_data_group(sum(len(g) for g in origin), k)
    assert max_overlap_pairing_sweepline(
        origin, data_group
    ) == max_overlap_pairing_bruteforce(origin, data_group)


@settings(deadline=None)
@given(clusters())
def test_placement_is_deterministic(cluster):
    origin, k = cluster
    first = select_data_parity_nodes(origin, k)
    second = select_data_parity_nodes([list(g) for g in origin], k)
    assert first.data_nodes == second.data_nodes
    assert first.parity_nodes == second.parity_nodes
    assert first.data_group == second.data_group


@settings(deadline=None)
@given(clusters())
def test_placement_transfer_count_is_optimal(cluster):
    """The greedy pairing moves no more packets than any distinct pairing.

    Brute force: every injective assignment of data groups to nodes.  The
    search space is at most P(6, 6) = 720 assignments per example.
    """
    origin, k = cluster
    plan = select_data_parity_nodes(origin, k)
    greedy = p2p_data_transfer_count(plan, origin)

    from repro.core.placement import PlacementPlan

    world = sum(len(g) for g in origin)
    data_group = build_data_group(world, k)
    best = min(
        p2p_data_transfer_count(
            PlacementPlan(
                data_nodes=list(assignment),
                parity_nodes=[
                    n for n in range(len(origin)) if n not in set(assignment)
                ],
                data_group=data_group,
            ),
            origin,
        )
        for assignment in itertools.permutations(range(len(origin)), k)
    )
    assert greedy == best


# ----------------------------------------------------------------------
# XOR-reduction target selection.


def _p2p_cost(targets, m, parity_of):
    """Parity packets born away from their home node (each costs one hop)."""
    return sum(1 for i in range(m) if parity_of.get(targets[i]) != i)


@settings(deadline=None)
@given(reduction_groups())
def test_target_selection_cost_is_optimal(group):
    """Greedy target choice == brute-force minimum parity-hop cost."""
    workers, m, parity_of = group
    targets = select_targets_for_group(workers, m, parity_of)
    assert len(targets) == m
    assert set(targets) <= set(workers)
    best = min(
        _p2p_cost(assignment, m, parity_of)
        for assignment in itertools.product(workers, repeat=m)
    )
    assert _p2p_cost(targets, m, parity_of) == best


@settings(deadline=None)
@given(reduction_groups())
def test_target_selection_is_deterministic(group):
    workers, m, parity_of = group
    first = select_targets_for_group(list(workers), m, dict(parity_of))
    second = select_targets_for_group(list(workers), m, dict(parity_of))
    assert first == second


@settings(deadline=None)
@given(clusters())
def test_reduction_plan_is_deterministic_and_well_formed(cluster):
    origin, k = cluster
    plan = select_data_parity_nodes(origin, k)
    node_of = {w: node for node, group in enumerate(origin) for w in group}
    first = build_reduction_plan(plan, node_of)
    second = build_reduction_plan(plan, dict(node_of))
    assert [g.targets for g in first.groups] == [g.targets for g in second.groups]
    for group in first.groups:
        assert len(group.workers) == plan.k
        assert len(group.targets) == plan.m
        assert set(group.targets) <= set(group.workers)
