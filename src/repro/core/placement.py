"""Optimal data/parity node selection (paper Sec. IV-B1).

Which nodes become data nodes decides how many checkpoint packets must move
during P2P placement: a data node that already hosts the workers of "its"
data group needs no transfers at all.  The paper formulates this as a
**maximum overlap interval pairing** problem between

* ``origin_group`` — the physical worker intervals per node, and
* ``data_group`` — the logical partition of all workers into ``k``
  equal consecutive groups,

and solves it with a sweep line over interval endpoints.  Both the sweep
line and an O(n*k) brute force are implemented; tests assert they agree on
random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShardingError


def _validate_groups(origin_group: list[list[int]], data_group: list[list[int]]) -> None:
    for name, groups in (("origin_group", origin_group), ("data_group", data_group)):
        if not groups:
            raise ShardingError(f"{name} must be non-empty")
        for interval in groups:
            if not interval:
                raise ShardingError(f"{name} contains an empty interval")
            if interval != list(range(interval[0], interval[-1] + 1)):
                raise ShardingError(
                    f"{name} intervals must be consecutive worker ranges: {interval}"
                )


def _overlap(a: list[int], b: list[int]) -> int:
    """Overlap length of two consecutive-integer intervals."""
    return max(0, min(a[-1], b[-1]) - max(a[0], b[0]) + 1)


def max_overlap_pairing_bruteforce(
    origin_group: list[list[int]], data_group: list[list[int]]
) -> list[int]:
    """For each data interval, the origin index with maximum overlap.

    Ties break toward the lower node index; a node already chosen for an
    earlier data group is skipped so data nodes are distinct.
    """
    _validate_groups(origin_group, data_group)
    chosen: list[int] = []
    used: set[int] = set()
    for data_interval in data_group:
        best_node, best_overlap = -1, -1
        for node, origin_interval in enumerate(origin_group):
            if node in used:
                continue
            overlap = _overlap(origin_interval, data_interval)
            if overlap > best_overlap:
                best_node, best_overlap = node, overlap
        if best_node < 0:
            raise ShardingError("more data groups than available nodes")
        chosen.append(best_node)
        used.add(best_node)
    return chosen


def max_overlap_pairing_sweepline(
    origin_group: list[list[int]], data_group: list[list[int]]
) -> list[int]:
    """Sweep-line solution to the maximum overlap pairing problem.

    A sweep moves left-to-right across all interval endpoints.  Origin
    intervals become *active* at their start event; while a data interval
    is open, every overlapping origin interval accumulates overlap with it.
    At a data interval's end event the best active accumulation wins.
    Complexity O((n + k) log(n + k)) from the event sort, matching the
    paper's stated bound.
    """
    _validate_groups(origin_group, data_group)
    # Events: (coordinate, priority, kind, index).  At equal coordinates,
    # origin-starts (0) come before data events so a just-starting origin
    # interval still counts; data-ends (2) run after data-starts (1).
    events: list[tuple[int, int, str, int]] = []
    for node, interval in enumerate(origin_group):
        events.append((interval[0], 0, "origin_start", node))
        events.append((interval[-1], 3, "origin_end", node))
    for j, interval in enumerate(data_group):
        events.append((interval[0], 1, "data_start", j))
        events.append((interval[-1], 2, "data_end", j))
    events.sort(key=lambda e: (e[0], e[1]))

    active_origins: dict[int, int] = {}  # node -> interval start
    open_data: dict[int, dict[int, int]] = {}  # data idx -> {node: overlap}
    results: list[tuple[int, int] | None] = [None] * len(data_group)
    used: set[int] = set()

    def close_out(j: int, position: int) -> None:
        overlaps = open_data.pop(j)
        # Account overlap of origins still active at the data interval end.
        for node, start in active_origins.items():
            overlaps[node] = overlaps.get(node, 0) + (
                position - max(start, data_group[j][0]) + 1
            )
        best = max(
            (
                (overlap, -node)
                for node, overlap in overlaps.items()
                if node not in used
            ),
            default=None,
        )
        if best is None:
            # Every overlapping origin is already used.  Any unused node
            # serves with zero overlap (ties break low, as in the brute
            # force) — this arises when regrouping over a node subset
            # whose intervals no longer cover every data interval.
            unused = [n for n in range(len(origin_group)) if n not in used]
            if not unused:
                raise ShardingError("more data groups than available nodes")
            best = (0, -min(unused))
        node = -best[1]
        results[j] = (node, best[0])
        used.add(node)

    for position, _, kind, index in events:
        if kind == "origin_start":
            active_origins[index] = position
        elif kind == "data_start":
            open_data[index] = {}
        elif kind == "data_end":
            close_out(index, position)
        else:  # origin_end
            start = active_origins.pop(index)
            for j, overlaps in open_data.items():
                lo = max(start, data_group[j][0])
                if position >= lo:
                    overlaps[index] = overlaps.get(index, 0) + (position - lo + 1)

    assert all(r is not None for r in results)
    return [node for node, _ in results]  # type: ignore[misc]


@dataclass(frozen=True)
class PlacementPlan:
    """The outcome of data/parity node selection.

    Attributes:
        data_nodes: ``data_nodes[j]`` hosts data chunk ``j``.
        parity_nodes: ``parity_nodes[i]`` hosts parity chunk ``i``.
        data_group: the logical worker partition, ``data_group[j]`` being
            the workers whose packets form chunk ``j``.
    """

    data_nodes: list[int]
    parity_nodes: list[int]
    data_group: list[list[int]]

    @property
    def k(self) -> int:
        return len(self.data_nodes)

    @property
    def m(self) -> int:
        return len(self.parity_nodes)

    @property
    def chunks(self) -> list[tuple[str, int, int]]:
        """``(kind, idx, node)`` of every chunk, by chunk id: data first."""
        return [("data", j, node) for j, node in enumerate(self.data_nodes)] + [
            ("parity", i, node) for i, node in enumerate(self.parity_nodes)
        ]


def build_data_group(world_size: int, k: int) -> list[list[int]]:
    """Partition workers into ``k`` equal consecutive groups.

    Equal groups are the paper's layout and what the XOR-reduction plan
    requires; an elastic regroup picks only a ``k'`` that divides the
    world size.

    Raises:
        ShardingError: if ``k`` is out of range or does not divide the
            world size.
    """
    if k < 1 or k > world_size:
        raise ShardingError(
            f"k={k} out of range [1, world size {world_size}]"
        )
    if world_size % k:
        raise ShardingError(
            f"k={k} must divide world size {world_size}"
        )
    size = world_size // k
    return [list(range(j * size, (j + 1) * size)) for j in range(k)]


def select_data_parity_nodes(
    origin_group: list[list[int]], k: int
) -> PlacementPlan:
    """Full placement: sweep-line data-node choice, rest become parity —
    :func:`regroup_plan` over every node.

    Args:
        origin_group: physical worker intervals per node (see
            :meth:`repro.parallel.topology.ClusterSpec.origin_groups`).
        k: number of data nodes; ``m = len(origin_group) - k``.
    """
    return regroup_plan(origin_group, list(range(len(origin_group))), k)


def regroup_plan(
    origin_group: list[list[int]],
    active_nodes: list[int],
    k: int,
) -> PlacementPlan:
    """Placement over a *subset* of nodes, for elastic regrouping.

    After ``f`` node losses with no spare available, checkpointing
    continues on the survivors with a shrunk ``(k', m')``: the data
    groups still partition **all** workers (every worker's packet must
    land in some chunk), but only ``active_nodes`` host chunks.  The
    same max-overlap pairing picks which survivors become data nodes;
    the returned plan's ``data_nodes``/``parity_nodes`` are real node
    ids from ``active_nodes``.

    Args:
        origin_group: the *full* cluster's per-node worker intervals.
        active_nodes: surviving node ids, ascending.
        k: number of data chunks; ``m = len(active_nodes) - k``; must
            divide the world size.

    Raises:
        ShardingError: for an empty/invalid subset, or a ``k`` out of
            range or not dividing the world size.
    """
    if not active_nodes:
        raise ShardingError("active_nodes must be non-empty")
    if sorted(set(active_nodes)) != sorted(active_nodes):
        raise ShardingError(f"active_nodes has duplicates: {active_nodes}")
    for node in active_nodes:
        if not 0 <= node < len(origin_group):
            raise ShardingError(f"active node {node} out of range")
    if not 1 <= k <= len(active_nodes):
        raise ShardingError(f"k={k} out of range [1, {len(active_nodes)}]")
    world_size = sum(len(g) for g in origin_group)
    data_group = build_data_group(world_size, k)
    active_origin = [origin_group[node] for node in active_nodes]
    local = max_overlap_pairing_sweepline(active_origin, data_group)
    data_nodes = [active_nodes[i] for i in local]
    parity_nodes = [n for n in active_nodes if n not in set(data_nodes)]
    return PlacementPlan(
        data_nodes=data_nodes, parity_nodes=parity_nodes, data_group=data_group
    )
