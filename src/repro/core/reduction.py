"""Reduction groups and XOR-reduction target selection (paper Sec. IV-B2).

With ``W`` workers split into ``k`` data groups of ``W/k`` workers, the
workers sharing the same relative index across data groups form a
*reduction group*; each reduction group performs ``m`` XOR reductions, one
per parity chunk, so ``(W/k) * m`` reductions happen per checkpoint.

The *target* of a reduction (the worker that accumulates the XOR result)
is free to choose, and choosing well kills P2P traffic: if the target is a
worker on parity node ``i``, parity packet ``i`` is born exactly where it
must live.  For reduction groups containing no parity workers, the paper
distributes targets across the group's ``k`` workers depending on the
relation between ``k`` and ``m``:

* ``k == m`` — one target per worker;
* ``k > m``  — targets every ``floor(k/m)``-th worker, leaving ``k - m``
  workers free of P2P sends;
* ``k < m``  — round-robin, so some workers take multiple targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShardingError
from repro.core.placement import PlacementPlan


@dataclass(frozen=True)
class ReductionGroup:
    """One reduction group: ``k`` workers and their ``m`` reduction targets.

    Attributes:
        index: relative worker index within each data group.
        workers: ``workers[j]`` is the member from data group ``j``.
        targets: ``targets[i]`` accumulates parity packet ``i``.
    """

    index: int
    workers: list[int]
    targets: list[int]


@dataclass
class ReductionPlan:
    """All reduction groups of one checkpoint round."""

    groups: list[ReductionGroup]
    k: int
    m: int

    @property
    def total_reductions(self) -> int:
        """The paper's (W/k) * m reduction-operation count."""
        return len(self.groups) * self.m

def select_targets_for_group(
    workers: list[int],
    m: int,
    parity_index_of_worker: dict[int, int],
) -> list[int]:
    """Choose the target worker for each of the group's ``m`` reductions.

    Args:
        workers: the group's ``k`` members (one per data group).
        m: number of parity chunks.
        parity_index_of_worker: maps a worker to the parity-chunk index of
            its node, for workers living on parity nodes.

    Returns:
        ``targets[i]`` = worker accumulating parity packet ``i``.
    """
    k = len(workers)
    if k < 1 or m < 1:
        raise ShardingError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    targets: list[int | None] = [None] * m
    taken: set[int] = set()
    # First choice: a group member already sitting on parity node i means
    # parity packet i needs no P2P hop at all.
    for worker in workers:
        parity_index = parity_index_of_worker.get(worker)
        if parity_index is not None and parity_index < m and targets[parity_index] is None:
            targets[parity_index] = worker
            taken.add(worker)

    remaining = [i for i in range(m) if targets[i] is None]
    if not remaining:
        return [t for t in targets if t is not None]

    candidates = [w for w in workers if w not in taken] or list(workers)
    if k >= m:
        # Spread targets at a stride of floor(k/m) so the P2P load lands on
        # evenly spaced workers (k == m degenerates to one target each).
        stride = max(1, len(candidates) // len(remaining))
        for slot, parity_index in enumerate(remaining):
            targets[parity_index] = candidates[(slot * stride) % len(candidates)]
    else:
        # k < m: round-robin; some workers take multiple targets.
        for slot, parity_index in enumerate(remaining):
            targets[parity_index] = candidates[slot % len(candidates)]
    return [t for t in targets if t is not None]


def build_reduction_plan(
    plan: PlacementPlan,
    node_of_worker: dict[int, int],
) -> ReductionPlan:
    """Build every reduction group and its targets for a placement.

    Args:
        plan: the data/parity node placement.
        node_of_worker: physical node of each worker.

    Raises:
        ShardingError: if data groups are unequal (cannot form groups).
    """
    k, m = plan.k, plan.m
    group_sizes = {len(g) for g in plan.data_group}
    if len(group_sizes) != 1:
        raise ShardingError(f"data groups must be equal-sized, got {group_sizes}")
    per_group = group_sizes.pop()

    parity_index_of_node = {node: i for i, node in enumerate(plan.parity_nodes)}
    parity_index_of_worker = {
        worker: parity_index_of_node[node]
        for worker, node in node_of_worker.items()
        if node in parity_index_of_node
    }

    groups: list[ReductionGroup] = []
    for r in range(per_group):
        workers = [plan.data_group[j][r] for j in range(k)]
        if m:
            targets = select_targets_for_group(workers, m, parity_index_of_worker)
        else:
            targets = []
        groups.append(ReductionGroup(index=r, workers=workers, targets=targets))
    return ReductionPlan(groups=groups, k=k, m=m)
