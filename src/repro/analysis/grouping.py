"""Node grouping for large clusters (paper Sec. V-F and conclusion).

Raising the parity count ``m`` for more fault tolerance raises per-device
communication (``m * s``).  The paper's proposed remedy, left there as
future work, divides the cluster into groups of ``G`` nodes and erasure
codes *within* each group: per-device traffic depends only on the group's
parity count, while the cluster survives any failure pattern that leaves
every group within its own parity budget.

* :func:`plan_grouping` — the "optimal group size" computation: the
  smallest per-device traffic meeting a target cluster recovery rate at a
  given per-node failure probability, from the closed forms in
  :mod:`repro.analysis.recovery_rate`.
* :func:`rack_aligned_groups` / :func:`rack_transversal_groups` /
  :func:`rack_failure_survivable` — group layouts over a racked cluster
  and the predicate that says whether a failure pattern leaves every
  group decodable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.recovery_rate import cluster_recovery_rate, erasure_recovery_rate
from repro.errors import CheckpointError, ReproError


# ---------------------------------------------------------------------------
# Optimal group size (the paper's open problem)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GroupingPlan:
    """One candidate grouping and its predicted properties."""

    group_size: int
    k: int
    m: int
    num_groups: int
    cluster_recovery_rate: float
    per_device_comm_units: int  # in multiples of the shard size s


def plan_grouping(num_nodes: int, p: float, target_rate: float) -> GroupingPlan:
    """Choose the cheapest grouping meeting a cluster recovery target.

    For each candidate group size ``G`` (divisors of ``num_nodes``) and
    each parity count ``m < G``, the cluster recovery rate is
    ``R_era(p; G, m) ** (n/G)`` and the per-device communication cost is
    ``m`` shard-sizes.  Only feasible ECCheck shapes are considered:
    ``k = G - m`` must divide ``G``, so it divides the group's worker
    count at any GPU count per node.  The plan with the smallest ``m``
    (ties: larger groups, which need fewer parity nodes overall) that
    meets the target wins.

    Raises:
        ReproError: if no candidate meets the target.
    """
    if not 0 < target_rate <= 1:
        raise ReproError(f"target_rate must be in (0, 1], got {target_rate}")
    best: GroupingPlan | None = None
    for G in range(2, num_nodes + 1):
        if num_nodes % G:
            continue
        for m in range(1, G):
            if G % (G - m):
                continue  # infeasible shape: k must divide the group
            rate = cluster_recovery_rate(
                erasure_recovery_rate(p, n=G, m=m), num_nodes // G
            )
            if rate < target_rate:
                continue
            plan = GroupingPlan(
                group_size=G,
                k=G - m,
                m=m,
                num_groups=num_nodes // G,
                cluster_recovery_rate=rate,
                per_device_comm_units=m,
            )
            better = (
                best is None
                or plan.per_device_comm_units < best.per_device_comm_units
                or (
                    plan.per_device_comm_units == best.per_device_comm_units
                    and plan.group_size > best.group_size
                )
            )
            if better:
                best = plan
            break  # larger m in this G only costs more
    if best is None:
        raise ReproError(
            f"no grouping of {num_nodes} nodes reaches recovery rate "
            f"{target_rate} at p={p}"
        )
    return best


# ---------------------------------------------------------------------------
# Rack-aware group construction
# ---------------------------------------------------------------------------
def rack_aligned_groups(cluster, group_size: int) -> list[list[int]]:
    """Groups of consecutive nodes (each group typically inside one rack).

    The naive layout: cheap on intra-rack bandwidth, but a whole-rack
    failure (switch, power) kills every member of the co-located groups at
    once — unrecoverable whenever ``nodes_per_rack > m``.
    """
    n = cluster.num_nodes
    if group_size < 1 or n % group_size:
        raise CheckpointError(f"group_size {group_size} must divide {n}")
    return [list(range(s, s + group_size)) for s in range(0, n, group_size)]


def rack_transversal_groups(cluster, group_size: int) -> list[list[int]]:
    """Groups spanning racks: member ``i`` of each group sits in rack ``i``.

    With ``group_size == num_racks``, a whole-rack failure costs every
    group exactly ONE node — well within any ``m >= 1`` parity budget, so
    erasure-coded groups survive correlated rack outages that are fatal to
    rack-aligned layouts.

    Raises:
        CheckpointError: if the cluster has no rack structure or the group
            size does not equal the rack count.
    """
    if cluster.nodes_per_rack is None:
        raise CheckpointError("cluster has no rack structure to transpose")
    racks = [cluster.nodes_of_rack(r) for r in range(cluster.num_racks)]
    if group_size != cluster.num_racks:
        raise CheckpointError(
            f"transversal groups need group_size == num_racks "
            f"({cluster.num_racks}), got {group_size}"
        )
    per_rack = cluster.nodes_per_rack
    return [[racks[r][j] for r in range(cluster.num_racks)] for j in range(per_rack)]


def rack_failure_survivable(
    groups: list[list[int]], failed_nodes: set[int], m: int
) -> bool:
    """True if every group lost at most ``m`` members."""
    return all(
        len(set(nodes) & failed_nodes) <= m for nodes in groups
    )
