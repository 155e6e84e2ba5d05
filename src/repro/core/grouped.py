"""Group-based ECCheck for large clusters (paper Sec. V-F and conclusion).

Raising the parity count ``m`` for more fault tolerance raises per-device
communication (``m * s``).  The paper's proposed remedy — left as future
work there, implemented here — divides the cluster into groups of ``G``
nodes and runs ECCheck *within* each group: per-device traffic depends
only on the group's parity count, while the cluster survives any failure
pattern that leaves every group within its own parity budget.

Two pieces:

* :class:`GroupedECCheckEngine` — one inner :class:`ECCheckEngine` per
  node group, running over a :class:`NodeGroupView` of the job (local
  node/worker numbering, shared live state).
* :func:`plan_grouping` — the "optimal group size" computation: the
  smallest per-device traffic meeting a target cluster recovery rate at a
  given per-node failure probability.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CheckpointError, RecoveryError, ReproError
from repro.analysis.recovery_rate import cluster_recovery_rate, erasure_recovery_rate
from repro.checkpoint.base import CheckpointEngine, RecoveryReport, SaveReport
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.topology import ClusterSpec


class NodeGroupView:
    """A TrainingJob restricted to an arbitrary group of nodes.

    Exposes the subset of the job interface the ECCheck engine consumes,
    with node and worker ids renumbered to be group-local (local node
    ``i`` is ``nodes[i]``).  Live state is shared with the parent job
    (views write through).  Groups need not be contiguous, which is what
    lets rack-transversal grouping place one node per rack in each group.
    """

    def __init__(self, job: TrainingJob, nodes: list[int]):
        if not nodes:
            raise CheckpointError("a node group needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise CheckpointError(f"duplicate nodes in group: {nodes}")
        for node in nodes:
            if not 0 <= node < job.cluster.num_nodes:
                raise CheckpointError(f"node {node} out of range")
        self._job = job
        self.global_nodes = list(nodes)
        g = job.cluster.gpus_per_node
        self.cluster = ClusterSpec(num_nodes=len(nodes), gpus_per_node=g)
        self.strategy = job.strategy  # only data_parallel is inspected
        self.sharding_style = job.sharding_style
        self.time_model = job.time_model
        self._global_workers = [
            worker for node in nodes for worker in job.cluster.workers_of(node)
        ]
        self.state_dicts = _WorkerProxy(job, self._global_workers)

    # -- id translation -------------------------------------------------
    def to_global_worker(self, local: int) -> int:
        return self._global_workers[local]

    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    @property
    def writers(self) -> list[int]:
        return list(range(self.world_size))

    def node_of(self, worker: int) -> int:
        return self.cluster.node_of(worker)

    def state_of(self, worker: int) -> dict:
        return self._job.state_of(self.to_global_worker(worker))

    def logical_shard_bytes(self, worker: int) -> int:
        return self._job.logical_shard_bytes(self.to_global_worker(worker))

    def total_logical_bytes(self) -> int:
        return sum(self.logical_shard_bytes(w) for w in self.writers)


class _WorkerProxy:
    """dict-like view of the parent job's state_dicts with local worker ids."""

    def __init__(self, job: TrainingJob, global_workers: list[int]):
        self._job = job
        self._workers = global_workers

    def __getitem__(self, local: int):
        return self._job.state_dicts[self._workers[local]]

    def __setitem__(self, local: int, value) -> None:
        self._job.state_dicts[self._workers[local]] = value

    def get(self, local: int, default=None):
        if not 0 <= local < len(self._workers):
            return default
        return self._job.state_dicts.get(self._workers[local], default)


class GroupedECCheckEngine(CheckpointEngine):
    """ECCheck applied independently inside fixed node groups.

    Args:
        job: the training job.
        group_size: nodes per group (must divide the node count).
        k: data nodes per group; ``m = group_size - k`` parity nodes.
        groups: explicit node groups (e.g. from
            :func:`rack_transversal_groups`); defaults to consecutive runs
            of ``group_size`` nodes.
    """

    name = "eccheck-grouped"

    def __init__(
        self,
        job: TrainingJob,
        group_size: int,
        k: int,
        groups: list[list[int]] | None = None,
    ):
        super().__init__(job)
        n = job.cluster.num_nodes
        if group_size < 2 or n % group_size:
            raise CheckpointError(
                f"group_size {group_size} must divide node count {n}"
            )
        if not 1 <= k < group_size:
            raise CheckpointError(
                f"k={k} must be in [1, {group_size - 1}] within a group"
            )
        self.group_size = group_size
        self.k = k
        self.m = group_size - k
        if groups is None:
            groups = [
                list(range(start, start + group_size))
                for start in range(0, n, group_size)
            ]
        self._validate_groups(groups, n)
        self.groups = groups
        self._group_of_node = {
            node: gid for gid, nodes in enumerate(groups) for node in nodes
        }
        self.engines: list[ECCheckEngine] = [
            ECCheckEngine(
                NodeGroupView(job, nodes),  # type: ignore[arg-type]
                ECCheckConfig(k=k, m=self.m),
            )
            for nodes in self.groups
        ]

    def _validate_groups(self, groups: list[list[int]], num_nodes: int) -> None:
        flat = [node for nodes in groups for node in nodes]
        if sorted(flat) != list(range(num_nodes)):
            raise CheckpointError(
                "groups must partition the cluster's nodes exactly"
            )
        if any(len(nodes) != self.group_size for nodes in groups):
            raise CheckpointError(
                f"every group must have {self.group_size} nodes"
            )

    def group_of_node(self, node: int) -> int:
        return self._group_of_node[node]

    # ------------------------------------------------------------------
    def save(self) -> SaveReport:
        """All groups checkpoint concurrently; the slowest group gates."""
        self.version += 1
        reports = [engine.save() for engine in self.engines]
        return SaveReport(
            engine=self.name,
            version=self.version,
            stall_time=max(r.stall_time for r in reports),
            checkpoint_time=max(r.checkpoint_time for r in reports),
            breakdown={
                key: max(r.breakdown[key] for r in reports)
                for key in reports[0].breakdown
            },
            bytes_dtoh=sum(r.bytes_dtoh for r in reports),
            bytes_inter_node=sum(r.bytes_inter_node for r in reports),
        )

    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        """Each affected group recovers independently (in parallel).

        Raises:
            RecoveryError: if any group exceeds its parity budget.
        """
        self.on_failure(failed_nodes)
        version = self.latest_version()
        per_group_failures: dict[int, set[int]] = {}
        for node in failed_nodes:
            gid = self.group_of_node(node)
            local = self.groups[gid].index(node)
            per_group_failures.setdefault(gid, set()).add(local)
        # Check feasibility up front so one group's failure does not leave
        # another group half-restored.
        for gid, local_failed in per_group_failures.items():
            if len(local_failed) > self.m:
                raise RecoveryError(
                    f"group {gid} lost {len(local_failed)} nodes, exceeding "
                    f"its parity budget m={self.m}"
                )
        reports = [
            self.engines[gid].restore(local_failed)
            for gid, local_failed in sorted(per_group_failures.items())
        ]
        if not reports:
            return RecoveryReport(
                engine=self.name, version=version, recovery_time=0.0
            )
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=max(r.recovery_time for r in reports),
            breakdown={
                key: max(r.breakdown.get(key, 0.0) for r in reports)
                for r0 in reports[:1]
                for key in r0.breakdown
            },
            bytes_inter_node=sum(r.bytes_inter_node for r in reports),
            restore_redundancy_time=max(
                r.restore_redundancy_time for r in reports
            ),
        )


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


def plan_grouping(
    num_nodes: int,
    p: float,
    target_rate: float,
    group_sizes: tuple[int, ...] | None = None,
    gpus_per_node: int = 1,
) -> GroupingPlan:
    """Choose the cheapest grouping meeting a cluster recovery target.

    For each candidate group size ``G`` (divisors of ``num_nodes``) and
    each parity count ``m < G``, the cluster recovery rate is
    ``R_era(p; G, m) ** (n/G)`` and the per-device communication cost is
    ``m`` shard-sizes.  Only feasible ECCheck shapes are considered:
    ``k = G - m`` must divide the group's worker count ``G * g``.  The
    plan with the smallest ``m`` (ties: larger groups, which need fewer
    parity nodes overall) that meets the target wins.

    Raises:
        ReproError: if no candidate meets the target.
    """
    if not 0 < target_rate <= 1:
        raise ReproError(f"target_rate must be in (0, 1], got {target_rate}")
    if gpus_per_node < 1:
        raise ReproError(f"gpus_per_node must be >= 1, got {gpus_per_node}")
    candidates = group_sizes or tuple(
        g for g in range(2, num_nodes + 1) if num_nodes % g == 0
    )
    best: GroupingPlan | None = None
    for G in candidates:
        if num_nodes % G:
            raise ReproError(f"group size {G} does not divide {num_nodes}")
        for m in range(1, G):
            if (G * gpus_per_node) % (G - m):
                continue  # infeasible shape: k must divide the group world
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
