"""Physical cluster topology: nodes, GPUs, and worker numbering.

Workers (one per GPU) are numbered consecutively within nodes, matching the
paper's ``origin_group`` notion: node ``i`` hosts workers
``[i*g, (i+1)*g)``.  All placement logic in :mod:`repro.core.placement`
consumes these intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster of ``num_nodes`` machines with ``gpus_per_node`` GPUs each.

    Nodes may additionally be organised into racks (shared switch/power
    failure domains): consecutive runs of ``nodes_per_rack`` nodes share a
    rack.  ``nodes_per_rack=None`` means rack structure is not modelled.

    Example:
        >>> cluster = ClusterSpec(num_nodes=3, gpus_per_node=2)
        >>> cluster.origin_groups()
        [[0, 1], [2, 3], [4, 5]]
    """

    num_nodes: int
    gpus_per_node: int
    nodes_per_rack: int | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ReproError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.gpus_per_node < 1:
            raise ReproError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")
        if self.nodes_per_rack is not None:
            if self.nodes_per_rack < 1 or self.num_nodes % self.nodes_per_rack:
                raise ReproError(
                    f"nodes_per_rack {self.nodes_per_rack} must divide "
                    f"num_nodes {self.num_nodes}"
                )

    @property
    def num_racks(self) -> int:
        """Number of racks (1 when rack structure is not modelled)."""
        if self.nodes_per_rack is None:
            return 1
        return self.num_nodes // self.nodes_per_rack

    def rack_of(self, node: int) -> int:
        """The rack (correlated failure domain) hosting ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ReproError(f"node {node} out of range [0, {self.num_nodes})")
        if self.nodes_per_rack is None:
            return 0
        return node // self.nodes_per_rack

    def nodes_of_rack(self, rack: int) -> list[int]:
        """All nodes in a rack."""
        if not 0 <= rack < self.num_racks:
            raise ReproError(f"rack {rack} out of range [0, {self.num_racks})")
        if self.nodes_per_rack is None:
            return list(range(self.num_nodes))
        start = rack * self.nodes_per_rack
        return list(range(start, start + self.nodes_per_rack))

    @property
    def world_size(self) -> int:
        """Total number of workers (GPUs)."""
        return self.num_nodes * self.gpus_per_node

    def node_of(self, worker: int) -> int:
        """The node hosting ``worker``."""
        self._check_worker(worker)
        return worker // self.gpus_per_node

    def workers_of(self, node: int) -> list[int]:
        """All workers on ``node``, in order."""
        if not 0 <= node < self.num_nodes:
            raise ReproError(f"node {node} out of range [0, {self.num_nodes})")
        g = self.gpus_per_node
        return list(range(node * g, (node + 1) * g))

    def origin_groups(self) -> list[list[int]]:
        """Physical worker intervals per node (the paper's origin_group)."""
        return [self.workers_of(node) for node in range(self.num_nodes)]

    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < self.world_size:
            raise ReproError(
                f"worker {worker} out of range [0, {self.world_size})"
            )
