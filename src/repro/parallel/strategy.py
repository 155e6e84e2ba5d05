"""Hybrid parallelism layout: tensor x pipeline parallel ranks.

Rank assignment follows Megatron-LM's default order: tensor-parallel ranks
vary fastest (so a TP group sits on one node's NVLink domain, as in the
paper's testbed where TP degree equals GPUs per node), then pipeline
stages.  Every worker holds a unique shard: replicated data parallelism
already duplicates state (the paper's Sec. III-A sets it aside), so no
layout here has replicas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShardingError
from repro.parallel.topology import ClusterSpec


@dataclass(frozen=True)
class RankCoords:
    """A worker's coordinates in the 2-D parallelism grid."""

    tp_rank: int
    pp_rank: int


@dataclass(frozen=True)
class ParallelismSpec:
    """Degrees of tensor and pipeline parallelism.

    ``world_size = tensor_parallel * pipeline_parallel``.

    Example (the paper's 4-node testbed):
        >>> spec = ParallelismSpec(tensor_parallel=4, pipeline_parallel=4)
        >>> spec.coords_of(5)
        RankCoords(tp_rank=1, pp_rank=1)
    """

    tensor_parallel: int = 1
    pipeline_parallel: int = 1

    def __post_init__(self) -> None:
        for name, value in (
            ("tensor_parallel", self.tensor_parallel),
            ("pipeline_parallel", self.pipeline_parallel),
        ):
            if value < 1:
                raise ShardingError(f"{name} must be >= 1, got {value}")

    @property
    def world_size(self) -> int:
        return self.tensor_parallel * self.pipeline_parallel

    def validate_cluster(self, cluster: ClusterSpec) -> None:
        """Check the layout exactly covers the cluster's workers.

        Raises:
            ShardingError: on a world-size mismatch.
        """
        if self.world_size != cluster.world_size:
            raise ShardingError(
                f"parallelism world size {self.world_size} != cluster "
                f"world size {cluster.world_size}"
            )

    def coords_of(self, worker: int) -> RankCoords:
        """Grid coordinates of a worker (TP fastest, then PP)."""
        if not 0 <= worker < self.world_size:
            raise ShardingError(
                f"worker {worker} out of range [0, {self.world_size})"
            )
        pp, tp = divmod(worker, self.tensor_parallel)
        return RankCoords(tp_rank=tp, pp_rank=pp)
