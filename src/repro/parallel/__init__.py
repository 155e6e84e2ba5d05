"""Cluster topology and hybrid-parallel model sharding.

Reproduces the training-side context ECCheck plugs into: a cluster of
``n`` nodes with ``g`` GPUs each (:class:`~repro.parallel.topology.ClusterSpec`),
a tensor/pipeline parallelism layout
(:class:`~repro.parallel.strategy.ParallelismSpec`), and the resulting
per-worker ``state_dict`` shards (:mod:`repro.parallel.sharding`) whose
bytes are what the checkpoint engines move and encode.
"""

from repro.parallel.topology import ClusterSpec
from repro.parallel.strategy import ParallelismSpec, RankCoords
from repro.parallel.sharding import ShardSpec, shard_model

__all__ = [
    "ClusterSpec",
    "ParallelismSpec",
    "RankCoords",
    "ShardSpec",
    "shard_model",
]
