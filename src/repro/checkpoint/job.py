"""A simulated distributed training job: the substrate engines checkpoint.

A :class:`TrainingJob` carries two parallel views of the same state:

* **Real bytes** — per-worker ``state_dict`` instances with actual numpy
  tensors, materialised at a small ``scale`` so tests can assert bit-exact
  recovery after injected failures.
* **Logical bytes** — the full-size checkpoint volume each worker would
  produce (parameter count x bytes/parameter), which the engines feed into
  the network/time simulation so reported times match paper-scale models.

``fail_nodes`` models a machine crash: the GPU state of every worker on
the failed nodes is lost, and the engines' host stores for those nodes are
wiped by the engines themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError, ShardingError
from repro.models.config import CheckpointSizeModel, ModelConfig, get_model_config
from repro.models.factory import build_worker_state_dict
from repro.parallel.sharding import ShardSpec, shard_model
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.network import TimeModel
from repro.tensors.state_dict import map_tensors, tensor_items


@dataclass
class TrainingJob:
    """Cluster + parallelism + live per-worker training state.

    Use :meth:`create` rather than the constructor; it materialises shards
    consistently.
    """

    cluster: ClusterSpec
    strategy: ParallelismSpec
    model: ModelConfig
    time_model: TimeModel
    scale: float
    shards: list[ShardSpec]
    state_dicts: dict[int, dict | None]
    iteration: int = 0
    _logical_bytes: dict[int, int] = field(default_factory=dict)
    #: Explicit node-id <-> rank mapping.  A *rank* is the cluster slot
    #: (0..num_nodes-1) that placement, the host store and the network
    #: address; a *node id* is the stable machine identity occupying it.
    #: Initially id == rank, but a replacement machine joining after a
    #: failure takes the rank under a *fresh* id — failed ids are never
    #: reused (see :meth:`replace_node`).
    node_ids: dict[int, int] = field(default_factory=dict)
    #: Node ids that failed and left the cluster, in failure order.
    retired_node_ids: list[int] = field(default_factory=list)
    _next_node_id: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        model: ModelConfig | str,
        cluster: ClusterSpec,
        strategy: ParallelismSpec,
        scale: float = 1e-3,
        seed: int = 0,
        time_model: TimeModel | None = None,
    ) -> "TrainingJob":
        """Materialise a job: shard the model and build worker state dicts.

        Args:
            model: a :class:`ModelConfig` or a zoo name like ``"gpt2-5.3B"``.
            cluster: physical nodes and GPUs.
            strategy: TP/PP layout (must match the cluster size).
            scale: tensor materialisation scale (1e-3 keeps tests fast).
            seed: deterministic tensor contents.
        """
        if isinstance(model, str):
            model = get_model_config(model)
        strategy.validate_cluster(cluster)
        shards = shard_model(model, strategy)
        state_dicts: dict[int, dict | None] = {}
        for shard in shards:
            state_dicts[shard.worker] = build_worker_state_dict(
                shard.param_shapes,
                iteration=0,
                seed=seed * 1_000_003 + shard.worker,
                scale=scale,
                extra_metadata={
                    "model": model.name,
                    "tp_rank": shard.tp_rank,
                    "pp_rank": shard.pp_rank,
                },
            )
        return cls(
            cluster=cluster,
            strategy=strategy,
            model=model,
            time_model=time_model or TimeModel(),
            scale=scale,
            shards=shards,
            state_dicts=state_dicts,
            node_ids={rank: rank for rank in range(cluster.num_nodes)},
            _next_node_id=cluster.num_nodes,
        )

    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    def node_of(self, worker: int) -> int:
        return self.cluster.node_of(worker)

    def logical_shard_bytes(self, worker: int) -> int:
        """Full-scale checkpoint bytes of one worker's shard."""
        if worker not in self._logical_bytes:
            shard = self.shards[worker]
            self._logical_bytes[worker] = int(
                shard.parameter_count() * CheckpointSizeModel.bytes_per_parameter
            )
        return self._logical_bytes[worker]

    def total_logical_bytes(self) -> int:
        """Full-scale checkpoint bytes across all workers."""
        return sum(self.logical_shard_bytes(w) for w in range(self.world_size))

    def node_logical_bytes(self, node: int) -> int:
        """Full-scale checkpoint bytes produced by one node's workers."""
        return sum(
            self.logical_shard_bytes(w) for w in self.cluster.workers_of(node)
        )

    # ------------------------------------------------------------------
    def state_of(self, worker: int) -> dict:
        """The worker's live state dict.

        Raises:
            CheckpointError: if the worker's state was lost to a failure
                and has not been restored.
        """
        state = self.state_dicts.get(worker)
        if state is None:
            raise CheckpointError(
                f"worker {worker} has no live state (failed node not yet recovered)"
            )
        return state

    def advance(
        self, iterations: int = 1, dirty_tensor_fraction: float = 1.0
    ) -> None:
        """Simulate training progress: mutate every live worker's state.

        Tensor bytes are perturbed and the iteration metadata bumped, so
        consecutive checkpoints are genuinely different — recovery tests
        can detect stale restores.

        Args:
            iterations: training steps to take.
            dirty_tensor_fraction: fraction of each worker's tensors that
                actually change (1.0 = a dense update; lower values model
                sparse updates — frozen layers, untouched embedding rows —
                which is what incremental checkpointing exploits).
        """
        if iterations < 1:
            raise CheckpointError(f"iterations must be >= 1, got {iterations}")
        if not 0.0 < dirty_tensor_fraction <= 1.0:
            raise CheckpointError(
                f"dirty_tensor_fraction must be in (0, 1], got {dirty_tensor_fraction}"
            )
        self.iteration += iterations
        for worker, state in self.state_dicts.items():
            if state is None:
                continue
            delta = np.uint8((self.iteration * 131 + worker * 17) % 251 + 1)
            tensors = [t for _, t in tensor_items(state)]
            dirty_count = max(1, round(dirty_tensor_fraction * len(tensors)))
            for tensor in tensors[:dirty_count]:
                tensor.xor_every(max(1, tensor.nbytes // 64), delta)
            state["iteration"] = self.iteration
            state["optimizer"]["step"] = self.iteration

    def fail_nodes(self, nodes: set[int]) -> None:
        """Crash nodes: their workers' GPU state is lost.

        Raises:
            ShardingError: for out-of-range node ids.
        """
        for node in nodes:
            if not 0 <= node < self.cluster.num_nodes:
                raise ShardingError(f"node {node} out of range")
            for worker in self.cluster.workers_of(node):
                self.state_dicts[worker] = None

    # ------------------------------------------------------------------
    # Node identity: ranks are cluster slots, node ids are machines.
    # ------------------------------------------------------------------
    def node_id_of(self, rank: int) -> int:
        """The machine identity currently occupying ``rank``.

        Defaults to ``rank`` for jobs built before any replacement (and
        for directly-constructed jobs that never populated the mapping).
        """
        if not 0 <= rank < self.cluster.num_nodes:
            raise ShardingError(f"rank {rank} out of range")
        return self.node_ids.get(rank, rank)

    def replace_node(self, rank: int, node_id: int | None = None) -> int:
        """A replacement machine takes over ``rank`` under a fresh id.

        The previous occupant's id is retired (never reused); the new
        machine arrives with empty GPUs, so the rank's workers must still
        be restored before :meth:`state_of` works again.

        Args:
            rank: the cluster slot being refilled.
            node_id: explicit fresh identity; auto-allocated if omitted.

        Returns:
            The new occupant's node id.

        Raises:
            ShardingError: for an out-of-range rank, or a ``node_id``
                that is already in use or was already retired.
        """
        if not 0 <= rank < self.cluster.num_nodes:
            raise ShardingError(f"rank {rank} out of range")
        old_id = self.node_id_of(rank)
        if node_id is None:
            node_id = max(
                self._next_node_id,
                self.cluster.num_nodes,
                max(self.node_ids.values(), default=-1) + 1,
                max(self.retired_node_ids, default=-1) + 1,
            )
        else:
            in_use = {
                self.node_id_of(r) for r in range(self.cluster.num_nodes)
            }
            if node_id in in_use or node_id in self.retired_node_ids:
                raise ShardingError(
                    f"node id {node_id} is already in use or retired"
                )
        self.retired_node_ids.append(old_id)
        self.node_ids[rank] = node_id
        self._next_node_id = node_id + 1
        # The newcomer's GPUs are empty until a restore repopulates them.
        for worker in self.cluster.workers_of(rank):
            self.state_dicts[worker] = None
        return node_id

    def snapshot_states(self) -> dict[int, dict]:
        """Deep copies of every live state dict (for test verification)."""
        out: dict[int, dict] = {}
        for worker, state in self.state_dicts.items():
            if state is not None:
                out[worker] = map_tensors(state, lambda t: t.to(t.device))
        return out
