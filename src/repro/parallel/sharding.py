"""Shard a model's parameters across the hybrid-parallel worker grid.

* **Pipeline parallelism** assigns whole transformer blocks to stages
  (balanced split); the first stage additionally owns the embeddings and
  the last stage the output head, matching Megatron's pre/post-process
  placement.
* **Tensor parallelism** splits individual tensors Megatron-style:
  column-parallel layers (fused QKV, MLP up-projection, vocabulary
  embedding) split their output dimension; row-parallel layers (attention
  output projection, MLP down-projection) split their input dimension;
  LayerNorms and row-parallel biases are kept replicated on TP rank 0 for
  checkpoint purposes so the union of shards is exactly one copy of the
  model.

Every worker's shard is unique, so every worker writes checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ShardingError
from repro.models.config import ModelConfig, int_prod
from repro.models.transformer import (
    NamedShape,
    embedding_shapes,
    head_shapes,
    layer_parameter_shapes,
    layer_stacks,
)
from repro.parallel.strategy import ParallelismSpec

# Substrings identifying how a tensor splits under tensor parallelism.
_COLUMN_PARALLEL = ("attention.qkv", "cross_attention.q", "cross_attention.kv",
                    "mlp.dense_h_to_4h", "word_embeddings")
_ROW_PARALLEL = ("attention.dense.weight", "cross_attention.dense.weight",
                 "mlp.dense_4h_to_h.weight", "pooler.dense.weight")


@dataclass
class ShardSpec:
    """One worker's slice of the model.

    Attributes:
        worker: global worker id.
        param_shapes: post-split ``(name, shape)`` tensors this worker
            checkpoints.
    """

    worker: int
    tp_rank: int
    pp_rank: int
    param_shapes: list[NamedShape] = field(default_factory=list)

    def parameter_count(self) -> int:
        """Number of parameters in this shard."""
        return sum(int_prod(shape) for _, shape in self.param_shapes)


def split_layers(num_layers: int, stages: int) -> list[int]:
    """Balanced layer counts per pipeline stage (earlier stages get extras)."""
    if stages < 1:
        raise ShardingError(f"stages must be >= 1, got {stages}")
    base, extra = divmod(num_layers, stages)
    return [base + (1 if s < extra else 0) for s in range(stages)]


def tp_split_shape(name: str, shape: tuple[int, ...], tp: int, tp_rank: int) -> tuple[int, ...] | None:
    """Shape of one TP slice of a tensor, or ``None`` if this rank holds nothing.

    Raises:
        ShardingError: when a parallel dimension is not divisible by ``tp``.
    """
    if tp == 1:
        return shape
    if any(tag in name for tag in _COLUMN_PARALLEL):
        if shape[0] % tp:
            raise ShardingError(
                f"{name}: dim0 {shape[0]} not divisible by tp={tp}"
            )
        return (shape[0] // tp,) + shape[1:]
    if any(tag in name for tag in _ROW_PARALLEL):
        if shape[1] % tp:
            raise ShardingError(
                f"{name}: dim1 {shape[1]} not divisible by tp={tp}"
            )
        return (shape[0], shape[1] // tp)
    # Replicated tensors (LayerNorms, row-parallel biases, position
    # embeddings): checkpointed once, by TP rank 0.
    return shape if tp_rank == 0 else None


def _stage_shapes(config: ModelConfig, pp_rank: int, stages: int) -> list[NamedShape]:
    """All (unsplit) tensors owned by one pipeline stage."""
    # Build the global ordered block list across stacks, then slice.
    blocks: list[tuple[str, int]] = []  # (stack, layer index within stack)
    for stack, count in layer_stacks(config):
        blocks += [(stack, i) for i in range(count)]
    counts = split_layers(len(blocks), stages)
    start = sum(counts[:pp_rank])
    my_blocks = blocks[start : start + counts[pp_rank]]

    shapes: list[NamedShape] = []
    if pp_rank == 0:
        shapes += embedding_shapes(config)
    for stack, layer in my_blocks:
        shapes += layer_parameter_shapes(config, layer, decoder=(stack == "decoder"))
    if pp_rank == stages - 1:
        shapes += head_shapes(config)
    return shapes


def shard_model(config: ModelConfig, strategy: ParallelismSpec) -> list[ShardSpec]:
    """Produce every worker's shard for the given parallelism layout.

    The union of all shards contains exactly one copy of every model
    tensor (verified by tests against
    ``config.parameter_count()``).
    """
    shards: list[ShardSpec] = []
    stage_cache: dict[int, list[NamedShape]] = {}
    for worker in range(strategy.world_size):
        coords = strategy.coords_of(worker)
        if coords.pp_rank not in stage_cache:
            stage_cache[coords.pp_rank] = _stage_shapes(
                config, coords.pp_rank, strategy.pipeline_parallel
            )
        param_shapes: list[NamedShape] = []
        for name, shape in stage_cache[coords.pp_rank]:
            split = tp_split_shape(
                name, shape, strategy.tensor_parallel, coords.tp_rank
            )
            if split is not None:
                param_shapes.append((name, split))
        shards.append(
            ShardSpec(
                worker=worker,
                tp_rank=coords.tp_rank,
                pp_rank=coords.pp_rank,
                param_shapes=param_shapes,
            )
        )
    return shards
