"""Tests for hybrid-parallel model sharding."""

import pytest

from repro.errors import ShardingError
from repro.models.config import get_model_config, int_prod
from repro.parallel.sharding import shard_model, split_layers, tp_split_shape
from repro.parallel.strategy import ParallelismSpec


def test_split_layers_balanced():
    assert split_layers(48, 4) == [12, 12, 12, 12]
    assert split_layers(10, 3) == [4, 3, 3]
    with pytest.raises(ShardingError):
        split_layers(4, 0)


def test_tp_split_column_parallel():
    assert tp_split_shape("x.attention.qkv.weight", (4800, 1600), 4, 0) == (1200, 1600)
    assert tp_split_shape("x.mlp.dense_h_to_4h.bias", (6400,), 4, 2) == (1600,)


def test_tp_split_row_parallel():
    assert tp_split_shape("x.attention.dense.weight", (1600, 1600), 4, 1) == (1600, 400)
    assert tp_split_shape("x.mlp.dense_4h_to_h.weight", (1600, 6400), 4, 0) == (1600, 1600)


def test_tp_split_replicated_tensors_only_on_rank_zero():
    assert tp_split_shape("x.input_norm.weight", (1600,), 4, 0) == (1600,)
    assert tp_split_shape("x.input_norm.weight", (1600,), 4, 1) is None
    assert tp_split_shape("x.attention.dense.bias", (1600,), 4, 3) is None


def test_tp_split_degree_one_is_identity():
    assert tp_split_shape("anything", (3, 5), 1, 0) == (3, 5)


def test_tp_split_indivisible_raises():
    with pytest.raises(ShardingError):
        tp_split_shape("x.attention.qkv.weight", (10, 4), 3, 0)


@pytest.mark.parametrize(
    "model,tp,pp",
    [("gpt2-h1024-L16", 2, 2), ("gpt2-1.6B", 4, 4), ("t5-1.6B", 2, 4)],
)
def test_shards_partition_model_exactly(model, tp, pp):
    """Union of all shards == one full copy of the model."""
    cfg = get_model_config(model)
    strategy = ParallelismSpec(tensor_parallel=tp, pipeline_parallel=pp)
    shards = shard_model(cfg, strategy)
    assert len(shards) == strategy.world_size
    total = sum(s.parameter_count() for s in shards)
    assert total == cfg.parameter_count()


def test_first_stage_owns_embeddings_last_owns_head():
    cfg = get_model_config("gpt2-1.6B")
    strategy = ParallelismSpec(tensor_parallel=1, pipeline_parallel=4)
    shards = shard_model(cfg, strategy)
    names0 = [n for n, _ in shards[0].param_shapes]
    names_last = [n for n, _ in shards[3].param_shapes]
    assert any("word_embeddings" in n for n in names0)
    assert not any("word_embeddings" in n for n in names_last)
    assert any("final_norm" in n for n in names_last)


def test_pipeline_stages_are_roughly_balanced():
    cfg = get_model_config("gpt2-1.6B")
    strategy = ParallelismSpec(tensor_parallel=4, pipeline_parallel=4)
    shards = shard_model(cfg, strategy)
    per_stage = {}
    for s in shards:
        per_stage[s.pp_rank] = per_stage.get(s.pp_rank, 0) + s.parameter_count()
    counts = list(per_stage.values())
    assert max(counts) / min(counts) < 1.3  # embeddings skew stage 0 a bit


def test_t5_shards_include_decoder_cross_attention():
    cfg = get_model_config("t5-1.6B")
    strategy = ParallelismSpec(tensor_parallel=1, pipeline_parallel=2)
    shards = shard_model(cfg, strategy)
    # Stage 1 holds decoder layers.
    names = [n for n, _ in shards[1].param_shapes]
    assert any("cross_attention" in n for n in names)
