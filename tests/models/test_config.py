"""Tests for the Table-I model zoo and checkpoint size model."""

import pytest

from repro.errors import ReproError
from repro.models.config import (
    MODEL_ZOO,
    CheckpointSizeModel,
    ModelConfig,
    get_model_config,
    table1_configs,
)


def test_table1_has_nine_entries():
    configs = table1_configs()
    assert len(configs) == 9
    assert [c.family for c in configs].count("gpt2") == 3


@pytest.mark.parametrize(
    "name,hidden,heads,layers",
    [
        ("gpt2-1.6B", 1600, 32, 48),
        ("gpt2-5.3B", 2560, 40, 64),
        ("gpt2-20B", 5120, 40, 64),
        ("bert-1.6B", 1600, 32, 48),
        ("t5-20B", 5120, 40, 64),
    ],
)
def test_table1_hyperparameters(name, hidden, heads, layers):
    cfg = get_model_config(name)
    assert cfg.hidden_size == hidden
    assert cfg.num_attention_heads == heads
    assert cfg.num_layers == layers
    assert cfg.vocab_size == 50257


@pytest.mark.parametrize(
    "name,billions,tolerance",
    [
        ("gpt2-1.6B", 1.6, 0.15),
        ("gpt2-5.3B", 5.3, 0.15),
        ("gpt2-20B", 20.0, 0.15),
        ("bert-1.6B", 1.6, 0.15),
        ("bert-5.3B", 5.3, 0.15),
        # T5's cross-attention adds ~15-20% over the nominal label.
        ("t5-1.6B", 1.6, 0.25),
    ],
)
def test_parameter_counts_match_size_labels(name, billions, tolerance):
    cfg = get_model_config(name)
    count = cfg.parameter_count() / 1e9
    assert abs(count - billions) / billions < tolerance, count


def test_unknown_model_raises():
    with pytest.raises(ReproError):
        get_model_config("llama-405B")


def test_hidden_size_must_divide_heads():
    with pytest.raises(ReproError):
        ModelConfig(family="gpt2", hidden_size=100, num_attention_heads=3,
                    num_layers=2, label="bad")


def test_padded_vocab_divisible_by_512():
    cfg = get_model_config("gpt2-1.6B")
    assert cfg.padded_vocab_size % 512 == 0
    assert cfg.padded_vocab_size >= cfg.vocab_size


def test_scalability_variants_present():
    for layers in (16, 32, 64, 128):
        cfg = get_model_config(f"gpt2-h1024-L{layers}")
        assert cfg.hidden_size == 1024
        assert cfg.num_layers == layers


def test_checkpoint_size_matches_paper_345m_measurement():
    """Paper: GPT2-345M checkpoint is ~6.5 GB (tensor data)."""
    size_model = CheckpointSizeModel()
    gpt2_345m = ModelConfig(
        family="gpt2", hidden_size=1024, num_attention_heads=16,
        num_layers=24, label="345M",
    )
    gib = size_model.checkpoint_bytes(gpt2_345m) / 2**30
    assert 5.0 < gib < 8.0  # 18 B/param on ~355M params ~= 6 GiB


def test_zoo_names_are_consistent():
    for name, cfg in MODEL_ZOO.items():
        assert cfg.name == name
