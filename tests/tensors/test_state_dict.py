"""Tests for state_dict flattening, comparison, and accounting."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.tensors.state_dict import (
    flatten_state_dict,
    map_tensors,
    state_dicts_equal,
    tensor_items,
    total_tensor_bytes,
    unflatten_state_dict,
)
from repro.tensors.tensor import CPU, SimTensor


@pytest.fixture
def sample():
    return {
        "model": {
            "layer.weight": SimTensor(np.ones((2, 2), dtype=np.float32)),
            "layer.bias": SimTensor(np.zeros(2, dtype=np.float32)),
        },
        "optimizer": {"step": 7, "state": {"lr": 0.001}},
        "iteration": 42,
    }


def test_flatten_paths_and_order(sample):
    flat = flatten_state_dict(sample)
    assert ("model", "layer.weight") in flat
    assert flat[("iteration",)] == 42
    assert flat[("optimizer", "state", "lr")] == 0.001
    # Order: model tensors first (insertion order preserved).
    assert list(flat)[0] == ("model", "layer.weight")


def test_unflatten_inverts_flatten(sample):
    assert state_dicts_equal(unflatten_state_dict(flatten_state_dict(sample)), sample)


def test_unflatten_rejects_empty_path():
    with pytest.raises(ReproError):
        unflatten_state_dict({(): 1})


def test_unflatten_rejects_path_collision():
    with pytest.raises(ReproError):
        unflatten_state_dict({("a",): 1, ("a", "b"): 2})


@pytest.mark.parametrize("leaf_first", [True, False], ids=["leaf_first", "subtree_first"])
def test_unflatten_rejects_a_leaf_and_a_subtree_at_one_path_in_either_order(leaf_first):
    """The subtree first used to be overwritten by the leaf silently."""
    leaf, subtree = (("a",), 2), (("a", "b"), 1)
    flat = dict([leaf, subtree] if leaf_first else [subtree, leaf])
    with pytest.raises(ReproError, match="path collision"):
        unflatten_state_dict(flat)
    # Also when another parent was walked in between.
    with pytest.raises(ReproError, match="path collision"):
        unflatten_state_dict({("x", "a", "b"): 1, ("y",): 0, ("x", "a"): 2})


def test_tensor_items_only_tensors(sample):
    items = list(tensor_items(sample))
    assert len(items) == 2
    assert all(isinstance(t, SimTensor) for _, t in items)


def test_total_tensor_bytes(sample):
    assert total_tensor_bytes(sample) == 16 + 8


def test_equality_detects_tensor_change(sample):
    other = map_tensors(sample, lambda t: t.to(t.device))  # deep copy
    assert state_dicts_equal(sample, other)
    other["model"]["layer.weight"].writable_view().view(np.float32)[0] = 5.0
    assert not state_dicts_equal(sample, other)


def test_equality_detects_metadata_change(sample):
    other = map_tensors(sample, lambda t: t)
    other["iteration"] = 43
    assert not state_dicts_equal(sample, other)


def test_equality_detects_missing_key(sample):
    other = map_tensors(sample, lambda t: t)
    del other["optimizer"]["step"]
    assert not state_dicts_equal(sample, other)


def test_equality_tensor_vs_scalar_mismatch(sample):
    other = map_tensors(sample, lambda t: t)
    other["model"]["layer.bias"] = 0
    assert not state_dicts_equal(sample, other)


def test_map_tensors_applies_function(sample):
    moved = map_tensors(sample, lambda t: t.to(CPU))
    assert all(t.device == CPU for _, t in tensor_items(moved))
    assert moved["iteration"] == 42
