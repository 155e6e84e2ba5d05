"""Nested ``state_dict`` utilities: flattening, comparison, byte accounting.

A state dict is a nested ``dict`` whose leaves are either
:class:`~repro.tensors.tensor.SimTensor` instances (model parameters,
optimizer moments, RNG states) or plain Python values (iteration counters,
versions, argument namespaces).  Paths into the nest are tuples of keys.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import ReproError
from repro.tensors.tensor import SimTensor

Path = tuple[Any, ...]


def flatten_state_dict(state_dict: dict) -> dict[Path, Any]:
    """Flatten a nested dict into ``{path_tuple: leaf}``.

    Dict insertion order is preserved, which both sides of the protocol rely
    on (tensor order must match between encode and decode).
    """
    out: dict[Path, Any] = {}
    _flatten_into(out, state_dict, ())
    return out


# The walks recurse through module-level functions: a nested function that
# calls itself is a reference cycle (function -> closure cell -> function)
# holding everything it built until the cyclic collector runs.
def _flatten_into(out: dict[Path, Any], node: dict, path: Path) -> None:
    for key, value in node.items():
        if isinstance(value, dict):
            _flatten_into(out, value, path + (key,))
        else:
            out[path + (key,)] = value


def unflatten_state_dict(flat: dict[Path, Any]) -> dict:
    """Inverse of :func:`flatten_state_dict`; a path that is both a leaf
    and a subtree, in either order, is a ``ReproError``."""
    root: dict = {}
    for path, value in flat.items():
        if not path:
            raise ReproError("cannot unflatten an empty path")
        node = root
        for key in path[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ReproError(f"path collision at {path!r}")
        if path[-1] in node:  # paths are unique: what is there is a subtree
            raise ReproError(f"path collision at {path!r}")
        node[path[-1]] = value
    return root


def tensor_items(state_dict: dict) -> Iterator[tuple[Path, SimTensor]]:
    """Iterate over ``(path, tensor)`` leaves, in insertion order.

    One walk that builds paths for the tensors only: training writes
    through it every iteration.
    """
    out: list[tuple[Path, SimTensor]] = []
    _tensor_items_into(out, state_dict, ())
    return iter(out)


def _tensor_items_into(
    out: list[tuple[Path, SimTensor]], node: dict, path: Path
) -> None:
    for key, value in node.items():
        if isinstance(value, SimTensor):
            out.append((path + (key,), value))
        elif isinstance(value, dict):
            _tensor_items_into(out, value, path + (key,))


def total_tensor_bytes(state_dict: dict) -> int:
    """Total bytes of all tensor leaves (the checkpoint's dominant part)."""
    return sum(t.nbytes for _, t in tensor_items(state_dict))


def state_dicts_equal(a: dict, b: dict) -> bool:
    """Bit-exact structural equality of two state dicts.

    Tensors compare by dtype/shape/bytes; every other leaf compares with
    ``==``.  Key order is ignored for equality (but not by the protocol).
    """
    flat_a = flatten_state_dict(a)
    flat_b = flatten_state_dict(b)
    if set(flat_a) != set(flat_b):
        return False
    for path, value in flat_a.items():
        other = flat_b[path]
        if isinstance(value, SimTensor) != isinstance(other, SimTensor):
            return False
        if isinstance(value, SimTensor):
            if not value.equal(other):
                return False
        elif value != other:
            return False
    return True


def map_tensors(state_dict: dict, fn) -> dict:
    """Return a copy of the state dict with ``fn`` applied to each tensor.

    One walk: every dict is copied in its key order; a leaf that is not a
    tensor is shared, not copied.
    """
    out = {}
    for key, value in state_dict.items():
        if isinstance(value, SimTensor):
            out[key] = fn(value)
        elif isinstance(value, dict):
            out[key] = map_tensors(value, fn)
        else:
            out[key] = value
    return out
