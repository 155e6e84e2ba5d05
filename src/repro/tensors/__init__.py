"""Simulated tensors and ``state_dict`` machinery.

In the paper each worker checkpoints a sharded ``state_dict`` whose bulk is
tensor data in GPU memory, plus a sliver of non-tensor metadata in CPU
memory.  This subpackage reproduces that data model without PyTorch:

* :class:`~repro.tensors.tensor.SimTensor` — a numpy-backed tensor with a
  device tag (``"gpu"``/``"cpu"``) so device-to-host offload is an explicit,
  accountable step.
* :mod:`~repro.tensors.state_dict` — building, flattening, comparing and
  byte-accounting nested state dicts.
* :mod:`~repro.tensors.serialization` — full serialization (what base1/base2
  pay for) and ECCheck's serialization-free three-way decomposition.
"""

from repro.tensors.tensor import SimTensor
from repro.tensors.state_dict import (
    flatten_state_dict,
    state_dicts_equal,
    total_tensor_bytes,
    tensor_items,
)
from repro.tensors.serialization import (
    Decomposition,
    decompose_state_dict,
    recompose_state_dict,
    serialize_state_dict,
    deserialize_state_dict,
)

__all__ = [
    "SimTensor",
    "flatten_state_dict",
    "state_dicts_equal",
    "total_tensor_bytes",
    "tensor_items",
    "Decomposition",
    "decompose_state_dict",
    "recompose_state_dict",
    "serialize_state_dict",
    "deserialize_state_dict",
]
