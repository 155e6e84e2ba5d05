"""Serialization and ECCheck's serialization-free decomposition.

Two paths through this module correspond to the two sides of the paper's
Challenge 1:

* :func:`serialize_state_dict` / :func:`deserialize_state_dict` — full
  ``torch.save``-style serialization of the whole dict into one byte blob.
  This is what base1/base2 pay for on the critical path, and is also how
  ECCheck handles the tiny *non-tensor* metadata.
* :func:`decompose_state_dict` / :func:`recompose_state_dict` — the
  serialization-free protocol: split the dict into (1) non-tensor key-value
  pairs, (2) tensor keys + dtype/shape metadata, and (3) raw tensor byte
  buffers that can be encoded directly.  Only (1) and (2) — fractions of a
  percent of the checkpoint, per the paper's GPT2-345M measurement — ever
  get pickled.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.errors import DecodeError, ReproError
from repro.tensors.state_dict import (
    Path,
    flatten_state_dict,
    unflatten_state_dict,
)
from repro.tensors.tensor import CPU, SimTensor


# ---------------------------------------------------------------------------
# Full serialization (the base1/base2 path)
# ---------------------------------------------------------------------------
def serialize_state_dict(state_dict: dict) -> bytes:
    """Serialize a whole state dict (tensors included) into one blob."""
    flat = flatten_state_dict(state_dict)
    portable: dict[Path, object] = {}
    for path, value in flat.items():
        if isinstance(value, SimTensor):
            portable[path] = (
                "__tensor__",
                str(value.dtype),
                value.shape,
                value.byte_view().tobytes(),
            )
        else:
            portable[path] = ("__value__", value)
    return pickle.dumps(portable, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_state_dict(blob: bytes) -> dict:
    """Inverse of :func:`serialize_state_dict`; tensors land on CPU."""
    portable = pickle.loads(blob)
    flat: dict[Path, object] = {}
    for path, tagged in portable.items():
        if tagged[0] == "__tensor__":
            _, dtype, shape, raw = tagged
            flat[path] = SimTensor.from_bytes(raw, np.dtype(dtype), tuple(shape), CPU)
        else:
            flat[path] = tagged[1]
    return unflatten_state_dict(flat)


def serialized_size(state_dict: dict) -> int:
    """Byte size of the fully serialized checkpoint."""
    return len(serialize_state_dict(state_dict))


# ---------------------------------------------------------------------------
# Serialization-free decomposition (the ECCheck path)
# ---------------------------------------------------------------------------
@dataclass
class TensorMeta:
    """Everything needed to rebuild a tensor around raw bytes."""

    path: Path
    dtype: str
    shape: tuple[int, ...]
    nbytes: int


@dataclass
class Decomposition:
    """The three components of the serialization-free protocol.

    Attributes:
        non_tensor_kv: flattened non-tensor key-value pairs (tiny).
        tensor_meta: ordered tensor keys with dtype/shape (tiny).
        tensor_data: raw per-tensor byte buffers, in ``tensor_meta`` order
            (the ~99.99% of the checkpoint that never gets serialized).
    """

    non_tensor_kv: dict[Path, object]
    tensor_meta: list[TensorMeta]
    tensor_data: list[np.ndarray]

    @property
    def tensor_bytes(self) -> int:
        """Total raw tensor payload in bytes."""
        return sum(buf.nbytes for buf in self.tensor_data)

    def metadata_blob(self) -> bytes:
        """Serialize only the tiny components (what ECCheck broadcasts)."""
        return pickle.dumps(
            (self.non_tensor_kv, [(m.path, m.dtype, m.shape, m.nbytes) for m in self.tensor_meta]),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_metadata_blob(
        cls, blob: bytes, tensor_data: list[np.ndarray] | None = None
    ) -> "Decomposition":
        """Rebuild a decomposition from a broadcast metadata blob."""
        non_tensor_kv, meta_rows = pickle.loads(blob)
        meta = [TensorMeta(path, dtype, tuple(shape), nbytes) for path, dtype, shape, nbytes in meta_rows]
        return cls(
            non_tensor_kv=non_tensor_kv,
            tensor_meta=meta,
            tensor_data=list(tensor_data) if tensor_data is not None else [],
        )

    def concatenated_tensor_bytes(self, out: np.ndarray | None = None) -> np.ndarray:
        """All tensor buffers as one contiguous uint8 array (encode input).

        With ``out`` (uint8, exactly :attr:`tensor_bytes` long) the buffers
        are written straight into it — the packetiser's single copy.
        """
        if not self.tensor_data:
            return np.zeros(0, dtype=np.uint8) if out is None else out
        return np.concatenate([buf.reshape(-1) for buf in self.tensor_data], out=out)

    def split_tensor_bytes(self, blob: np.ndarray) -> list[np.ndarray]:
        """Split a flat contiguous uint8 array into per-tensor buffers: views
        of ``blob``, no copy."""
        out: list[np.ndarray] = []
        offset = 0
        for meta in self.tensor_meta:
            out.append(blob[offset : offset + meta.nbytes])
            offset += meta.nbytes
        if offset > blob.nbytes:
            raise ReproError(
                f"tensor metadata wants {offset} bytes but blob has {blob.nbytes}"
            )
        return out


def decompose_state_dict(
    state_dict: dict,
    offload_to_cpu: bool = True,
    dtype_names: list[tuple[np.dtype, str]] | None = None,
) -> Decomposition:
    """Step 1 of the ECCheck protocol: analyze and decompose.

    Tensors on the simulated GPU are (optionally) offloaded: their bytes are
    copied into CPU-side buffers, modelling the CUDA DtoH copy after which
    training may continue.

    Args:
        state_dict: the sharded checkpoint dict of one worker.
        offload_to_cpu: copy tensor bytes (True, the real protocol) or view
            them in place (False: the caller copies them once, straight
            into its packet).
        dtype_names: the caller's per-worker layout cache, one
            ``(dtype, str(dtype))`` per tensor, updated in place:
            ``str(dtype)`` is half a tensor's decompose cost.  Every entry
            is checked against the live tensor on each call.  Each row
            keeps its *own* string, as ``str()`` per tensor would: pickle
            memoises by identity, so sharing one per dtype would change
            the metadata blob's bytes.
    """
    names = [] if dtype_names is None else dtype_names
    non_tensor_kv: dict[Path, object] = {}
    tensor_meta: list[TensorMeta] = []
    tensor_data: list[np.ndarray] = []
    for path, value in flatten_state_dict(state_dict).items():
        if isinstance(value, SimTensor):
            index, dtype = len(tensor_meta), value.dtype
            if index == len(names):
                names.append((dtype, str(dtype)))
            elif names[index][0] != dtype:
                names[index] = (dtype, str(dtype))
            tensor_meta.append(
                TensorMeta(
                    path=path,
                    dtype=names[index][1],
                    shape=value.shape,
                    nbytes=value.nbytes,
                )
            )
            view = value.byte_view()
            tensor_data.append(view.copy() if offload_to_cpu else view)
        else:
            non_tensor_kv[path] = value
    del names[len(tensor_meta):]
    return Decomposition(
        non_tensor_kv=non_tensor_kv, tensor_meta=tensor_meta, tensor_data=tensor_data
    )


def recompose_state_dict(decomposition: Decomposition, device: str = CPU) -> dict:
    """Rebuild the original state dict from a decomposition.

    Every tensor on ``device`` is a *view* of its buffer: the caller owns
    ``tensor_data`` and hands it over (``restore_state_dict`` slices one
    fresh copy per worker, a copying ``decompose_state_dict`` made its
    own).  A view numpy reports unaligned is copied, that tensor alone.

    Raises:
        ReproError: if tensor data is missing or sized inconsistently with
            the tensor metadata.
        DecodeError: naming the row, if a row's dtype or shape does not
            describe its bytes.
    """
    if len(decomposition.tensor_data) != len(decomposition.tensor_meta):
        raise ReproError(
            f"{len(decomposition.tensor_meta)} tensors described but "
            f"{len(decomposition.tensor_data)} buffers supplied"
        )
    flat: dict[Path, object] = dict(decomposition.non_tensor_kv)
    dtypes: dict[str, np.dtype] = {}
    for row, (meta, raw) in enumerate(zip(decomposition.tensor_meta, decomposition.tensor_data)):
        if raw.nbytes != meta.nbytes:
            raise ReproError(
                f"tensor {meta.path!r} expects {meta.nbytes} bytes, got {raw.nbytes}"
            )
        try:
            dtype = dtypes.get(meta.dtype)
            if dtype is None:
                dtype = dtypes[meta.dtype] = np.dtype(meta.dtype)
            data = raw.view(dtype).reshape(meta.shape)  # a view refuses object dtypes
        except (TypeError, ValueError) as exc:
            raise DecodeError(
                f"metadata row {row} ({meta.path!r}: {meta.dtype!r} {meta.shape!r}, "
                f"{meta.nbytes} bytes) does not describe its bytes: {exc}"
            ) from exc
        flat[meta.path] = SimTensor(data if data.flags.aligned else data.copy(), device)
    return unflatten_state_dict(flat)
