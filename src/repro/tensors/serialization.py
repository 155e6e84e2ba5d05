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
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DecodeError, ReproError
from repro.tensors.state_dict import (
    Path,
    flatten_state_dict,
    unflatten_state_dict,
)
from repro.tensors.tensor import CPU, SimTensor


#: What unpickling rotten bytes, or unpacking what came out, raises: a blob
#: that fails with one of these is refused as a :class:`~repro.errors.DecodeError`.
ROTTEN_PICKLE = (
    pickle.UnpicklingError, EOFError, ValueError, TypeError, LookupError, AttributeError,
    ImportError,
)


# ---------------------------------------------------------------------------
# Full serialization (the base1/base2 path)
# ---------------------------------------------------------------------------
def serialize_state_dict(state_dict: dict) -> bytes:
    """Serialize a whole state dict (tensors included) into one blob."""
    portable: dict[Path, object] = {}
    # str(dtype) costs microseconds, so it runs once per dtype.  Each row
    # still gets its own copy of the name, as str() per tensor gave it:
    # pickle memoises by identity, and a blob's length is read (the fleet
    # timeline's ``remote_bytes`` series sums the remote store).
    names: dict[np.dtype, str] = {}
    for path, value in flatten_state_dict(state_dict).items():
        if isinstance(value, SimTensor):
            dtype = value.dtype
            name = names.get(dtype)
            if name is None:
                name = names[dtype] = str(dtype)
            portable[path] = (
                "__tensor__", name.encode().decode(), value.shape, value.byte_view().tobytes()
            )
        else:
            portable[path] = ("__value__", value)
    return pickle.dumps(portable, protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_state_dict(blob: bytes) -> dict:
    """Inverse of :func:`serialize_state_dict`; tensors land on CPU.

    Raises:
        DecodeError: if the blob is not a serialized state dict.
    """
    flat: dict[Path, object] = {}
    try:
        for path, tagged in pickle.loads(blob).items():
            if tagged[0] == "__tensor__":
                _, dtype, shape, raw = tagged
                flat[path] = SimTensor.from_bytes(raw, np.dtype(dtype), tuple(shape), CPU)
            else:
                flat[path] = tagged[1]
    except ROTTEN_PICKLE as exc:
        raise DecodeError(f"blob is not a serialized state dict: {exc!r}") from exc
    return unflatten_state_dict(flat)


# ---------------------------------------------------------------------------
# Serialization-free decomposition (the ECCheck path)
# ---------------------------------------------------------------------------
#: One tensor's metadata row as the blob pickles it: (path, dtype, shape, nbytes).
Row = tuple[Path, str, tuple[int, ...], int]


@dataclass
class Decomposition:
    """The three components of the serialization-free protocol.

    Attributes:
        non_tensor_kv: flattened non-tensor key-value pairs (tiny).
        tensor_meta: one :data:`Row` per tensor, in state-dict order (tiny).
        tensor_data: raw per-tensor flat uint8 buffers, in ``tensor_meta``
            order (the ~99.99% of the checkpoint that never gets
            serialized).
        tensor_bytes: total tensor payload the rows describe.
        write_stamps: each tensor's :meth:`~repro.tensors.tensor.SimTensor.write_stamp`
            at the walk, in ``tensor_meta`` order.
        changed: with a ``since`` walk, where the packet may differ from
            ``since``'s: ``(offset, bytes)`` of each such tensor, in
            order.  When the tensor sizes moved that is every tensor,
            plus zeros over the rest of a longer old payload.
    """

    non_tensor_kv: dict[Path, object]
    tensor_meta: list[Row]
    tensor_data: list[np.ndarray]
    tensor_bytes: int
    write_stamps: list[int] = field(default_factory=list)
    changed: list[tuple[int, np.ndarray]] | None = None

    def tracking(self) -> "Decomposition":
        """What a later ``since`` walk reads of this one (byte views, write
        stamps, payload length): kept by a delta base instead of the rows."""
        return Decomposition({}, [], self.tensor_data, self.tensor_bytes, self.write_stamps)

    def metadata_blob(self) -> bytes:
        """Serialize only the tiny components (what ECCheck broadcasts)."""
        return pickle.dumps(
            (self.non_tensor_kv, self.tensor_meta), protocol=pickle.HIGHEST_PROTOCOL
        )

    @classmethod
    def from_metadata_blob(
        cls, blob: bytes, tensor_data: list[np.ndarray] | None = None
    ) -> "Decomposition":
        """Rebuild a decomposition from a broadcast metadata blob."""
        non_tensor_kv, rows = pickle.loads(blob)
        total = sum(nbytes for _, _, _, nbytes in rows)  # each row has four fields
        data = list(tensor_data) if tensor_data is not None else []
        return cls(non_tensor_kv, rows, data, total)

    def split_tensor_bytes(self, blob: np.ndarray) -> list[np.ndarray]:
        """Split a flat contiguous uint8 array into per-tensor buffers: views
        of ``blob``, no copy."""
        out: list[np.ndarray] = []
        offset = 0
        for _, _, _, nbytes in self.tensor_meta:
            out.append(blob[offset : offset + nbytes])
            offset += nbytes
        if offset > blob.nbytes:
            raise ReproError(
                f"tensor metadata wants {offset} bytes but blob has {blob.nbytes}"
            )
        return out


def decompose_state_dict(
    state_dict: dict,
    offload_to_cpu: bool = True,
    dtype_names: list[tuple[np.dtype, str]] | None = None,
    since: Decomposition | None = None,
) -> Decomposition:
    """Step 1 of the ECCheck protocol: analyze and decompose.

    One walk in insertion order yields all three components and the
    running ``tensor_bytes``; paths are built from the live dict's keys as
    ``flatten_state_dict`` builds them, so the blob pickles the same bytes.

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
        since: an earlier walk of the same state with ``offload_to_cpu``
            False, or its :meth:`Decomposition.tracking` (a delta save's
            base): the result's ``changed`` lists
            every tensor that is not clean since it.  A tensor is clean
            when its byte view is the same object as then, its write stamp
            has not moved, and no writable view of it is alive now or was
            then.
    """
    names = [] if dtype_names is None else dtype_names
    non_tensor_kv: dict[Path, object] = {}
    rows: list[Row] = []
    views: list[np.ndarray] = []
    stamps: list[int] = []
    changed: list[tuple[int, np.ndarray]] | None = None
    if since is not None:
        changed, base_views, base_stamps = [], since.tensor_data, since.write_stamps
        base_count = len(base_views)
    total = 0
    resized = False
    # Depth first in insertion order, with an explicit stack of the open
    # dicts' item iterators: a nested function that called itself would be
    # a reference cycle holding every row until the cyclic collector runs.
    stack = [(iter(state_dict.items()), ())]
    while stack:
        items, path = stack[-1]
        for key, value in items:
            here = path + (key,)
            if isinstance(value, SimTensor):
                dtype, shape, view, stamp = value.walk_entry()
                index, nbytes = len(rows), view.size
                if index == len(names):
                    names.append((dtype, str(dtype)))
                elif names[index][0] is not dtype and names[index][0] != dtype:
                    names[index] = (dtype, str(dtype))
                rows.append((here, names[index][1], shape, nbytes))
                stamps.append(stamp)
                if changed is not None and not (
                    index < base_count
                    and view is base_views[index]
                    and stamp == base_stamps[index] >= 0
                ):
                    changed.append((total, view))
                    resized = resized or (
                        index >= base_count or base_views[index].size != nbytes
                    )
                total += nbytes
                views.append(view.copy() if offload_to_cpu else view)
            elif isinstance(value, dict):
                stack.append((iter(value.items()), here))
                break  # walk the child first; this dict's iterator resumes after it
            else:
                non_tensor_kv[here] = value
        else:
            stack.pop()
    del names[len(rows):]
    if changed is not None and (resized or len(rows) != base_count):
        # Every tensor may have moved: all of them are changed bytes, and
        # so is what is left of the old payload past the new one.
        offsets = np.cumsum([0] + [row[3] for row in rows[:-1]]).tolist()
        changed = list(zip(offsets, views))
        if since.tensor_bytes > total:
            changed.append((total, np.zeros(since.tensor_bytes - total, dtype=np.uint8)))
    return Decomposition(non_tensor_kv, rows, views, total, stamps, changed)


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
    rows = zip(decomposition.tensor_meta, decomposition.tensor_data)
    for row, ((path, name, shape, nbytes), raw) in enumerate(rows):
        if raw.nbytes != nbytes:
            raise ReproError(f"tensor {path!r} expects {nbytes} bytes, got {raw.nbytes}")
        try:
            dtype = dtypes.get(name)
            if dtype is None:
                dtype = dtypes[name] = np.dtype(name)
            data = raw.view(dtype).reshape(shape)  # a view refuses object dtypes
        except (TypeError, ValueError) as exc:
            raise DecodeError(
                f"metadata row {row} ({path!r}: {name!r} {shape!r}, "
                f"{nbytes} bytes) does not describe its bytes: {exc}"
            ) from exc
        flat[path] = SimTensor(data if data.flags.aligned else data.copy(), device)
    return unflatten_state_dict(flat)
