"""Tests for serialization and the serialization-free decomposition."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.protocol import (
    build_worker_checkpoint,
    packet_size_for,
    packetise,
    restore_state_dict,
)
from repro.errors import ReproError
from repro.models.factory import build_worker_state_dict
from repro.tensors.serialization import (
    Decomposition,
    decompose_state_dict,
    deserialize_state_dict,
    recompose_state_dict,
    serialize_state_dict,
)
from repro.tensors.state_dict import (
    flatten_state_dict,
    state_dicts_equal,
    tensor_items,
    total_tensor_bytes,
)
from repro.tensors.tensor import CPU, GPU, SimTensor


@pytest.fixture
def sd():
    shapes = [("a.weight", (8, 4)), ("a.bias", (4,)), ("b.weight", (6, 6))]
    return build_worker_state_dict(shapes, iteration=11, seed=3)


def test_full_serialization_round_trip(sd):
    blob = serialize_state_dict(sd)
    restored = deserialize_state_dict(blob)
    assert state_dicts_equal(sd, restored)


def test_deserialized_tensors_on_cpu(sd):
    restored = deserialize_state_dict(serialize_state_dict(sd))
    from repro.tensors.state_dict import tensor_items

    assert all(t.device == CPU for _, t in tensor_items(restored))


def test_full_serialization_pickles_a_name_per_tensor(sd):
    """The blob is what pickling one ``str(dtype)`` per tensor gives, byte
    for byte: the fleet timeline reads remote blob sizes."""
    portable = {
        path: ("__tensor__", str(value.dtype), value.shape, value.byte_view().tobytes())
        if isinstance(value, SimTensor)
        else ("__value__", value)
        for path, value in flatten_state_dict(sd).items()
    }
    assert serialize_state_dict(sd) == pickle.dumps(portable, protocol=pickle.HIGHEST_PROTOCOL)


def test_serialization_adds_overhead_to_tensor_bytes(sd):
    # Serialization adds structure overhead on top of the raw tensor bytes.
    assert len(serialize_state_dict(sd)) > total_tensor_bytes(sd)


def test_decompose_separates_components(sd):
    dec = decompose_state_dict(sd)
    assert dec.tensor_bytes == total_tensor_bytes(sd)
    assert len(dec.tensor_meta) == len(dec.tensor_data)
    # Non-tensor leaves: iteration, versions, optimizer step, rng position...
    assert ("iteration",) in dec.non_tensor_kv
    assert all(
        not isinstance(v, SimTensor) for v in dec.non_tensor_kv.values()
    )


def test_metadata_blob_is_tiny_fraction():
    """The paper's observation: keys + non-tensor data are < 1% of bytes.

    Needs realistically sized tensors; the per-tensor metadata is constant
    while tensor bytes grow with the model.
    """
    shapes = [(f"layer.{i}.weight", (512, 64)) for i in range(8)]
    dec = decompose_state_dict(build_worker_state_dict(shapes, seed=0))
    assert len(dec.metadata_blob()) < 0.01 * dec.tensor_bytes


def test_recompose_round_trip(sd):
    dec = decompose_state_dict(sd)
    restored = recompose_state_dict(dec)
    assert state_dicts_equal(sd, restored)


def test_recompose_from_broadcast_metadata(sd):
    """A peer holding only the metadata blob + raw bytes rebuilds the dict."""
    dec = decompose_state_dict(sd)
    blob = dec.metadata_blob()
    rebuilt = Decomposition.from_metadata_blob(blob, tensor_data=dec.tensor_data)
    restored = recompose_state_dict(rebuilt)
    assert state_dicts_equal(sd, restored)


def test_concatenate_and_split_tensor_bytes(sd):
    dec = decompose_state_dict(sd)
    flat = np.concatenate(dec.tensor_data)
    assert flat.nbytes == dec.tensor_bytes
    parts = dec.split_tensor_bytes(flat)
    for original, part in zip(dec.tensor_data, parts):
        assert np.array_equal(original, part)


def test_split_rejects_short_blob(sd):
    dec = decompose_state_dict(sd)
    with pytest.raises(ReproError):
        dec.split_tensor_bytes(np.zeros(2, dtype=np.uint8))


def test_recompose_rejects_wrong_buffer_count(sd):
    dec = decompose_state_dict(sd)
    dec.tensor_data.pop()
    with pytest.raises(ReproError):
        recompose_state_dict(dec)


def test_recompose_rejects_wrong_buffer_size(sd):
    dec = decompose_state_dict(sd)
    dec.tensor_data[0] = np.zeros(3, dtype=np.uint8)
    with pytest.raises(ReproError):
        recompose_state_dict(dec)


def test_decompose_offload_copies_bytes(sd):
    dec = decompose_state_dict(sd, offload_to_cpu=True)
    # Mutating the offloaded buffer must not touch the live GPU tensor.
    first_tensor = next(iter(sd["model"].values()))
    before = first_tensor.byte_view().copy()
    dec.tensor_data[0][:] = 0
    assert np.array_equal(first_tensor.byte_view(), before)


def test_decompose_zero_copy_mode_views(sd):
    dec = decompose_state_dict(sd, offload_to_cpu=False)
    first_tensor = next(iter(sd["model"].values()))
    first_tensor.writable_view()[0] ^= 0xFF
    # Zero-copy mode shares storage with the tensor, and cannot write it.
    assert dec.tensor_data[0][0] == first_tensor.byte_view()[0]
    with pytest.raises(ValueError, match="read-only"):
        dec.tensor_data[0][0] = 1


def changed_offsets(sd, base):
    walk = decompose_state_dict(sd, offload_to_cpu=False, since=base)
    return [(offset, piece.size) for offset, piece in walk.changed], walk


def test_a_walk_since_a_base_names_exactly_the_unclean_tensors(sd):
    tensors = [t for _, t in tensor_items(sd)]
    offsets = np.cumsum([0] + [t.nbytes for t in tensors]).tolist()
    base = decompose_state_dict(sd, offload_to_cpu=False)
    assert base.changed is None and base.write_stamps == [0] * len(tensors)
    assert changed_offsets(sd, base)[0] == []
    tensors[1].writable_view()[0] ^= 0  # a write that changes no byte still counts
    held = tensors[3].writable_view()  # alive: dirty now and at the next walk
    changed, walk = changed_offsets(sd, base)
    assert changed == [(offsets[i], tensors[i].nbytes) for i in (1, 3)]
    assert walk.write_stamps[1] == 1 and walk.write_stamps[3] == -1
    del held
    assert changed_offsets(sd, walk)[0] == [(offsets[3], tensors[3].nbytes)]
    tensors[0].data = tensors[0].data.copy()  # new storage, same layout
    assert changed_offsets(sd, base)[0] == [(offsets[i], tensors[i].nbytes) for i in (0, 1, 3)]


def test_a_walk_since_a_base_of_another_layout_changes_everything(sd):
    base = decompose_state_dict(sd, offload_to_cpu=False)
    first = next(t for _, t in tensor_items(sd))
    first.data = first.data.reshape(-1)[:-1].copy()  # the payload shrinks
    changed, walk = changed_offsets(sd, base)
    sizes = [t.nbytes for _, t in tensor_items(sd)]
    offsets = np.cumsum([0] + sizes).tolist()
    tail = (walk.tensor_bytes, base.tensor_bytes - walk.tensor_bytes)
    assert changed == [*zip(offsets[:-1], sizes), tail]
    assert not walk.changed[-1][1].any()  # the old tail is padding now
    sd["model"]["extra"] = SimTensor(np.zeros(0, dtype=np.float32))  # one more row
    assert len(changed_offsets(sd, walk)[0]) == len(sizes) + 1


def test_empty_state_dict_decomposes():
    dec = decompose_state_dict({"iteration": 0})
    assert dec.tensor_bytes == 0 and dec.tensor_meta == [] and dec.tensor_data == []
    assert state_dicts_equal(recompose_state_dict(dec), {"iteration": 0})


def test_packetise_gathers_views_and_copies_alike(sd):
    size = packet_size_for([total_tensor_bytes(sd)]) + 64
    views = packetise(0, decompose_state_dict(sd, offload_to_cpu=False), size)
    copies = packetise(0, decompose_state_dict(sd), size)
    assert np.array_equal(views.packet.payload, copies.packet.payload)
    assert views.packet.original_length == total_tensor_bytes(sd)
    empty = packetise(0, decompose_state_dict({"iteration": 0}), 64)
    assert empty.packet.original_length == 0 and not empty.packet.payload.any()


def test_dtype_name_cache_keeps_the_metadata_blob_byte_identical(sd):
    """Cached rows must pickle exactly like a fresh ``str()`` per tensor."""
    names: list = []
    first = decompose_state_dict(sd, dtype_names=names)
    assert [n for _, n in names] == [row[1] for row in first.tensor_meta]
    cached_ids = [id(n) for _, n in names]
    again = decompose_state_dict(sd, dtype_names=names)
    assert [id(n) for _, n in names] == cached_ids  # no str() the second time
    assert all(a[1] is b[1] for a, b in zip(first.tensor_meta, again.tensor_meta))
    assert again.metadata_blob() == decompose_state_dict(sd).metadata_blob()
    # One string object per row: sharing one per dtype would shrink the blob.
    assert len(set(cached_ids)) == len(cached_ids)


def test_dtype_name_cache_follows_the_live_layout(sd):
    names: list = []
    decompose_state_dict(sd, dtype_names=names)
    first_key = next(iter(sd["model"]))
    tensor = sd["model"][first_key]
    sd["model"][first_key] = SimTensor(tensor.data.view(np.int16).copy(), tensor.device)
    sd["model"]["extra"] = SimTensor(np.arange(6, dtype=np.float64), tensor.device)
    changed = decompose_state_dict(sd, dtype_names=names)
    assert changed.metadata_blob() == decompose_state_dict(sd).metadata_blob()
    assert len(names) == len(changed.tensor_meta)
    del sd["model"]["extra"], sd["optimizer"]
    shrunk = decompose_state_dict(sd, dtype_names=names)
    assert shrunk.metadata_blob() == decompose_state_dict(sd).metadata_blob()
    assert len(names) == len(shrunk.tensor_meta)
    assert state_dicts_equal(recompose_state_dict(decompose_state_dict(sd)), sd)


# ---------------------------------------------------------------------------
# The one-walk decompose against the flatten-first decompose it replaced
# ---------------------------------------------------------------------------
def reference_decompose(state_dict, dtype_names):
    """The flatten-first decompose the walk replaced, kept as its oracle:
    ``(metadata blob, rows, payload bytes)``; updates ``dtype_names`` the
    same way."""
    non_tensor_kv, rows, buffers = {}, [], []
    for path, value in flatten_state_dict(state_dict).items():
        if isinstance(value, SimTensor):
            index, dtype = len(rows), value.dtype
            if index == len(dtype_names):
                dtype_names.append((dtype, str(dtype)))
            elif dtype_names[index][0] != dtype:
                dtype_names[index] = (dtype, str(dtype))
            rows.append((path, dtype_names[index][1], value.shape, value.nbytes))
            buffers.append(value.data.reshape(-1).view(np.uint8).copy())
        else:
            non_tensor_kv[path] = value
    del dtype_names[len(rows):]
    blob = pickle.dumps((non_tensor_kv, rows), protocol=pickle.HIGHEST_PROTOCOL)
    return blob, rows, b"".join(b.tobytes() for b in buffers)


DTYPES = ("float64", "float32", "float16", "int8", "uint16", "int64")
KEYS = st.one_of(
    st.text("abw.", max_size=3),
    st.integers(-3, 300),
    st.tuples(st.integers(0, 2), st.text("xy", max_size=2)),
)


@st.composite
def tensors(draw):
    dtype = draw(st.sampled_from(DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    seed = draw(st.integers(0, 2**16))
    raw = np.random.default_rng(seed).integers(0, 256, int(np.prod(shape)) * np.dtype(dtype).itemsize)
    return SimTensor(raw.astype(np.uint8).view(dtype).reshape(shape), GPU)


LEAVES = st.one_of(
    tensors(),
    st.integers(-1, 1000),
    st.text(max_size=4),
    st.none(),
    st.tuples(st.integers(0, 9), st.floats(allow_nan=False)),
)
STATES = st.dictionaries(
    KEYS,
    st.recursive(LEAVES, lambda inner: st.dictionaries(KEYS, inner, max_size=4), max_leaves=24),
    max_size=6,
)


def assert_walk_matches_reference(state):
    names, reference_names = [], []
    for _ in range(2):  # the second pass runs on the populated dtype cache
        dec = decompose_state_dict(state, offload_to_cpu=False, dtype_names=names)
        blob, rows, payload = reference_decompose(state, reference_names)
        assert dec.metadata_blob() == blob
        assert dec.tensor_meta == rows
        assert dec.tensor_bytes == len(payload)
        size = packet_size_for([len(payload)])
        packet = packetise(0, dec, size).packet.payload
        assert packet.tobytes() == payload + bytes(size - len(payload))
        assert names == reference_names
    return size


@given(STATES)
def test_the_walk_pickles_and_packs_what_flatten_did(state):
    """Mixed dtypes (float64 rows land at odd packet offsets), empty
    sub-dicts, zero-size tensors, non-tensor leaves at every depth, int and
    tuple keys; then the same on a state rebuilt around fresh key objects."""
    size = assert_walk_matches_reference(state)
    wc = build_worker_checkpoint(0, state, size)
    restored = restore_state_dict(wc.metadata_blob, wc.packet.payload)
    assert_walk_matches_reference(restored)
