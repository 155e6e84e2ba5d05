"""Tests for the serialization-free encoding/decoding protocol."""

import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, DecodeError, FieldError
from repro.core.protocol import (
    build_worker_checkpoint,
    decode_group_into,
    encode_group_into,
    encode_packet,
    packet_size_for,
    packetise,
    restore_state_dict,
    xor_reduce,
)
from repro.ec.base import CodeParams, ErasureCode
from repro.ec.cauchy import CauchyRSCode
from repro.ec.kernels import DEFAULT_CHUNK_BYTES as BLOCK, apply_rows
from repro.models.factory import build_worker_state_dict
from repro.tensors.serialization import decompose_state_dict
from repro.tensors.state_dict import state_dicts_equal, tensor_items
from repro.tensors.tensor import GPU, SimTensor


@pytest.fixture
def code():
    return CauchyRSCode(CodeParams(k=2, m=2))


def make_state(seed, shape=(40, 8)):
    return build_worker_state_dict([("w", shape), ("b", (shape[0],))], seed=seed)


def test_packet_size_alignment():
    assert packet_size_for([100], alignment=64) == 128
    assert packet_size_for([64], alignment=64) == 64
    assert packet_size_for([0], alignment=64) == 64
    with pytest.raises(CheckpointError):
        packet_size_for([])


def test_worker_checkpoint_round_trip():
    state = make_state(1)
    wc = build_worker_checkpoint(0, state, packet_size=packet_size_for([1 << 16]))
    restored = restore_state_dict(
        wc.metadata_blob, wc.packet.payload[: wc.packet.original_length]
    )
    assert state_dicts_equal(state, restored)


def test_worker_checkpoint_pads_to_packet_size():
    state = make_state(2)
    size = packet_size_for([1 << 16])
    wc = build_worker_checkpoint(0, state, packet_size=size)
    assert wc.packet.nbytes == size
    assert wc.packet.original_length < size
    # Padding is zero so packets XOR cleanly.
    assert not wc.packet.payload[wc.packet.original_length :].any()


def test_worker_checkpoint_rejects_overflow():
    state = make_state(3)
    with pytest.raises(CheckpointError):
        build_worker_checkpoint(0, state, packet_size=16)


def test_restore_rejects_short_packet():
    state = make_state(4)
    wc = build_worker_checkpoint(0, state, packet_size=packet_size_for([1 << 16]))
    with pytest.raises(DecodeError):
        restore_state_dict(wc.metadata_blob, wc.packet.payload[:8])


def mixed_state():
    """float16 x 3, float64, int8 x 5, float32, a 0-byte tensor, a scalar:
    most rows start off their dtype's alignment in the packed packet."""
    rng = np.random.default_rng(7)
    tensors = [
        rng.standard_normal(n).astype(np.float16) for n in (3, 5, 1)
    ] + [rng.standard_normal((2, 3))]
    tensors += [rng.integers(-128, 127, n, dtype=np.int8) for n in (1, 2, 3, 4, 5)]
    tensors += [
        rng.standard_normal(6).astype(np.float32),
        np.zeros((0, 4), dtype=np.float32),
        np.array(2.5),
    ]
    return {
        "model": {f"t{i}": SimTensor(t, GPU) for i, t in enumerate(tensors)},
        "iteration": 3,
    }


def test_a_mixed_dtype_layout_restores_bit_exact_and_aligned():
    state = mixed_state()
    wc = build_worker_checkpoint(0, state, packet_size=packet_size_for([256]))
    restored = restore_state_dict(
        wc.metadata_blob, wc.packet.payload[: wc.packet.original_length], GPU
    )
    assert state_dicts_equal(state, restored)
    tensors = [t for _, t in tensor_items(restored)]
    assert all(t.data.flags.aligned and t.device == GPU for t in tensors)
    # One buffer per worker, viewed: the aligned rows own no memory, and
    # nothing is shared with the packet.
    assert not tensors[0].data.flags.owndata
    assert not any(np.shares_memory(t.data, wc.packet.payload) for t in tensors)


def rotten_blobs():
    """name -> (state, metadata blob that does not describe its bytes)."""
    state = {
        "model": {"w": SimTensor(np.arange(6, dtype=np.float32), GPU)},
        "iteration": 3,
    }
    blob = decompose_state_dict(state).metadata_blob()
    non_tensor, rows = pickle.loads(blob)
    (path, dtype, shape, nbytes), = rows

    def with_row(*row):
        return pickle.dumps((non_tensor, [row]), protocol=pickle.HIGHEST_PROTOCOL)

    return state, {
        "truncated": blob[:-5],
        "zeros": b"\x00" * 20,
        "nbytes_short": with_row(path, dtype, shape, nbytes - 4),
        "shape_too_long": with_row(path, dtype, (7,), nbytes),
        "dtype_unknown": with_row(path, "floaty", shape, nbytes),
    }


@pytest.mark.parametrize(
    "rot", ["truncated", "zeros", "nbytes_short", "shape_too_long", "dtype_unknown"]
)
def test_a_blob_that_does_not_describe_its_bytes_is_a_decode_error(rot):
    """Each used to escape as UnpicklingError, ValueError or TypeError."""
    state, blobs = rotten_blobs()
    wc = build_worker_checkpoint(0, state, packet_size=packet_size_for([64]))
    named = None if rot in ("truncated", "zeros") else r"row 0 \(\('model', 'w'\)"
    with pytest.raises(DecodeError, match=named):
        restore_state_dict(blobs[rot], wc.packet.payload)


def test_encode_packet_applies_parity_coefficients(code):
    payload = np.arange(64, dtype=np.uint8)
    for j in range(2):
        encoded = encode_packet(code, j, payload)
        assert len(encoded) == 2
        for i, enc in enumerate(encoded):
            coeff = int(code.parity_matrix[i, j])
            expected = code.field.mul_region(coeff, payload)
            assert np.array_equal(enc, expected)


def test_xor_reduce_is_elementwise_xor():
    a = np.array([1, 2, 3], dtype=np.uint8)
    b = np.array([4, 5, 6], dtype=np.uint8)
    assert np.array_equal(xor_reduce([a, b]), a ^ b)
    with pytest.raises(CheckpointError):
        xor_reduce([])


def test_distributed_encode_equals_direct_matrix_encode(code):
    """encode_packet + xor_reduce per worker == code.encode of the group.

    This is Eqn. 6 of the paper: p_i = XOR_j B(E'[i][j]) d_j.
    """
    rng = np.random.default_rng(0)
    packets = [rng.integers(0, 256, size=128, dtype=np.uint8) for _ in range(2)]
    direct = code.encode(packets)
    encoded = [encode_packet(code, j, packets[j]) for j in range(2)]
    for i in range(2):
        distributed = xor_reduce([encoded[j][i] for j in range(2)])
        assert np.array_equal(distributed, direct[i])


@given(
    k=st.integers(1, 6),
    m=st.integers(1, 4),
    half_size=st.integers(0, 300),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_fused_group_encode_equals_both_oracles(k, m, half_size, seed, data):
    """encode_group_into == code.encode == encode_packet + xor_reduce."""
    code = CauchyRSCode(CodeParams(k=k, m=m))
    rng = np.random.default_rng(seed)
    size = 2 * half_size  # ragged (not word-divisible) but even
    packets = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]
    originals = [p.copy() for p in packets]
    out = [np.full(size, 0xEE, dtype=np.uint8) for _ in range(m)]
    encode_group_into(code, packets, out)
    direct = code.encode(packets)
    encoded = [encode_packet(code, j, packets[j]) for j in range(k)]
    for i in range(m):
        assert np.array_equal(out[i], direct[i])
        assert np.array_equal(out[i], xor_reduce([encoded[j][i] for j in range(k)]))
    assert all(np.array_equal(p, o) for p, o in zip(packets, originals))
    # Any row subset, in any order (delta path).
    rows = data.draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
    subset = [np.empty(size, dtype=np.uint8) for _ in rows]
    encode_group_into(code, packets, subset, rows=rows)
    for buf, i in zip(subset, rows):
        assert np.array_equal(buf, direct[i])
    # Fewer buffers than parities means the leading rows.
    head = [np.empty(size, dtype=np.uint8) for _ in range(m - 1)]
    encode_group_into(code, packets, head)
    assert all(np.array_equal(buf, direct[i]) for i, buf in enumerate(head))


class _MatrixCode(ErasureCode):
    """A systematic code around an arbitrary parity block (no MDS claim):
    the unfused reference functions read their coefficients from a code."""

    def __init__(self, parity: np.ndarray):
        m, k = parity.shape
        super().__init__(CodeParams(k=k, m=m))
        self._parity = parity

    def build_generator(self) -> np.ndarray:
        return np.vstack([np.eye(self.params.k, dtype=np.uint32), self._parity])


#: Odd, not a multiple of 8, shorter than one 64 KiB block, and across
#: one and two block boundaries with a ragged tail.
RAGGED_SIZES = (1, 7, 13, 64, 1000, 4098, 65536 + 10, 2 * 65536 + 6)


def every_kind_in_every_column(data, k):
    """A matrix with a 0, a 1 and a general coefficient in every column
    position, an all-zero row, and up to three rows Hypothesis draws."""
    general = st.integers(2, 255)
    kinds = [0, 1, None]  # None: a general coefficient
    rows = [[kinds[(j + shift) % 3] for j in range(k)] for shift in range(3)]
    rows.append([0] * k)
    rows += data.draw(
        st.lists(st.lists(st.sampled_from(kinds), min_size=k, max_size=k), max_size=3)
    )
    matrix = np.array(
        [[data.draw(general) if c is None else c for c in row] for row in rows],
        dtype=np.uint32,
    )
    for j in range(k):
        assert {0, 1} < set(matrix[:, j].tolist())
    return matrix


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 5),
    size=st.sampled_from(RAGGED_SIZES),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_apply_rows_equals_encode_packet_plus_xor_reduce(k, size, seed, data):
    """The fused kernel against the unfused reference, on matrices built to
    put a 0, a 1 and a general coefficient in *every* column position —
    column 0, which is multiplied straight into the buffer, included —
    next to an all-zero row and rows Hypothesis draws freely."""
    matrix = every_kind_in_every_column(data, k)
    rows = range(len(matrix))
    code = _MatrixCode(matrix)
    rng = np.random.default_rng(seed)
    sources = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]
    originals = [source.copy() for source in sources]
    out = [np.full(size, 0xEE, dtype=np.uint8) for _ in rows]
    apply_rows(code.field, matrix, sources, out)
    encoded = [encode_packet(code, j, sources[j]) for j in range(k)]
    for i, got in enumerate(out):
        assert np.array_equal(got, xor_reduce([encoded[j][i] for j in range(k)])), i
    assert all(np.array_equal(s, o) for s, o in zip(sources, originals))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 4),
    size=st.sampled_from([BLOCK - 2, 2 * BLOCK, 2 * BLOCK + 10, 4 * BLOCK + 6]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_apply_rows_told_the_lengths_writes_the_same_bytes(k, size, seed, data):
    """Lengths make the kernel skip padding blocks, never change a byte:
    on zero-tailed sources the hinted call equals the unhinted one — for
    all-zero columns, lengths on and beside a block edge, hints longer
    than the payload, and an output block no source reaches."""
    matrix = every_kind_in_every_column(data, k)
    edges = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, size - BLOCK, size - 1, size]
    length = st.sampled_from([n for n in edges if 0 <= n <= size])
    rng = np.random.default_rng(seed)
    sources, lengths = [], []
    for _ in range(k):
        live = data.draw(length)
        source = rng.integers(0, 256, size=size, dtype=np.uint8)
        source[live:] = 0
        sources.append(source)
        lengths.append(max(live, data.draw(length)))  # never short, maybe long
    field = _MatrixCode(matrix).field
    want = [np.full(size, 0xEE, dtype=np.uint8) for _ in matrix]
    apply_rows(field, matrix, sources, want)
    got = [np.full(size, 0xEE, dtype=np.uint8) for _ in matrix]
    apply_rows(field, matrix, sources, got, lengths)
    assert all(np.array_equal(g, x) for g, x in zip(got, want)), lengths


def test_lengths_reach_the_kernel_through_encode_and_decode():
    """Unequal shards (one long packet, one short, one empty) encode and
    decode to the same bytes told their lengths or not."""
    code = CauchyRSCode(CodeParams(k=3, m=2))
    rng = np.random.default_rng(23)
    size, lengths = 3 * BLOCK + 64, [3 * BLOCK + 1, BLOCK - 5, 0]
    packets = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in lengths]
    for packet, live in zip(packets, lengths):
        packet[live:] = 0
    parity = [np.empty(size, dtype=np.uint8) for _ in range(2)]
    encode_group_into(code, packets, parity, lengths=lengths)
    assert all(np.array_equal(p, x) for p, x in zip(parity, code.encode(packets)))
    chunks = dict(enumerate(packets + parity))
    live_of = dict(enumerate(lengths + [max(lengths)] * 2))
    for lost in ([0], [1, 2], [0, 2]):
        available = {c: chunks[c] for c in chunks if c not in lost}
        out = [np.full(size, 0xEE, dtype=np.uint8) for _ in lost]
        decode_group_into(code, available, lost, out, lengths=live_of)
        assert all(np.array_equal(o, packets[j]) for o, j in zip(out, lost)), lost


def test_apply_rows_refuses_bad_arguments_before_writing():
    """Every check runs once, up front: a refused call has written nothing,
    and a strided *source* is merely slow, not refused."""
    f = CauchyRSCode(CodeParams(k=2, m=2)).field
    rng = np.random.default_rng(5)
    sources = [rng.integers(0, 256, size=96, dtype=np.uint8) for _ in range(2)]
    matrix = np.array([[1, 7], [0, 1]], dtype=np.uint32)

    def fresh():
        return [np.full(96, 0xEE, dtype=np.uint8) for _ in range(2)]

    shared = fresh()[0]
    refused = [
        (FieldError, np.array([[1, 256], [0, 1]]), sources, fresh()),  # not in GF(2^8)
        (FieldError, matrix, [sources[0], sources[1].astype(np.uint16)], fresh()),
        (CheckpointError, matrix, [sources[0], sources[1][:64]], fresh()),
        (FieldError, matrix, sources, [shared, np.full(192, 0xEE, np.uint8)[::2]]),
        (FieldError, matrix, sources, [shared, sources[1]]),  # out is source 1
        (FieldError, matrix, sources, [shared, shared[:]]),  # outs share memory
    ]
    for error, bad_matrix, bad_sources, out in refused:
        with pytest.raises(error):
            apply_rows(f, bad_matrix, bad_sources, out)
        assert (shared == 0xEE).all() and (out[0] == 0xEE).all()
    for bad_lengths in ([96, -1], [97, 0], [96]):  # negative, over-long, too few
        out = fresh()
        with pytest.raises(CheckpointError):
            apply_rows(f, matrix, sources, out, bad_lengths)
        assert all((buffer == 0xEE).all() for buffer in out)
    strided = [sources[0], np.repeat(sources[1], 2)[::2]]
    out = fresh()
    apply_rows(f, matrix, strided, out)
    assert np.array_equal(out[0], sources[0] ^ f.mul_region(7, sources[1]))
    assert np.array_equal(out[1], sources[1])


@pytest.mark.parametrize("extra", [0, 2, 7, 2 * 65536 + 4098])
def test_fused_group_encode_across_block_boundaries(extra):
    """Packets longer than one cache block, with even, odd and ragged tails."""
    code = CauchyRSCode(CodeParams(k=3, m=2))
    rng = np.random.default_rng(extra)
    size = 65536 + extra
    packets = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(3)]
    out = [np.empty(size, dtype=np.uint8) for _ in range(2)]
    encode_group_into(code, packets, out)
    for got, want in zip(out, code.encode(packets)):
        assert np.array_equal(got, want)


def test_fused_group_encode_rejects_bad_shapes(code):
    packets = [np.arange(64, dtype=np.uint8) for _ in range(2)]
    out = [np.empty(64, dtype=np.uint8) for _ in range(2)]
    with pytest.raises(CheckpointError):
        encode_group_into(code, packets[:1], out)
    with pytest.raises(CheckpointError):
        encode_group_into(code, packets, out, rows=[0])
    with pytest.raises(FieldError):  # an accumulator may not alias its input
        encode_group_into(code, packets, [packets[0], out[1]])
    with pytest.raises(CheckpointError):  # too long would be silently half-written
        encode_group_into(code, packets, [np.empty(128, dtype=np.uint8), out[1]])


def assert_lost_chunks_come_back(code, packets, erased):
    """Erase ``erased`` chunk ids, decode the lost data, re-encode the lost
    parity: decode_group_into rows == code.decode == code.decode_fast == the
    originals; the row-subset re-encode == the same rows of code.encode."""
    k, size = code.params.k, packets[0].size
    parity = code.encode(packets)
    available = {
        cid: chunk for cid, chunk in enumerate(packets + parity) if cid not in erased
    }
    before = {cid: chunk.copy() for cid, chunk in available.items()}
    lost = [j for j in sorted(erased) if j < k]
    decoded = [np.full(size, 0xEE, dtype=np.uint8) for _ in lost]
    decode_group_into(code, available, lost, decoded)
    reference = code.decode(available)
    fast = code.decode_fast(available)
    for j, got in zip(lost, decoded):
        assert np.array_equal(got, packets[j]), (erased, j)
        assert np.array_equal(got, reference[j]), (erased, j)
        assert np.array_equal(got, fast[j]), (erased, j)
    # Re-encode exactly the lost parity rows from surviving + decoded data.
    data = [available.get(j) for j in range(k)]
    for j, packet in zip(lost, decoded):
        data[j] = packet
    rows = [cid - k for cid in sorted(erased) if cid >= k]
    rebuilt = [np.full(size, 0xEE, dtype=np.uint8) for _ in rows]
    encode_group_into(code, data, rebuilt, rows=rows)
    for i, got in zip(rows, rebuilt):
        assert np.array_equal(got, parity[i]), (erased, i)
    assert all(np.array_equal(available[cid], before[cid]) for cid in available)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("m", range(1, 5))
def test_fused_group_decode_every_erasure_pattern(k, m):
    """Every way of losing <= m of the k + m chunks, at a ragged even size."""
    code = CauchyRSCode(CodeParams(k=k, m=m))
    rng = np.random.default_rng(16 * k + m)
    size = 2 * (11 * k + m)
    packets = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]
    for count in range(m + 1):
        for erased in itertools.combinations(range(k + m), count):
            assert_lost_chunks_come_back(code, packets, set(erased))


@given(
    k=st.integers(1, 6),
    m=st.integers(1, 4),
    size=st.integers(0, 601),  # even, odd and empty
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_fused_group_decode_equals_both_oracles(k, m, size, seed, data):
    code = CauchyRSCode(CodeParams(k=k, m=m))
    rng = np.random.default_rng(seed)
    packets = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]
    erased = data.draw(st.sets(st.integers(0, k + m - 1), max_size=m))
    assert_lost_chunks_come_back(code, packets, erased)


@pytest.mark.parametrize("extra", [0, 2, 7, 2 * 65536 + 4098])
def test_fused_group_decode_across_block_boundaries(extra):
    code = CauchyRSCode(CodeParams(k=3, m=2))
    rng = np.random.default_rng(extra)
    size = 65536 + extra
    packets = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(3)]
    for erased in ({0}, {1, 2}, {0, 4}, {3, 4}):
        assert_lost_chunks_come_back(code, packets, erased)


def test_fused_group_decode_rejects_bad_input(code):
    rng = np.random.default_rng(9)
    packets = [rng.integers(0, 256, size=64, dtype=np.uint8) for _ in range(2)]
    chunks = dict(enumerate(packets + code.encode(packets)))
    survivors = {1: chunks[1], 2: chunks[2]}
    out = [np.empty(64, dtype=np.uint8)]
    with pytest.raises(DecodeError):  # fewer than k chunks
        decode_group_into(code, {2: chunks[2]}, [0], out)
    with pytest.raises(DecodeError):  # parity is re-encoded, not decoded
        decode_group_into(code, survivors, [2], out)
    with pytest.raises(CheckpointError):
        decode_group_into(code, survivors, [0, 1], out)
    with pytest.raises(FieldError):  # overlapping: out is the *second* source
        decode_group_into(code, survivors, [0], [chunks[2]])
    with pytest.raises(FieldError):  # overlapping: two outs share memory
        decode_group_into(code, {2: chunks[2], 3: chunks[3]}, [0, 1], [out[0], out[0][:]])
    with pytest.raises(CheckpointError):  # short
        decode_group_into(code, survivors, [0], [np.empty(32, dtype=np.uint8)])
    with pytest.raises(FieldError):  # non-contiguous
        decode_group_into(code, survivors, [0], [np.empty(128, dtype=np.uint8)[::2]])
    # Nothing lost is nothing to do (and nothing to invert).
    decode_group_into(code, survivors, [], [])


def test_fused_group_decode_rejects_chunk_ids_outside_the_code(code):
    """-3 once decoded as chunk 1 (wrong bytes, no error) and 4 of a
    4-chunk code raised an untyped IndexError: both are refused, typed,
    before a byte is written."""
    rng = np.random.default_rng(10)
    packets = [rng.integers(0, 256, size=64, dtype=np.uint8) for _ in range(2)]
    chunks = packets + code.encode(packets)
    for available in ({-3: chunks[3], 2: chunks[2]}, {0: chunks[0], 4: chunks[3]}):
        out = [np.full(64, 0xEE, dtype=np.uint8)]
        with pytest.raises(DecodeError):
            decode_group_into(code, available, [1], out)
        assert (out[0] == 0xEE).all()


def test_packetise_copies_views_once_and_zeroes_only_the_tail():
    state = make_state(6)
    decomposition = decompose_state_dict(state, offload_to_cpu=False)
    size = packet_size_for([decomposition.tensor_bytes]) + 64
    wc = packetise(3, decomposition, size)
    reference = np.concatenate([t.data.reshape(-1).view(np.uint8) for _, t in tensor_items(state)])
    assert wc.worker == 3 and wc.packet.original_length == reference.nbytes
    assert np.array_equal(wc.packet.payload[: reference.nbytes], reference)
    assert not wc.packet.payload[reference.nbytes :].any()
    assert wc.metadata_blob == decompose_state_dict(state).metadata_blob()
    # The packet owns its bytes: later training does not reach into it.
    state["model"]["w"].writable_view()[:] ^= 0xFF
    assert np.array_equal(wc.packet.payload[: reference.nbytes], reference)


def test_full_protocol_any_k_chunks_restore_every_state_dict(code):
    """End-to-end protocol on real state dicts, all survivor patterns."""
    states = {w: make_state(w + 10) for w in range(2)}
    size = packet_size_for([1 << 16])
    checkpoints = {
        w: build_worker_checkpoint(w, states[w], size) for w in range(2)
    }
    packets = [checkpoints[w].packet.payload for w in range(2)]
    parity = code.encode(packets)
    chunks = packets + parity  # chunk ids 0,1 data; 2,3 parity

    for survivors in itertools.combinations(range(4), 2):
        available = {cid: chunks[cid] for cid in survivors}
        lost = [w for w in range(2) if w not in available]
        decoded = [np.empty(size, dtype=np.uint8) for _ in lost]
        decode_group_into(code, available, lost, decoded)
        recovered = {**available, **dict(zip(lost, decoded))}
        for w in range(2):
            restored = restore_state_dict(
                checkpoints[w].metadata_blob,
                recovered[w][: checkpoints[w].packet.original_length],
            )
            assert state_dicts_equal(states[w], restored), survivors


def test_reencode_parity_matches_original(code):
    rng = np.random.default_rng(5)
    packets = [rng.integers(0, 256, size=64, dtype=np.uint8) for _ in range(2)]
    parity = code.encode(packets)
    for i in range(2):
        rebuilt = np.empty(64, dtype=np.uint8)
        encode_group_into(code, packets, [rebuilt], rows=[i])
        assert np.array_equal(rebuilt, parity[i])
    with pytest.raises(CheckpointError):
        encode_group_into(code, packets[:1], [rebuilt], rows=[0])
