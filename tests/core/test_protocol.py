"""Tests for the serialization-free encoding/decoding protocol."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CheckpointError, DecodeError, FieldError
from repro.core.protocol import (
    build_worker_checkpoint,
    decode_group,
    encode_group_into,
    encode_packet,
    packet_size_for,
    packetise,
    reencode_parity,
    restore_state_dict,
    xor_reduce,
)
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.models.factory import build_worker_state_dict
from repro.tensors.serialization import decompose_state_dict
from repro.tensors.state_dict import state_dicts_equal


@pytest.fixture
def code():
    return CauchyRSCode(CodeParams(k=2, m=2, w=8))


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
    code = CauchyRSCode(CodeParams(k=k, m=m, w=8))
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


@pytest.mark.parametrize("extra", [0, 2, 7, 2 * 65536 + 4098])
def test_fused_group_encode_across_block_boundaries(extra):
    """Packets longer than one cache block, with even, odd and ragged tails."""
    code = CauchyRSCode(CodeParams(k=3, m=2, w=8))
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


def test_packetise_copies_views_once_and_zeroes_only_the_tail():
    state = make_state(6)
    decomposition = decompose_state_dict(state, offload_to_cpu=False)
    size = packet_size_for([decomposition.tensor_bytes]) + 64
    wc = packetise(3, decomposition, size)
    reference = decompose_state_dict(state).concatenated_tensor_bytes()
    assert wc.worker == 3 and wc.packet.original_length == reference.nbytes
    assert np.array_equal(wc.packet.payload[: reference.nbytes], reference)
    assert not wc.packet.payload[reference.nbytes :].any()
    assert wc.metadata_blob == decompose_state_dict(state).metadata_blob()
    # The packet owns its bytes: later training does not reach into it.
    state["model"]["w"].byte_view()[:] ^= 0xFF
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
        recovered = decode_group(code, available)
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
        assert np.array_equal(reencode_parity(code, packets, i), parity[i])
    with pytest.raises(CheckpointError):
        reencode_parity(code, packets[:1], 0)
