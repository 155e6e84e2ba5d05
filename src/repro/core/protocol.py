"""Serialization-free encoding/decoding protocol (paper Sec. III-C).

Each worker's decomposed ``state_dict`` becomes a fixed-size **data
packet**: the concatenated raw tensor bytes, zero-padded to the cluster-wide
packet size (packets must be equal-sized for XOR reduction across workers).
The tiny metadata — non-tensor key-value pairs, tensor keys/shapes, and the
true payload length — is pickled once and broadcast to every node, so any
survivor can rebuild any worker's ``state_dict`` around recovered packet
bytes without ever serializing tensor data.

Per reduction group the ``k`` packets of the group's workers form one
codeword position: parity packet ``i`` is ``XOR_j B(E'[i][j]) d_j`` — the
encode step computes ``B(E'[i][j]) d_j`` locally on each worker and the XOR
reduction combines them (Eqn. 6 of the paper).

The padding is zero and the code linear, so a padding block adds nothing to
any sum: told the payload lengths the metadata records, the fused kernel
(:func:`~repro.ec.kernels.apply_rows`) skips every block past a packet's
:func:`~repro.ec.kernels.live_prefix` — same bytes out, fewer touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointError, DecodeError
from repro.core.integrity import xor_digest
from repro.ec.base import ErasureCode
from repro.ec.kernels import apply_rows, xor_reduce_arrays
from repro.tensors.serialization import (
    ROTTEN_PICKLE,
    Decomposition,
    decompose_state_dict,
    recompose_state_dict,
)
from repro.tensors.tensor import CPU


def packet_size_for(payload_lengths: list[int], alignment: int = 64) -> int:
    """Cluster-wide packet size: the max payload, rounded up to alignment."""
    if not payload_lengths:
        raise CheckpointError("no payloads to size packets for")
    largest = max(payload_lengths)
    if largest == 0:
        return alignment
    return ((largest + alignment - 1) // alignment) * alignment


@dataclass
class DataPacket:
    """One worker's checkpoint payload, padded to the common packet size."""

    worker: int
    payload: np.ndarray  # uint8, length == packet size
    original_length: int

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes


@dataclass
class WorkerCheckpoint:
    """Everything a worker contributes to one checkpoint version."""

    worker: int
    packet: DataPacket
    metadata_blob: bytes


def packetise(
    worker: int, decomposition: Decomposition, packet_size: int
) -> WorkerCheckpoint:
    """Offload + packetisation in one pass over the tensor bytes.

    Every tensor buffer of ``decomposition`` (zero-copy views are fine) is
    written once, straight into a fresh packet the caller owns outright
    (the worker-local pinned buffer); only the tail is zeroed.

    Raises:
        CheckpointError: if the tensor payload exceeds the packet size.
    """
    length = decomposition.tensor_bytes
    if length > packet_size:
        raise CheckpointError(
            f"worker {worker} payload {length} exceeds packet size {packet_size}"
        )
    payload = np.empty(packet_size, dtype=np.uint8)
    if decomposition.tensor_data:
        np.concatenate(decomposition.tensor_data, out=payload[:length])
    payload[length:] = 0
    return WorkerCheckpoint(
        worker=worker,
        packet=DataPacket(worker=worker, payload=payload, original_length=length),
        metadata_blob=decomposition.metadata_blob(),
    )


def build_worker_checkpoint(
    worker: int, state_dict: dict, packet_size: int
) -> WorkerCheckpoint:
    """Step 1 + packetisation: decompose, offload, pad into a packet.

    Raises:
        CheckpointError: if the tensor payload exceeds the packet size.
    """
    return packetise(
        worker, decompose_state_dict(state_dict, offload_to_cpu=False), packet_size
    )


def restore_state_dict(
    metadata_blob: bytes, packet_payload: np.ndarray, device: str = CPU
) -> dict:
    """Inverse of :func:`build_worker_checkpoint`: packet bytes -> state_dict.

    The live prefix is copied once, into a buffer the returned state owns,
    and every tensor (on ``device``) views its slice of it: the state never
    aliases ``packet_payload``, which may be a stored chunk.  A blob that
    does not describe its bytes, or a short packet, is a ``DecodeError``.
    """
    try:
        decomposition = Decomposition.from_metadata_blob(metadata_blob)
        total = decomposition.tensor_bytes
    except ROTTEN_PICKLE as exc:
        raise DecodeError(f"metadata blob is not a tensor layout: {exc!r}") from exc
    if packet_payload.nbytes < total:
        raise DecodeError(
            f"packet holds {packet_payload.nbytes} bytes but metadata "
            f"describes {total}"
        )
    decomposition.tensor_data = decomposition.split_tensor_bytes(
        np.array(packet_payload[:total], dtype=np.uint8)
    )
    return recompose_state_dict(decomposition, device)


def encode_packet(
    code: ErasureCode, data_group_index: int, payload: np.ndarray
) -> list[np.ndarray]:
    """The per-worker encode step: ``B(E'[i][j]) d`` for every parity ``i``.

    Args:
        code: the (k, m) erasure code.
        data_group_index: ``j``, the worker's data-group (chunk) index.
        payload: the worker's packet bytes.

    Returns:
        ``m`` encoded packets; XORing these across the reduction group's
        workers yields the parity packets.

    The unfused reference: the engine runs :func:`encode_group_into`, and
    the tests hold it to this function followed by :func:`xor_reduce`.
    """
    parity = code.parity_matrix
    field = code.field
    out: list[np.ndarray] = []
    for i in range(code.params.m):
        coeff = int(parity[i, data_group_index])
        out.append(field.mul_region(coeff, payload))
    return out


def xor_reduce(encoded_packets: list[np.ndarray]) -> np.ndarray:
    """XOR a reduction group's encoded packets into one parity packet.

    Runs on uint64 lanes whenever the packets are contiguous and
    word-divisible (the common case: packets are alignment-padded).
    """
    if not encoded_packets:
        raise CheckpointError("nothing to reduce")
    return xor_reduce_arrays(encoded_packets)


def xor_rows(code: ErasureCode) -> list[int]:
    """Parity rows that are the plain XOR of the data chunks (all ones)."""
    return [i for i, row in enumerate(code.parity_matrix) if all(int(c) == 1 for c in row)]


def derived_digest(
    code: ErasureCode, known: dict[int, int], cid: int, size: int
) -> int | None:
    """Chunk ``cid``'s digest by CRC-32 algebra, or None.

    An all-ones parity row ``i`` makes any one of data chunks ``0..k-1``
    and parity ``k + i`` the XOR of the other ``k``; if ``known`` (chunk
    id -> digest) holds all of theirs, ``cid``'s follows by
    :func:`~repro.core.integrity.xor_digest` without reading its bytes.
    """
    k = code.params.k
    for i in xor_rows(code):
        others = [c for c in (*range(k), k + i) if c != cid]
        if len(others) == k and all(c in known for c in others):
            return xor_digest([known[c] for c in others], size)
    return None


def encode_group_into(
    code: ErasureCode,
    packets: list[np.ndarray],
    out: list[np.ndarray],
    rows: list[int] | None = None,
    lengths: list[int] | None = None,
) -> None:
    """Fused encode + XOR reduction of one reduction group (Eqn. 6).

    Writes parity packet ``rows[n]`` — ``XOR_j B(E'[i][j]) d_j`` over the
    group's ``k`` packets — into ``out[n]`` in one blocked pass (see
    :func:`~repro.ec.kernels.apply_rows`).  Byte-identical to
    :func:`encode_packet` per worker + :func:`xor_reduce` per parity.

    Args:
        code: the (k, m) erasure code.
        packets: the group's ``k`` equal-size flat uint8 packets.
        out: a flat contiguous uint8 packet-size buffer per wanted row,
            none overlapping a packet.
        rows: parity indices to compute (default: the first ``len(out)``).
        lengths: each packet's payload length, to skip the padding past it.
    """
    if len(packets) != code.params.k:
        raise CheckpointError(
            f"need {code.params.k} packets to encode a group, got {len(packets)}"
        )
    rows = range(len(out)) if rows is None else rows
    if len(rows) != len(out):
        raise CheckpointError(f"{len(rows)} parity rows for {len(out)} buffers")
    apply_rows(code.field, code.parity_matrix[list(rows)], packets, out, lengths)


def decode_group_into(
    code: ErasureCode,
    available: dict[int, np.ndarray],
    lost: list[int],
    out: list[np.ndarray],
    lengths: dict[int, int] | None = None,
) -> None:
    """Fused decode of a reduction group's *lost* data packets only.

    Writes data packet ``lost[n]`` into ``out[n]``: the matching rows of
    the (cached) decoding matrix of the ``k`` available chunks
    :meth:`ErasureCode.survivors` chooses, applied in one blocked pass
    (see :func:`~repro.ec.kernels.apply_rows`).  Byte-identical to the
    same rows of ``code.decode(available)``.

    Args:
        code: the (k, m) erasure code.
        available: chunk id (0..k-1 data, k..k+m-1 parity) -> that
            chunk's equal-size flat uint8 packet for this group.
        lost: data chunk ids to reconstruct.
        out: a flat contiguous uint8 packet-size buffer per lost id,
            none overlapping an available packet.
        lengths: chunk id -> live length (a parity's: its group's longest).

    Raises:
        DecodeError: with fewer than ``k`` chunks, a non-data ``lost`` id
            or an available id outside ``0..n-1``.
    """
    k = code.params.k
    chosen = code.survivors(available)
    if len(lost) != len(out):
        raise CheckpointError(f"{len(lost)} lost chunks for {len(out)} buffers")
    if any(not 0 <= j < k for j in lost):
        raise DecodeError(f"only data chunks 0..{k - 1} decode, got {list(lost)}")
    rows = code.decoding_matrix(chosen)[list(lost)]
    hints = lengths and [lengths[c] for c in chosen]
    apply_rows(code.field, rows, [available[c] for c in chosen], out, hints)
