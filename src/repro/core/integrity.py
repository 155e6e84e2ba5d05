"""Chunk integrity verification.

Host-memory checkpoints can rot in ways machine failure does not announce:
a DMA gone wrong, a bit flip, a buggy peer writing into the wrong buffer.
An erasure code only guarantees recovery if the surviving chunks are the
bytes originally written, so ECCheck stores a digest next to every chunk
packet and verifies on load; a chunk failing verification is simply
treated as one more *erasure*, which the code already knows how to decode
around (while a corrupted chunk fed straight into the decoder would
corrupt every reconstructed packet silently).

CRC-32 (zlib) is used: this is error *detection* for operational faults,
not authentication — matching the paper's scope, which explicitly leaves
security out.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import CheckpointError


def chunk_digest(payload: np.ndarray | bytes) -> int:
    """CRC-32 digest of a chunk packet's bytes."""
    if isinstance(payload, np.ndarray):
        # CRC the array's own memory: a contiguous uint8 packet (every
        # stored chunk) is digested without the full copy ``tobytes`` makes.
        payload = np.ascontiguousarray(payload, dtype=np.uint8).reshape(-1).data
    return zlib.crc32(payload) & 0xFFFFFFFF


def verify_chunk(payload: np.ndarray | bytes, digest: int) -> bool:
    """True if the payload still matches its stored digest."""
    return chunk_digest(payload) == digest


def corrupt_buffer(payload: np.ndarray, byte_index: int = 0, mask: int = 0xFF) -> None:
    """Flip bits in place — the fault-injection helper used by tests.

    Raises:
        CheckpointError: if the index is out of range or the mask is a
            no-op (which would silently weaken a test).
    """
    if payload.dtype != np.uint8:
        raise CheckpointError("corrupt_buffer expects a uint8 buffer")
    if not 0 <= byte_index < payload.size:
        raise CheckpointError(
            f"byte_index {byte_index} out of range [0, {payload.size})"
        )
    if mask == 0:
        raise CheckpointError("mask 0 would not corrupt anything")
    payload[byte_index] ^= mask
