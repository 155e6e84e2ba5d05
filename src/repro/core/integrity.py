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

CRC-32 is also *affine* over GF(2) — ``crc(a ^ b) = crc(a) ^ crc(b) ^
crc(0^n)`` for ``n``-byte buffers — which is what lets a delta save derive
a patched chunk's digest from the old digest and the dirty pieces alone
(:func:`patch_digest`), the RAID small-write rule applied to the checksum.
The same identity over ``n`` chunks (:func:`xor_digest`) gives a chunk
that is the XOR of others — parity 0, or a data chunk rebuilt as parity 0
XOR the rest — its digest without reading it: the digest of the bytes it
*should* hold, so a wrong encode or decode fails the next verification.

Padding is arithmetic, not work: a caller that holds a zero-padded
packet's true length passes it as ``live``, and :func:`chunk_digest` CRCs
the :func:`~repro.ec.kernels.live_prefix` and folds the zero tail in by
:func:`crc32_combine`.
:func:`verify_chunk` first scans that the tail *is* zero (an order cheaper
than a CRC), so a hint makes a check cheaper, never more lenient.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from repro.ec.kernels import live_prefix
from repro.errors import CheckpointError

_POLY = 0xEDB88320  # the CRC-32 polynomial, reflected: bit 31 is x^0


def _multmodp(a: int, b: int) -> int:
    """``a(x) * b(x) mod P`` on reflected polynomials (zlib's ``multmodp``)."""
    product, bit = 0, 1 << 31
    while a:
        if a & bit:
            product ^= b
            a ^= bit
        bit >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1
    return product


@lru_cache(maxsize=4096)
def _x8n(n: int) -> int:
    """``x^(8n) mod P``: what ``n`` further bytes multiply a CRC register by."""
    power, square = 1 << 31, 1 << 23  # x^0, x^8
    while n:
        if n & 1:
            power = _multmodp(square, power)
        square = _multmodp(square, square)
        n >>= 1
    return power


def crc32_combine(crc_a: int, crc_b: int, len_b: int) -> int:
    """CRC-32 of ``A || B`` from the CRC-32s of ``A`` and ``B`` (zlib's
    ``crc32_combine``, which Python's ``zlib`` does not expose)."""
    return _multmodp(_x8n(len_b), crc_a) ^ crc_b


@lru_cache(maxsize=4096)
def crc32_zeros(n: int) -> int:
    """CRC-32 of ``n`` zero bytes, in closed form."""
    return crc32_combine(0xFFFFFFFF, 0xFFFFFFFF, n)


def _own_bytes(payload: np.ndarray | bytes) -> np.ndarray:
    """The payload's own memory, flat: no value cast, no copy of a packet."""
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload).reshape(-1).view(np.uint8)
    return np.frombuffer(payload, dtype=np.uint8)


def chunk_digest(payload: np.ndarray | bytes, live: int | None = None) -> int:
    """CRC-32 digest of a chunk packet's bytes; ``live`` promises that all
    past :func:`live_prefix` is zero, so only the prefix is CRC'd (a false
    promise yields a digest the payload fails)."""
    payload = _own_bytes(payload)
    reach = live_prefix(payload.size, live)
    crc = zlib.crc32(payload[:reach]) & 0xFFFFFFFF
    tail = payload.size - reach
    return crc32_combine(crc, crc32_zeros(tail), tail) if tail else crc


def patch_digest(digest: int, size: int, start: int, piece: np.ndarray) -> int:
    """Digest of a ``size``-byte chunk after ``piece`` is XORed in at ``start``.

    ``digest`` is the chunk's digest before the patch.  Only the piece is
    CRC'd: its zero-input-corrected CRC is shifted past the ``size - start
    - len(piece)`` bytes that follow it and XORed in.

    Raises:
        CheckpointError: if the piece does not fit inside the chunk.
    """
    tail = size - start - piece.size
    if start < 0 or tail < 0:
        raise CheckpointError(
            f"piece [{start}, {start + piece.size}) is outside a {size}-byte chunk"
        )
    return digest ^ _multmodp(_x8n(tail), chunk_digest(piece) ^ crc32_zeros(piece.size))


def xor_digest(digests: list[int], size: int) -> int:
    """Digest of the XOR of ``n`` ``size``-byte chunks from their digests:
    ``crc(x_1 ^ ... ^ x_n) = XOR crc(x_i) ^ [n even] crc(0^size)``."""
    out = crc32_zeros(size) if len(digests) % 2 == 0 else 0
    for digest in digests:
        out ^= digest
    return out


def verify_chunk(
    payload: np.ndarray | bytes, digest: int, live: int | None = None
) -> bool:
    """True if the payload still matches its stored digest — the same
    verdict for every ``live``: the closed form stands in for the tail's
    CRC only once the tail was scanned (a SIMD max) and found zero."""
    payload = _own_bytes(payload)
    reach = live_prefix(payload.size, live)
    if reach < payload.size and payload[reach:].max():
        live = None
    return chunk_digest(payload, live) == digest


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
