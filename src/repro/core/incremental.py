"""Incremental (delta) checkpoint encoding.

Between consecutive checkpoints most of a worker's state changes, but not
all of it (frozen embeddings, integer metadata pages, padding, optimizer
state of untouched sparse rows).  Because every code in this package is
*linear* over GF(2), parity can be updated without re-encoding the whole
packet:

    parity_new = parity_old XOR encode(packet_old XOR packet_new)

and the delta ``packet_old XOR packet_new`` is zero wherever state did not
change, so only *dirty blocks* need encoding and network transfer.  This
is the erasure-coded cousin of Check-N-Run's incremental checkpointing
(cited in the paper's related work) — with no quantization and hence no
accuracy trade-off.

This module provides the block-level delta machinery; the engine method
:meth:`repro.core.eccheck.ECCheckEngine.save_incremental` drives it.  The
engine never compares whole packets: step 1's walk names the tensors that
may have changed since the base (:class:`~repro.tensors.tensor.SimTensor`
counts its own writes), and :func:`tracked_delta` XORs and scans only
their bytes.  :func:`packet_delta`, the full compare, is its oracle.

Two granularities are kept apart.  *Accounting* runs at the caller's
``block_size``: it sets ``dirty_fraction`` and with it every simulated
byte and second.  *Work* runs at the kernel's ``DEFAULT_CHUNK_BYTES``
(64 KiB, the block :func:`repro.core.protocol.encode_group_into` walks):
:attr:`DeltaSummary.dirty_runs` names the byte ranges that hold every
changed byte, and the engine encodes, patches and digests only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ec.kernels import DEFAULT_CHUNK_BYTES
from repro.errors import CheckpointError


@dataclass(frozen=True)
class DeltaSummary:
    """Dirty-block accounting of one packet delta."""

    block_size: int
    total_blocks: int
    dirty_blocks: int
    dirty_bytes: int
    #: ``[start, end)`` byte ranges covering every non-zero delta byte:
    #: maximal runs of dirty ``DEFAULT_CHUNK_BYTES`` blocks, in order.
    dirty_runs: tuple[tuple[int, int], ...] = ()

    @property
    def dirty_fraction(self) -> float:
        """Fraction of the packet that must be re-encoded / transferred."""
        if self.total_blocks == 0:
            return 0.0
        return self.dirty_blocks / self.total_blocks


def packet_delta(
    old: np.ndarray, new: np.ndarray, block_size: int = 64 * 1024
) -> tuple[np.ndarray, DeltaSummary]:
    """XOR delta of two equal-size packets plus dirty-block accounting.

    Args:
        old: previous checkpoint packet (uint8).
        new: current checkpoint packet (uint8, same size).
        block_size: dirty-tracking granularity in bytes.

    Returns:
        ``(delta, summary)`` where ``delta = old ^ new``.

    Raises:
        CheckpointError: on size mismatch or non-positive block size.
    """
    if block_size < 1:
        raise CheckpointError(f"block_size must be >= 1, got {block_size}")
    old = np.ascontiguousarray(old, dtype=np.uint8).ravel()
    new = np.ascontiguousarray(new, dtype=np.uint8).ravel()
    if old.nbytes != new.nbytes:
        raise CheckpointError(
            f"packet sizes differ: {old.nbytes} vs {new.nbytes}"
        )
    delta = np.bitwise_xor(old, new)
    return delta, _summary(delta, [(0, delta.nbytes)], block_size)


def tracked_delta(
    base: np.ndarray,
    changed: list[tuple[int, np.ndarray]],
    out: np.ndarray,
    block_size: int = 64 * 1024,
) -> tuple[list[tuple[int, int]], DeltaSummary]:
    """XOR delta of a packet that differs from ``base`` only in ``changed``.

    Each ``(offset, bytes)`` piece is XORed against ``base`` into ``out``;
    dirty blocks are looked for only in the blocks the pieces touch.

    Args:
        base: the previous checkpoint packet (uint8).
        changed: the new packet's bytes wherever they may differ from
            ``base``, as ``(offset, flat uint8 bytes)`` pieces in offset
            order; elsewhere the new packet equals ``base``.
        out: scratch as large as ``base``, zero outside the pieces; left
            holding the delta (the caller zeroes ``ranges`` after use).
        block_size: dirty-tracking granularity in bytes.

    Returns:
        ``(ranges, summary)``: the pieces' merged ``[start, end)`` byte
        ranges, and the summary :func:`packet_delta` gives for ``base``
        and the new packet.
    """
    ranges: list[tuple[int, int]] = []
    for start, piece in changed:
        end = start + piece.size
        if end == start:
            continue
        np.bitwise_xor(base[start:end], piece, out=out[start:end])
        if ranges and ranges[-1][1] == start:
            ranges[-1] = (ranges[-1][0], end)
        else:
            ranges.append((start, end))
    return ranges, _summary(out, ranges, block_size)


def _summary(
    delta: np.ndarray, ranges: list[tuple[int, int]], block_size: int
) -> DeltaSummary:
    """Dirty-block accounting of ``delta``, which is zero outside ``ranges``."""
    dirty = _dirty_mask(delta, ranges, block_size)
    dirty_blocks = int(np.count_nonzero(dirty))
    dirty_bytes = dirty_blocks * block_size
    # The final block may be short: only its real bytes count when dirty.
    if dirty.size and dirty[-1]:
        dirty_bytes -= dirty.size * block_size - delta.nbytes
    coarse = (
        dirty
        if block_size == DEFAULT_CHUNK_BYTES
        else _dirty_mask(delta, ranges, DEFAULT_CHUNK_BYTES)
    )
    edges = np.flatnonzero(np.diff(coarse, prepend=False, append=False)).tolist()
    return DeltaSummary(
        block_size=block_size,
        total_blocks=dirty.size,
        dirty_blocks=dirty_blocks,
        dirty_bytes=dirty_bytes,
        dirty_runs=tuple(
            (first * DEFAULT_CHUNK_BYTES, min(last * DEFAULT_CHUNK_BYTES, delta.nbytes))
            for first, last in zip(edges[::2], edges[1::2])
        ),
    )


def _dirty_mask(
    delta: np.ndarray, ranges: list[tuple[int, int]], block_size: int
) -> np.ndarray:
    """Which ``block_size`` blocks of ``delta`` hold a set bit (bool per
    block), looking only at the blocks that overlap ``ranges`` (sorted and
    disjoint): the rest of ``delta`` is zero."""
    dirty = np.full(-(-delta.nbytes // block_size), False)
    spans: list[list[int]] = []
    for start, end in ranges:
        first, stop = start // block_size, -(-end // block_size)
        if spans and spans[-1][1] >= first:
            spans[-1][1] = stop
        else:
            spans.append([first, stop])
    for first, stop in spans:
        dirty[first:stop] = _dirty_blocks(
            delta[first * block_size : stop * block_size], block_size
        )
    return dirty


def _dirty_blocks(delta: np.ndarray, block_size: int) -> np.ndarray:
    """Which ``block_size`` blocks of ``delta`` hold a set bit (bool per block).

    One vectorized reduction over a zero-copy ``(blocks, block_size)`` view
    of the whole blocks — on uint64 lanes when the block size allows, an
    eighth of the elements — plus the ragged tail on its own; nothing is
    staged or padded.
    """
    whole = delta.nbytes // block_size
    body = delta[: whole * block_size]
    if block_size % 8 == 0:
        body = body.view(np.uint64)
    body = body.reshape(whole, body.size // max(whole, 1))
    dirty = np.empty(-(-delta.nbytes // block_size), dtype=bool)
    np.not_equal(np.bitwise_or.reduce(body, axis=1), 0, out=dirty[:whole])
    if dirty.size > whole:
        dirty[whole] = delta[whole * block_size :].any()
    return dirty


def apply_delta(
    base: np.ndarray, delta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Return ``base XOR delta`` — a new array, or ``out`` (which may be
    ``delta`` itself: a freshly encoded parity delta becomes the parity)."""
    base = np.ascontiguousarray(base, dtype=np.uint8).ravel()
    delta = np.ascontiguousarray(delta, dtype=np.uint8).ravel()
    if base.nbytes != delta.nbytes:
        raise CheckpointError(
            f"delta size {delta.nbytes} does not match base {base.nbytes}"
        )
    return np.bitwise_xor(base, delta, out=out)
