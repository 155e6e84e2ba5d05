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
:meth:`repro.core.eccheck.ECCheckEngine.save_incremental` drives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CheckpointError


@dataclass(frozen=True)
class DeltaSummary:
    """Dirty-block accounting of one packet delta."""

    block_size: int
    total_blocks: int
    dirty_blocks: int
    dirty_bytes: int

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
    delta = old ^ new
    total_blocks = -(-delta.nbytes // block_size) if delta.nbytes else 0
    dirty_blocks = 0
    dirty_bytes = 0
    if total_blocks:
        # One vectorized reduction instead of a Python loop per block:
        # view the delta as (blocks, block_size) and ask which rows contain
        # any set bit.  When the packet is block-aligned — the common case,
        # since engine packets are padded to ``packet_alignment`` — the
        # reshape is a zero-copy view of ``delta`` itself; only ragged
        # tails pay the zero-padded staging copy.
        if delta.nbytes % block_size == 0:
            dirty = delta.reshape(total_blocks, block_size).any(axis=1)
        else:
            padded = np.zeros(total_blocks * block_size, dtype=np.uint8)
            padded[: delta.nbytes] = delta
            dirty = padded.reshape(total_blocks, block_size).any(axis=1)
        dirty_blocks = int(np.count_nonzero(dirty))
        dirty_bytes = dirty_blocks * block_size
        # The final block may be short; padding never sets bits, so only
        # the real tail bytes count when that block is dirty.
        tail = delta.nbytes - (total_blocks - 1) * block_size
        if dirty[-1]:
            dirty_bytes -= block_size - tail
    return delta, DeltaSummary(
        block_size=block_size,
        total_blocks=total_blocks,
        dirty_blocks=dirty_blocks,
        dirty_bytes=dirty_bytes,
    )


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
