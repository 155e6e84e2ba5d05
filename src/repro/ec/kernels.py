"""The one byte-moving kernel: GF(2^8) rows applied over blocked regions.

Every encode and decode that touches checkpoint bytes — the engine's
fused per-group encode and decode (:mod:`repro.core.protocol`), the
library's :meth:`~repro.ec.base.ErasureCode.encode_fast` /
:meth:`~repro.ec.base.ErasureCode.decode_fast` and both pool encoders —
runs :func:`apply_rows`: ``out[n] = XOR_c matrix[n][c] * sources[c]``
over the table-driven region multiply of :mod:`repro.gf.field`, walked in
:data:`DEFAULT_CHUNK_BYTES` blocks so an input block is read once and the
accumulators stay in cache.  Bitmatrix (XOR-only) coding survives as a
reference and as the XOR-count ablations (:mod:`repro.ec.schedule`); see
DESIGN.md "The library: one kernel".
"""

from __future__ import annotations

import numpy as np

from repro.errors import CheckpointError, FieldError
from repro.gf.field import GF
from repro.obs import metrics as obs_metrics

#: Width of the XOR word: aligned buffers are XORed as ``uint64`` lanes.
WORD_BYTES = 8

#: Per-source block the kernel walks: large enough that per-block Python
#: overhead vanishes, small enough that a block of every source plus the
#: accumulators stays cache-resident.  Digests and padding hints round to
#: it too (:func:`live_prefix`).
DEFAULT_CHUNK_BYTES = 64 * 1024


def live_prefix(size: int, live: int | None) -> int:
    """Leading bytes of a ``size``-byte packet a pass touches when told its
    payload is ``live`` long: that, rounded up to the 64 KiB work block, if
    it spares a whole block (a CRC combine outweighs less); else all."""
    block = DEFAULT_CHUNK_BYTES
    reach = size if live is None else -(-max(live, 0) // block) * block
    return reach if size - reach >= block else size


def apply_rows(
    field: GF, matrix: np.ndarray, sources: list[np.ndarray], out: list[np.ndarray],
    lengths: list[int] | None = None,
) -> None:
    """``out[n] = XOR_c matrix[n][c] * sources[c]`` over GF(2^8).

    A block's first column is multiplied straight into the buffer and
    every further column XORed in — a coefficient 0 is skipped, a 1 is
    XORed straight from the source block, the rest go through one block
    of scratch — so no ``rows x columns`` intermediates exist.  The
    sources are walked in ``DEFAULT_CHUNK_BYTES`` blocks, all rows of a
    block before the next: an input block is read from memory once and
    the accumulators stay in cache.  Source ``c`` is zero from
    ``lengths[c]`` on: blocks past its :func:`live_prefix` are not read, an
    output block no source reaches is zero-filled.  Every check runs here,
    once, before anything is written; the loop calls unchecked kernels.
    """
    size = sources[0].size
    if any(a.shape != (size,) for a in (*sources, *out)):
        raise CheckpointError(f"packets and buffers must all be flat, {size} bytes")
    if any(a.dtype != np.uint8 for a in (*sources, *out)) or not all(
        buffer.flags.c_contiguous for buffer in out
    ):
        raise FieldError("packets must be uint8, buffers contiguous uint8")
    for n, buffer in enumerate(out):
        if any(np.may_share_memory(buffer, a) for a in (*sources, *out[:n])):
            raise FieldError("an output buffer overlaps a packet or another buffer")
    coefficients = [[int(c) for c in row] for row in matrix]
    if any(not 0 <= c < field.size for row in coefficients for c in row):
        raise FieldError("coefficient outside GF(2^8)")
    lengths = [size] * len(sources) if lengths is None else lengths
    if len(lengths) != len(sources) or any(not 0 <= n <= size for n in lengths):
        raise CheckpointError(f"need one length in [0, {size}] per packet: {lengths}")
    reach = [live_prefix(size, n) for n in lengths]
    scratch = np.empty(min(size, DEFAULT_CHUNK_BYTES), dtype=np.uint8)
    for start in range(0, size, DEFAULT_CHUNK_BYTES):
        end = min(size, start + DEFAULT_CHUNK_BYTES)
        blocks = [source[start:end] for source in sources]
        live = [c for c, n in enumerate(reach) if start < n]
        product = scratch[: end - start]
        for buffer, row in zip(out, coefficients):
            acc = buffer[start:end]
            if not live:
                acc.fill(0)
                continue
            field.mul_flat(row[live[0]], blocks[live[0]], acc)
            for c in live[1:]:
                if row[c] == 1:
                    field.xor_flat(blocks[c], acc)
                elif row[c]:
                    field.mul_flat(row[c], blocks[c], product)
                    field.xor_flat(product, acc)


def xor_reduce_into(acc: np.ndarray, sources: list[np.ndarray]) -> None:
    """``acc ^= XOR(sources)`` using uint64 lanes when the layout allows."""
    registry = obs_metrics.active()
    if registry is not None:
        registry.counter("kernels.xor_reduce_bytes").inc(
            acc.nbytes * len(sources)
        )
    if (
        acc.nbytes % WORD_BYTES == 0
        and acc.flags.c_contiguous
        and all(s.flags.c_contiguous for s in sources)
    ):
        a64 = acc.view(np.uint64)
        for s in sources:
            np.bitwise_xor(a64, s.view(np.uint64), out=a64)
    else:
        for s in sources:
            np.bitwise_xor(acc, s, out=acc)


def xor_reduce_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """XOR equal-size uint8 arrays into a fresh accumulator."""
    acc = np.array(arrays[0], dtype=np.uint8, copy=True).ravel()
    xor_reduce_into(acc, [np.ascontiguousarray(a, dtype=np.uint8).ravel() for a in arrays[1:]])
    return acc
