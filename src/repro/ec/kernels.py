"""Word-packed GF(2) XOR kernels — the encode/decode hot path.

Bitmatrix (Cauchy RS) coding reduces every encode/decode to three stages:

1. **decompose** each block into ``w`` bit-plane strips (packed, one bit
   per data word, eight positions per strip byte),
2. **XOR** strips together according to a compiled
   :class:`~repro.ec.schedule.XorSchedule`, and
3. **recompose** output strips back into contiguous blocks.

This module implements all three as vectorised numpy kernels operating on
one preallocated 2-D workspace of shape ``(n_strips, row_bytes)`` whose
rows are padded to a multiple of :data:`WORD_BYTES` so the XOR stage can
always run on ``uint64`` views — eight bytes per numpy element, no
fallback scalar path, no per-strip Python dict bookkeeping.

Three facts make the kernels fast:

* ``np.packbits`` treats any non-zero byte as a 1-bit, so the ``w``
  bit-planes of a block are one broadcast AND against the plane masks plus
  one ``packbits(..., axis=1)`` — no shift/compare temporaries.
* For ``w = 8`` recompose is a SWAR 8x8 bit transpose on ``uint64`` words
  (three shift/mask rounds, Hacker's-Delight style) instead of
  ``unpackbits`` + shift + OR-reduce: ~2.5x fewer memory passes.
* The whole computation is **cache-blocked**: :func:`apply_schedule_blocks`
  walks the blocks in sub-ranges of :data:`DEFAULT_CHUNK_BYTES` so every
  strip the XOR stage touches stays L2-resident.  On a 64 MiB payload this
  was measured at ~7x over processing full-size strips.

The strip layout invariant (documented in DESIGN.md "Hot path
architecture"): within one chunk of ``L`` bytes, word ``t`` of a block
contributes bit ``i`` to bit position ``t`` of strip ``i``; strips pack
positions big-endian-first via ``packbits``.  The layout is internal —
only round-trip consistency and XOR-linearity matter — which is what lets
the chunked path re-pack each sub-range independently.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeConfigError
from repro.obs import metrics as obs_metrics

#: Width of the XOR word: strips are XORed as ``uint64`` lanes.
WORD_BYTES = 8

#: Per-block sub-range processed per workspace pass.  64 KiB keeps the
#: whole strip workspace of a (k=12, m=4, w=8) code — including the CSE
#: temp rows of a Paar schedule — ~1.5 MiB, inside L2 on the hosts this
#: repo targets; measured optimum of a (chunk x temps) sweep.  A constant
#: on purpose: measured per-shape selection never beat it outside noise
#: (DESIGN.md "Why the kernel variant is a constant").
DEFAULT_CHUNK_BYTES = 64 * 1024

# A compiled schedule op.  Scalar form: ``(dest row, source row indices)``
# — the destination is overwritten with the XOR of all sources (zeroed if
# there are none); any "start from a base row" semantics is folded into
# the source list by the schedule compiler.  Batched form:
# ``(slice(lo, hi), [A, B])`` — a level of independent two-source ops
# executed as one gather-XOR into the contiguous destination rows.
CompiledOp = tuple[int, np.ndarray] | tuple[slice, list[np.ndarray]]

_SHIFTS8 = np.arange(8, dtype=np.uint8)[:, None]
_PLANE_MASKS8 = (np.uint8(1) << np.arange(8, dtype=np.uint8))[:, None]

# Masks/shifts of the classic 8x8 bit-matrix transpose on a uint64
# (Hacker's Delight transpose8): three rounds of swap-fields.
_T8_MASKS = (
    np.uint64(0x00AA00AA00AA00AA),
    np.uint64(0x0000CCCC0000CCCC),
    np.uint64(0x00000000F0F0F0F0),
)
_T8_SHIFTS = (np.uint64(7), np.uint64(14), np.uint64(28))


def range_alignment(w: int) -> int:
    """Byte alignment a sub-range boundary must honour for word size ``w``.

    ``WORD_BYTES`` keeps every strip an exact number of packed bytes (so
    the ``uint64`` XOR path never sees a ragged row mid-block); ``w = 16``
    additionally needs two-byte words, and 16 is the least common multiple.
    """
    if w == 16:
        return 16
    return WORD_BYTES


def padded_row_bytes(strip_bytes: int) -> int:
    """Round a strip length up to whole ``uint64`` words."""
    return (strip_bytes + WORD_BYTES - 1) // WORD_BYTES * WORD_BYTES


def strip_bytes_for(n_bytes: int, w: int) -> int:
    """Packed size of one bit-plane strip of an ``n_bytes`` block."""
    n_words = n_bytes // 2 if w == 16 else n_bytes
    return (n_words + 7) // 8


def decompose_into(block: np.ndarray, w: int, rows: np.ndarray) -> None:
    """Fill ``rows[i, :strip]`` with bit-plane ``i`` of ``block``.

    ``block`` must be a contiguous uint8 array whose length is divisible
    by ``w`` (two-byte aligned for ``w = 16``); ``rows`` is a ``(w, >=strip)``
    slice of the workspace.  Bytes past the strip length are left untouched
    — downstream consumers only read ``[:strip]``.
    """
    if w == 16:
        # Little-endian uint16 words: planes 0-7 are the bit-planes of the
        # low bytes, planes 8-15 of the high bytes, so one de-interleave
        # reduces w=16 to two runs of the fast uint8 path (~20x quicker
        # than masking uint16 words plane by plane, which forces packbits
        # through a cast).
        n_words = block.size // 2
        strip = (n_words + 7) // 8
        halves = np.ascontiguousarray(block.reshape(-1, 2).T)
        planes = halves[:, None, :] & _PLANE_MASKS8[None, :, 0:1]
        rows[:16, :strip] = np.packbits(planes, axis=2).reshape(16, strip)
    elif w in (1, 2, 4, 8):
        strip = (block.size + 7) // 8
        # packbits maps any non-zero byte to a 1-bit, so one broadcast AND
        # against the plane masks extracts all w planes in two numpy calls.
        rows[:w, :strip] = np.packbits(block[None, :] & _PLANE_MASKS8[:w], axis=1)
    else:
        raise CodeConfigError(f"unsupported w={w} for bitplanes")


def _swar_recompose8(rows8: np.ndarray, strip: int, count: int) -> np.ndarray:
    """Fold 8 packed strips back into ``count`` bytes via a SWAR transpose.

    Interleaves the strips so each uint64 word holds one byte from every
    plane, bit-transposes each 8x8 matrix in three shift/mask rounds, and
    the byteswapped result *is* the output bytes.  ~2.5x fewer memory
    passes than unpackbits + shift + OR-reduce.
    """
    inter = np.ascontiguousarray(rows8[:, :strip].T)
    x = inter.view(np.uint64).ravel()
    for mask, shift in zip(_T8_MASKS, _T8_SHIFTS):
        t = (x ^ (x >> shift)) & mask
        x = x ^ t ^ (t << shift)
    return x.byteswap().view(np.uint8)[:count]


def recompose_into(rows: np.ndarray, w: int, out: np.ndarray) -> None:
    """Inverse of :func:`decompose_into`: strips ``rows`` -> bytes ``out``."""
    n_bytes = out.size
    if w == 16:
        # Mirror of the w=16 decompose: strips 0-7 recompose the low bytes
        # of each uint16 word, strips 8-15 the high bytes; one interleaving
        # write re-forms the words.
        n_words = n_bytes // 2
        strip = (n_words + 7) // 8
        pair = out.reshape(n_words, 2)
        pair[:, 0] = _swar_recompose8(rows[:8], strip, n_words)
        pair[:, 1] = _swar_recompose8(rows[8:16], strip, n_words)
    elif w == 8:
        strip = (n_bytes + 7) // 8
        out[:] = _swar_recompose8(rows[:8], strip, n_bytes)
    elif w == 4:
        # Zero-padding planes 4-7 lets the 64-bit SWAR transpose assemble
        # the low nibbles directly — measured faster than the 8-bit
        # unpackbits + shift + OR-reduce path it replaces (w = 1, 2 keep
        # that path: padding 6-7 zero planes erases the win).
        strip = (n_bytes + 7) // 8
        padded = np.zeros((8, strip), dtype=np.uint8)
        padded[:4] = rows[:4, :strip]
        out[:] = _swar_recompose8(padded, strip, n_bytes)
    elif w in (1, 2):
        strip = (n_bytes + 7) // 8
        bits = np.unpackbits(
            np.ascontiguousarray(rows[:w, :strip]), axis=1, count=n_bytes
        )
        np.left_shift(bits, _SHIFTS8[:w], out=bits)
        np.bitwise_or.reduce(bits, axis=0, out=out)
    else:
        raise CodeConfigError(f"unsupported w={w} for bitplanes")


def run_compiled_ops(work64: np.ndarray, ops: list[CompiledOp]) -> None:
    """Execute compiled schedule ops on the uint64 view of the workspace.

    Each op overwrites one destination row with the XOR of its source rows.
    One- and two-source ops are single ufunc calls; larger batches go
    through one fancy-index gather + ``np.bitwise_xor.reduce`` writing
    straight into the destination — no copy/zero prologue pass.  The
    gather copies its operands first, so an op may safely list its own
    destination among the sources.  Slice-dest ops execute a whole level
    of independent two-source ops in one call (see
    :meth:`repro.ec.schedule.XorSchedule.compiled_ops`).
    """
    for dest, sources in ops:
        if type(dest) is slice:
            a, b = sources
            np.bitwise_xor(work64[a], work64[b], out=work64[dest])
            continue
        d = work64[dest]
        n = sources.size
        if n == 2:
            np.bitwise_xor(work64[sources[0]], work64[sources[1]], out=d)
        elif n > 2:
            np.bitwise_xor.reduce(work64[sources], axis=0, out=d)
        elif n == 1:
            np.copyto(d, work64[sources[0]])
        else:
            d[:] = 0


def schedule_workspace_rows(ops: list[CompiledOp], min_rows: int) -> int:
    """Workspace row count a compiled schedule needs.

    Schedules with common-subexpression temps address rows past the
    ``(n_in + n_out) * w`` block strips; size the workspace to the highest
    row any op touches.
    """
    rows = min_rows
    for dest, sources in ops:
        if type(dest) is slice:
            rows = max(rows, dest.stop)
            for idx in sources:
                if idx.size:
                    rows = max(rows, int(idx.max()) + 1)
            continue
        rows = max(rows, dest + 1)
        if sources.size:
            rows = max(rows, int(sources.max()) + 1)
    return rows


def schedule_xor_count(ops: list[CompiledOp]) -> int:
    """Logical XOR count of one pass of a compiled schedule.

    A scalar op XORing ``n`` sources costs ``n - 1`` row XORs (a 1-source
    op is a copy, a 0-source op a zero fill); a batched level op performs
    one two-source XOR per destination row.
    """
    xors = 0
    for dest, sources in ops:
        if type(dest) is slice:
            xors += dest.stop - dest.start
        else:
            xors += max(int(sources.size) - 1, 0)
    return xors


def apply_schedule_blocks(
    ops: list[CompiledOp],
    in_blocks: list[np.ndarray],
    out_blocks: list[np.ndarray],
    w: int,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> None:
    """Run a compiled strip schedule over whole blocks, cache-blocked.

    ``ops`` index strips as ``0 .. len(in_blocks)*w - 1`` for inputs,
    ``len(in_blocks)*w ..`` for outputs, and any rows past
    ``(len(in_blocks) + len(out_blocks)) * w`` as schedule temporaries (the
    global strip numbering of :mod:`repro.ec.schedule`).  Output bytes land
    directly in ``out_blocks`` — callers pass preallocated arrays or views
    (e.g. the thread-pool encoder's sub-range views) and no intermediate
    full-size copies are made.

    Raises:
        CodeConfigError: if block sizes are not divisible by ``w`` or the
            chunk size is not aligned for ``w``.
    """
    size = in_blocks[0].size
    if size % w:
        raise CodeConfigError(
            f"bitmatrix kernels need block size divisible by w={w}, got {size}"
        )
    align = range_alignment(w)
    chunk = max(align, chunk_bytes // align * align)
    n_in, n_out = len(in_blocks), len(out_blocks)
    registry = obs_metrics.active()
    if registry is not None:
        # Off the hot path by default: ``active()`` is None unless a
        # tracer/metrics registry was explicitly installed.
        per_pass = schedule_xor_count(ops)
        passes = -(-size // chunk)
        registry.counter("kernels.calls").inc()
        registry.counter("kernels.bytes_in").inc(size * n_in)
        registry.counter("kernels.bytes_out").inc(size * n_out)
        registry.counter("kernels.xor_ops_scheduled").inc(per_pass)
        registry.counter("kernels.xor_ops_executed").inc(per_pass * passes)
    row = padded_row_bytes(strip_bytes_for(min(chunk, size), w))
    n_rows = schedule_workspace_rows(ops, (n_in + n_out) * w)
    work = np.empty((n_rows, row), dtype=np.uint8)
    work64 = work.view(np.uint64)
    for start in range(0, size, chunk):
        end = min(size, start + chunk)
        for b in range(n_in):
            decompose_into(in_blocks[b][start:end], w, work[b * w : (b + 1) * w])
        run_compiled_ops(work64, ops)
        for b in range(n_out):
            base = (n_in + b) * w
            recompose_into(work[base : base + w], w, out_blocks[b][start:end])


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
