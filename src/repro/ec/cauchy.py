"""Cauchy Reed-Solomon code — the coding scheme ECCheck adopts.

A Cauchy matrix ``C[i][j] = 1 / (x_i + y_j)`` over GF(2^w) (with all
``x_i``, ``y_j`` distinct) has the property that every square submatrix is
invertible, so ``[I; C]`` is the generator of an MDS code.  Projected to a
GF(2) bitmatrix (:mod:`repro.gf.bitmatrix`), encoding becomes XOR-only,
which is what lets ECCheck encode checkpoints on CPU without slowing GPU
training.

This module provides both paths:

* the field-arithmetic path inherited from :class:`~repro.ec.base.ErasureCode`
  (used as a cross-check and for decoding), and
* :meth:`CauchyRSCode.encode_bitmatrix`, the XOR-only path driven by a
  compiled :class:`~repro.ec.schedule.XorSchedule`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import CodeConfigError
from repro.ec.base import CodeParams, ErasureCode
from repro.ec.kernels import (
    DEFAULT_CHUNK_BYTES,
    apply_schedule_blocks,
    decompose_into,
    padded_row_bytes,
    recompose_into,
    strip_bytes_for,
)
from repro.ec.schedule import XorSchedule, dumb_schedule, paar_schedule
from repro.gf.bitmatrix import bitmatrix_from_matrix
from repro.gf.field import GF

# ----------------------------------------------------------------------
# Compile-once caches.  A code's parity bitmatrix and its compiled XOR
# schedule are functions of (k, m, w, good_matrix) alone, so every
# CauchyRSCode instance with the same shape shares one compilation —
# checkpoint engines create fresh codes per job, and without these caches
# each one re-ran the Jerasure-style matrix/schedule construction.
# ----------------------------------------------------------------------
_PARITY_BITMATRIX_CACHE: dict[tuple[int, int, int, bool], np.ndarray] = {}
_SCHEDULE_CACHE: dict[tuple[int, int, int, bool], XorSchedule] = {}
_CACHE_STATS = {
    "bitmatrix_hits": 0,
    "bitmatrix_misses": 0,
    "schedule_hits": 0,
    "schedule_misses": 0,
}


def cached_parity_bitmatrix(code: "CauchyRSCode") -> np.ndarray:
    """The code's parity bitmatrix, memoised per (k, m, w, good_matrix)."""
    p = code.params
    key = (p.k, p.m, p.w, code.good_matrix)
    bm = _PARITY_BITMATRIX_CACHE.get(key)
    if bm is None:
        _CACHE_STATS["bitmatrix_misses"] += 1
        bm = bitmatrix_from_matrix(code.parity_matrix, code.field)
        bm.setflags(write=False)
        _PARITY_BITMATRIX_CACHE[key] = bm
    else:
        _CACHE_STATS["bitmatrix_hits"] += 1
    return bm


def cached_schedule(code: "CauchyRSCode") -> XorSchedule:
    """The Paar-compiled encode schedule, memoised per (k, m, w, good_matrix)."""
    p = code.params
    key = (p.k, p.m, p.w, code.good_matrix)
    schedule = _SCHEDULE_CACHE.get(key)
    if schedule is None:
        _CACHE_STATS["schedule_misses"] += 1
        schedule = paar_schedule(cached_parity_bitmatrix(code), p.k, p.m, p.w)
        _SCHEDULE_CACHE[key] = schedule
    else:
        _CACHE_STATS["schedule_hits"] += 1
    return schedule


def schedule_cache_info() -> dict[str, int]:
    """Hit/miss counters of the module-level compile caches."""
    return dict(
        _CACHE_STATS,
        bitmatrix_entries=len(_PARITY_BITMATRIX_CACHE),
        schedule_entries=len(_SCHEDULE_CACHE),
    )


def build_cauchy_matrix(k: int, m: int, field: GF) -> np.ndarray:
    """Build an ``m x k`` Cauchy matrix over GF(2^w).

    Uses ``x_i = i`` for parity rows and ``y_j = m + j`` for data columns,
    the same convention as Jerasure's ``cauchy_original_coding_matrix``.

    Raises:
        CodeConfigError: if ``k + m`` exceeds the field size.
    """
    if k + m > field.size:
        raise CodeConfigError(
            f"k + m = {k + m} exceeds field size 2^{field.w} = {field.size}"
        )
    out = np.zeros((m, k), dtype=np.uint32)
    for i in range(m):
        for j in range(k):
            out[i, j] = field.inv(i ^ (m + j))
    return out


def bitmatrix_ones(mat: np.ndarray, field: GF) -> int:
    """Number of 1-bits in a matrix's bitmatrix expansion.

    Each 1 is one XOR in naive bitmatrix encoding, so this is the encoding
    cost the "good" matrix construction minimises.
    """
    return int(bitmatrix_from_matrix(mat, field).sum())


def build_cauchy_good_matrix(k: int, m: int, field: GF) -> np.ndarray:
    """Jerasure's ``cauchy_good_general_coding_matrix`` construction.

    Scaling a row (or column) of a Cauchy matrix by a non-zero constant
    preserves the any-square-submatrix-invertible property, but changes
    how many 1-bits its bitmatrix expansion has — i.e. how many XORs
    encoding costs.  This construction divides every column by its first
    entry (making row 0 all ones: zero-cost XOR copies), then greedily
    rescales each remaining row by the divisor minimising that row's
    bitmatrix ones.
    """
    cauchy = build_cauchy_matrix(k, m, field)
    good = cauchy.copy()
    # Column scaling: make row 0 all ones.
    for j in range(k):
        inv = field.inv(int(good[0, j]))
        for i in range(m):
            good[i, j] = field.mul(int(good[i, j]), inv)
    # Row scaling: greedily minimise each row's bit count.
    for i in range(1, m):
        row = good[i].copy()
        best_row, best_ones = row, bitmatrix_ones(row[None, :], field)
        for divisor in row:
            divisor = int(divisor)
            if divisor in (0, 1):
                continue
            scaled = np.array(
                [field.div(int(v), divisor) for v in row], dtype=np.uint32
            )
            ones = bitmatrix_ones(scaled[None, :], field)
            if ones < best_ones:
                best_row, best_ones = scaled, ones
        good[i] = best_row
    return good


class CauchyRSCode(ErasureCode):
    """Systematic Cauchy Reed-Solomon code over GF(2^w).

    Args:
        params: the (k, m, w) code shape.
        good_matrix: use the XOR-minimised "good" Cauchy construction
            instead of the original one.  The checkpoint engines do
            (``ECCheckEngine.code_for``); the library default stays
            False for the ablations that compare the two.  Simulated
            numbers never depended on the choice (encode seconds are
            billed by bytes); wall time and the parity bytes do.

    Example:
        >>> code = CauchyRSCode(CodeParams(k=2, m=2, w=8))
        >>> data = [np.frombuffer(b"abcdefgh", dtype=np.uint8).copy(),
        ...         np.frombuffer(b"ijklmnop", dtype=np.uint8).copy()]
        >>> parity = code.encode(data)
        >>> recovered = code.decode({2: parity[0], 3: parity[1]})
        >>> bytes(recovered[0]), bytes(recovered[1])
        (b'abcdefgh', b'ijklmnop')
    """

    #: Compiled decode schedules kept per survivor-id tuple (alongside the
    #: base class's decoding-matrix cache): real recoveries decode the same
    #: survivor set for every reduction group in a failure event.
    DECODE_SCHEDULE_CACHE_SIZE = 64

    def __init__(self, params: CodeParams, good_matrix: bool = False):
        super().__init__(params)
        self.good_matrix = good_matrix
        self._decode_schedule_cache: OrderedDict[tuple[int, ...], XorSchedule] = (
            OrderedDict()
        )
        self._decode_schedule_hits = 0
        self._decode_schedule_misses = 0

    def build_generator(self) -> np.ndarray:
        k, m = self.params.k, self.params.m
        gen = np.zeros((k + m, k), dtype=np.uint32)
        gen[:k] = np.eye(k, dtype=np.uint32)
        if m:
            builder = build_cauchy_good_matrix if self.good_matrix else build_cauchy_matrix
            gen[k:] = builder(k, m, self.field)
        return gen

    @property
    def parity_bitmatrix(self) -> np.ndarray:
        """GF(2) bitmatrix of the parity block: ``(m*w) x (k*w)`` of 0/1.

        Shared across instances via the module cache (read-only array).
        """
        return cached_parity_bitmatrix(self)

    # ------------------------------------------------------------------
    # Fast XOR-only paths (word-packed kernels, cached schedules)
    # ------------------------------------------------------------------
    def encode_bitmatrix(
        self,
        data_blocks: list[np.ndarray],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> list[np.ndarray]:
        """Encode with XOR operations only, via the parity bitmatrix.

        The compiled (and cached) Paar schedule is executed by the
        cache-blocked word-packed kernels in :mod:`repro.ec.kernels`.
        Produces byte-identical output to :meth:`encode` (the field path) —
        tests assert this equivalence.

        Raises:
            CodeConfigError: if block sizes are not divisible by ``w``.
        """
        blocks = self._check_blocks(data_blocks)
        w = self.params.w
        size = blocks[0].nbytes
        if size % w:
            raise CodeConfigError(
                f"bitmatrix encoding needs block size divisible by w={w}, got {size}"
            )
        if not self.params.m:
            return []
        out = [np.empty(size, dtype=np.uint8) for _ in range(self.params.m)]
        self.encode_bitmatrix_into(blocks, out, chunk_bytes=chunk_bytes)
        return out

    def encode_bitmatrix_into(
        self,
        blocks: list[np.ndarray],
        out_blocks: list[np.ndarray],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        """Encode ``blocks`` writing parity bytes directly into ``out_blocks``.

        The zero-copy entry point used by the pool encoders: callers pass
        ``m`` preallocated uint8 arrays *or views* (e.g. sub-range slices
        of full parity blocks) the same size as the data blocks.  Inputs
        must be contiguous uint8 arrays of equal size divisible by ``w``;
        no validation copies are made here.

        One kernel variant: the Paar schedule over the packbits
        decompose.  Blocking never changes a byte; ``chunk_bytes`` is a
        parameter so the tests can pin that.
        """
        apply_schedule_blocks(
            cached_schedule(self).compiled_ops(),
            blocks,
            out_blocks,
            self.params.w,
            chunk_bytes,
        )

    def encode_bitmatrix_reference(
        self, data_blocks: list[np.ndarray]
    ) -> list[np.ndarray]:
        """The pre-kernel bitmatrix encoder, kept as the equivalence
        suite's reference.

        Walks the parity bitmatrix row by row, XORing full-size strips with
        one numpy call per 1-bit — no schedule, no word packing, no cache
        blocking.
        """
        blocks = self._check_blocks(data_blocks)
        w = self.params.w
        size = blocks[0].nbytes
        if size % w:
            raise CodeConfigError(
                f"bitmatrix encoding needs block size divisible by w={w}, got {size}"
            )
        data_strips = _reference_blocks_to_bitplanes(blocks, w)
        bm = self.parity_bitmatrix
        parity_strips = []
        for r in range(self.params.m * w):
            acc = np.zeros(data_strips[0].shape, dtype=np.uint8)
            for c in np.nonzero(bm[r])[0]:
                np.bitwise_xor(acc, data_strips[int(c)], out=acc)
            parity_strips.append(acc)
        return _reference_bitplanes_to_blocks(parity_strips, self.params.m, w, size)

    def _decode_schedule(self, ids: tuple[int, ...]) -> XorSchedule:
        """Compiled XOR schedule for decoding from survivor set ``ids``.

        LRU-cached per survivor tuple: the decoding bitmatrix expansion and
        schedule compilation run once per distinct failure pattern instead
        of once per reduction group.
        """
        schedule = self._decode_schedule_cache.get(ids)
        if schedule is not None:
            self._decode_schedule_hits += 1
            self._decode_schedule_cache.move_to_end(ids)
            return schedule
        self._decode_schedule_misses += 1
        matrix = self.decoding_matrix(list(ids))
        bm = bitmatrix_from_matrix(matrix, self.field)
        k, w = self.params.k, self.params.w
        schedule = dumb_schedule(bm, k, k, w)
        self._decode_schedule_cache[ids] = schedule
        if len(self._decode_schedule_cache) > self.DECODE_SCHEDULE_CACHE_SIZE:
            self._decode_schedule_cache.popitem(last=False)
        return schedule

    def decode_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the decode-schedule LRU cache."""
        return {
            "hits": self._decode_schedule_hits,
            "misses": self._decode_schedule_misses,
            "size": len(self._decode_schedule_cache),
            "max_size": self.DECODE_SCHEDULE_CACHE_SIZE,
        }

    def decode_bitmatrix(self, available: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Decode with XOR operations only.

        The ``k x k`` decoding matrix (inverse of the surviving generator
        rows) is expanded to its GF(2) bitmatrix and compiled to a cached
        XOR schedule, so reconstruction — like encoding — runs through the
        word-packed kernels.  Byte-identical to :meth:`decode`.

        Raises:
            DecodeError: with fewer than ``k`` chunks.
            CodeConfigError: if block sizes are not divisible by ``w``.
        """
        from repro.errors import DecodeError

        k, w = self.params.k, self.params.w
        if len(available) < k:
            raise DecodeError(f"need {k} chunks to decode, got {len(available)}")
        ids = sorted(available, key=lambda i: (i >= k, i))[:k]
        blocks = [
            np.ascontiguousarray(available[i], dtype=np.uint8).ravel() for i in ids
        ]
        size = blocks[0].nbytes
        if size % w:
            raise CodeConfigError(
                f"bitmatrix decoding needs block size divisible by w={w}, got {size}"
            )
        schedule = self._decode_schedule(tuple(ids))
        out = [np.empty(size, dtype=np.uint8) for _ in range(k)]
        apply_schedule_blocks(schedule.compiled_ops(), blocks, out, w)
        return out

    def decode_bitmatrix_reference(
        self, available: dict[int, np.ndarray]
    ) -> list[np.ndarray]:
        """The pre-kernel bitmatrix decoder, kept as the equivalence
        suite's reference.

        Re-expands the decoding bitmatrix on every call and XORs full-size
        strips row by row — the cost profile the schedule cache and the
        word-packed kernels remove.
        """
        from repro.errors import DecodeError

        k, w = self.params.k, self.params.w
        if len(available) < k:
            raise DecodeError(f"need {k} chunks to decode, got {len(available)}")
        ids = sorted(available, key=lambda i: (i >= k, i))[:k]
        matrix = self.decoding_matrix(ids)
        bm = bitmatrix_from_matrix(matrix, self.field)
        blocks = [
            np.ascontiguousarray(available[i], dtype=np.uint8).ravel() for i in ids
        ]
        size = blocks[0].nbytes
        if size % w:
            raise CodeConfigError(
                f"bitmatrix decoding needs block size divisible by w={w}, got {size}"
            )
        strips = _reference_blocks_to_bitplanes(blocks, w)
        out_strips = []
        for r in range(k * w):
            acc = np.zeros(strips[0].shape, dtype=np.uint8)
            for c in np.nonzero(bm[r])[0]:
                np.bitwise_xor(acc, strips[int(c)], out=acc)
            out_strips.append(acc)
        return _reference_bitplanes_to_blocks(out_strips, k, w, size)

    # ------------------------------------------------------------------
    # Fast-path dispatch (see ErasureCode.encode_fast / decode_fast)
    # ------------------------------------------------------------------
    def encode_fast(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Bitmatrix kernels when the block size allows, else field path."""
        blocks = self._check_blocks(data_blocks)
        if self.params.m and blocks[0].nbytes % self.params.w == 0:
            return self.encode_bitmatrix(blocks)
        return self.encode(blocks)

    def decode_fast(self, available: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Bitmatrix kernels when the block size allows, else field path."""
        if len(available) >= self.params.k and available:
            sizes = {np.asarray(b).nbytes for b in available.values()}
            if len(sizes) == 1 and sizes.pop() % self.params.w == 0:
                return self.decode_bitmatrix(available)
        return self.decode(available)


def _blocks_to_bitplanes(blocks: list[np.ndarray], w: int) -> list[np.ndarray]:
    """Split each block into ``w`` bit-plane strips.

    Jerasure's packed layout stores bit-plane ``i`` of a block as the bytes
    ``block[i*strip : (i+1)*strip]`` where consecutive words are interleaved
    across strips.  We use the simpler "column" layout: word ``t`` of the
    block contributes bit ``i`` to position ``t`` of strip ``i``.  Strips are
    packed back into bytes so XOR stays byte-wise.

    Implemented on the vectorised kernels (mask + ``packbits``); layout is
    byte-identical to the historical per-plane shift loop.
    """
    out: list[np.ndarray] = []
    for block in blocks:
        block = np.ascontiguousarray(block, dtype=np.uint8).ravel()
        strip = strip_bytes_for(block.size, w)
        rows = np.empty((w, strip), dtype=np.uint8)
        decompose_into(block, w, rows)
        out.extend(rows[i] for i in range(w))
    return out


def _bitplanes_to_blocks(
    strips: list[np.ndarray], count: int, w: int, size: int
) -> list[np.ndarray]:
    """Inverse of :func:`_blocks_to_bitplanes` for ``count`` output blocks."""
    out: list[np.ndarray] = []
    for b in range(count):
        rows = np.stack(
            [np.ascontiguousarray(s, dtype=np.uint8) for s in strips[b * w : (b + 1) * w]]
        )
        block = np.empty(size, dtype=np.uint8)
        recompose_into(rows, w, block)
        out.append(block)
    return out


def _reference_blocks_to_bitplanes(blocks: list[np.ndarray], w: int) -> list[np.ndarray]:
    """Pre-kernel bit-plane split (per-plane shift/compare loop).

    Kept verbatim so :meth:`CauchyRSCode.encode_bitmatrix_reference` shares
    no code with the kernels the equivalence suite holds against it.
    """
    out: list[np.ndarray] = []
    for block in blocks:
        if w == 8:
            words = block
        elif w == 16:
            words = block.view(np.uint16)
        elif w in (1, 2, 4):
            words = block & ((1 << w) - 1)
        else:
            raise CodeConfigError(f"unsupported w={w} for bitplanes")
        for i in range(w):
            bits = ((words >> i) & 1).astype(np.uint8)
            out.append(np.packbits(bits))
    return out


def _reference_bitplanes_to_blocks(
    strips: list[np.ndarray], count: int, w: int, size: int
) -> list[np.ndarray]:
    """Pre-kernel inverse of :func:`_reference_blocks_to_bitplanes`."""
    if w == 8:
        n_words, dtype = size, np.uint8
    elif w == 16:
        n_words, dtype = size // 2, np.uint16
    else:
        n_words, dtype = size, np.uint8
    out: list[np.ndarray] = []
    for b in range(count):
        words = np.zeros(n_words, dtype=np.uint32)
        for i in range(w):
            bits = np.unpackbits(strips[b * w + i])[:n_words]
            words |= bits.astype(np.uint32) << i
        block = words.astype(dtype)
        out.append(block.view(np.uint8).reshape(-1)[:size].copy())
    return out
