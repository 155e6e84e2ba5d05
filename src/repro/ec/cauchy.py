"""Cauchy Reed-Solomon code — the coding scheme ECCheck adopts.

A Cauchy matrix ``C[i][j] = 1 / (x_i + y_j)`` over GF(2^8) (with all
``x_i``, ``y_j`` distinct) has the property that every square submatrix is
invertible, so ``[I; C]`` is the generator of an MDS code.  Projected to a
GF(2) bitmatrix (:mod:`repro.gf.bitmatrix`), encoding becomes XOR-only,
which is what lets ECCheck encode checkpoints on CPU without slowing GPU
training.

Bytes are coded by the fused kernel every code shares
(:meth:`~repro.ec.base.ErasureCode.encode_fast`); the XOR-only bitmatrix
encode survives as :meth:`CauchyRSCode.encode_bitmatrix_reference`, and
the bitmatrix itself feeds the XOR-count ablations
(:mod:`repro.ec.schedule`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeConfigError
from repro.ec.base import CodeParams, ErasureCode
from repro.gf.bitmatrix import bitmatrix_from_matrix
from repro.gf.field import GF
from repro.gf.tables import W

# A code's parity bitmatrix is a function of (k, m, good_matrix) alone,
# so every CauchyRSCode instance with the same shape shares one expansion.
_PARITY_BITMATRIX_CACHE: dict[tuple[int, int, bool], np.ndarray] = {}
_CACHE_STATS = {"bitmatrix_hits": 0, "bitmatrix_misses": 0}


def cached_parity_bitmatrix(code: "CauchyRSCode") -> np.ndarray:
    """The code's parity bitmatrix, memoised per (k, m, good_matrix)."""
    key = (code.params.k, code.params.m, code.good_matrix)
    bm = _PARITY_BITMATRIX_CACHE.get(key)
    if bm is None:
        _CACHE_STATS["bitmatrix_misses"] += 1
        bm = bitmatrix_from_matrix(code.parity_matrix, code.field)
        bm.setflags(write=False)
        _PARITY_BITMATRIX_CACHE[key] = bm
    else:
        _CACHE_STATS["bitmatrix_hits"] += 1
    return bm


def schedule_cache_info() -> dict[str, int]:
    """Hit/miss counters of the module-level parity-bitmatrix cache.

    The ``schedule_*`` keys named an encode-schedule cache that no byte
    path uses any more; they stay for the readers of this key set and
    always read 0.
    """
    return dict(
        _CACHE_STATS,
        bitmatrix_entries=len(_PARITY_BITMATRIX_CACHE),
        schedule_hits=0,
        schedule_misses=0,
        schedule_entries=0,
    )


def build_cauchy_matrix(k: int, m: int, field: GF) -> np.ndarray:
    """Build an ``m x k`` Cauchy matrix over GF(2^8).

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
    """Systematic Cauchy Reed-Solomon code over GF(2^8).

    Args:
        params: the (k, m) code shape.
        good_matrix: use the XOR-minimised "good" Cauchy construction
            instead of the original one.  The checkpoint engines do
            (``ECCheckEngine.code_for``); the library default stays
            False for the ablations that compare the two.  Simulated
            numbers never depended on the choice (encode seconds are
            billed by bytes); wall time and the parity bytes do.

    Example:
        >>> code = CauchyRSCode(CodeParams(k=2, m=2))
        >>> data = [np.frombuffer(b"abcdefgh", dtype=np.uint8).copy(),
        ...         np.frombuffer(b"ijklmnop", dtype=np.uint8).copy()]
        >>> parity = code.encode(data)
        >>> recovered = code.decode({2: parity[0], 3: parity[1]})
        >>> bytes(recovered[0]), bytes(recovered[1])
        (b'abcdefgh', b'ijklmnop')
    """

    def __init__(self, params: CodeParams, good_matrix: bool = False):
        super().__init__(params)
        self.good_matrix = good_matrix

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

    def encode_bitmatrix_reference(
        self, data_blocks: list[np.ndarray]
    ) -> list[np.ndarray]:
        """The paper's XOR-only encode, kept as a reference.

        Walks the parity bitmatrix row by row, XORing full-size bit-plane
        strips with one numpy call per 1-bit.  Byte-identical to
        :meth:`encode` (the equivalence suite holds it there).

        Raises:
            CodeConfigError: if block sizes are not divisible by ``W`` = 8.
        """
        blocks = self._check_blocks(data_blocks)
        size = blocks[0].nbytes
        if size % W:
            raise CodeConfigError(
                f"bitmatrix encoding needs block size divisible by w={W}, got {size}"
            )
        data_strips = _reference_blocks_to_bitplanes(blocks)
        bm = self.parity_bitmatrix
        parity_strips = []
        for r in range(self.params.m * W):
            acc = np.zeros(data_strips[0].shape, dtype=np.uint8)
            for c in np.nonzero(bm[r])[0]:
                np.bitwise_xor(acc, data_strips[int(c)], out=acc)
            parity_strips.append(acc)
        return _reference_bitplanes_to_blocks(parity_strips, self.params.m, size)


def _reference_blocks_to_bitplanes(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Split each block into ``W`` = 8 bit-plane strips.

    Byte ``t`` of a block contributes bit ``i`` to position ``t`` of strip
    ``i``; strips are packed into bytes so XOR stays byte-wise.  The only
    bit-plane code in the package: the bitmatrix reference and
    :meth:`~repro.ec.schedule.XorSchedule.apply` run on it.
    """
    return [
        np.packbits(((block >> i) & 1).astype(np.uint8))
        for block in blocks
        for i in range(W)
    ]


def _reference_bitplanes_to_blocks(
    strips: list[np.ndarray], count: int, size: int
) -> list[np.ndarray]:
    """Inverse of :func:`_reference_blocks_to_bitplanes` for ``count``
    ``size``-byte blocks."""
    out: list[np.ndarray] = []
    for b in range(count):
        block = np.zeros(size, dtype=np.uint8)
        for i in range(W):
            block |= np.unpackbits(strips[b * W + i])[:size] << i
        out.append(block)
    return out
