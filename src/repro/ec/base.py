"""Erasure-code abstraction shared by every coding scheme in the package.

A code is systematic: chunk ids ``0..k-1`` are the original data chunks and
``k..k+m-1`` are parity chunks.  Every concrete code supplies a
``(k + m) x k`` generator matrix over GF(2^8) whose top ``k`` rows form the
identity; encoding and decoding are implemented once here in terms of that
matrix, using the vectorised region operations from :mod:`repro.gf.field`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.ec.kernels import apply_rows
from repro.errors import CodeConfigError, DecodeError
from repro.gf.field import GF
from repro.gf.matrix import gf_matinv
from repro.gf.tables import W


@dataclass(frozen=True)
class CodeParams:
    """Parameters of an (n = k + m, k) systematic erasure code.

    Attributes:
        k: number of data chunks.
        m: number of parity chunks; the code tolerates any ``m`` erasures.
        w: word size of the field, read-only: every code runs GF(2^8).
    """

    k: int
    m: int
    w: ClassVar[int] = W

    def __post_init__(self) -> None:
        if self.k < 1:
            raise CodeConfigError(f"k must be >= 1, got {self.k}")
        if self.m < 0:
            raise CodeConfigError(f"m must be >= 0, got {self.m}")

    @property
    def n(self) -> int:
        """Total number of chunks."""
        return self.k + self.m


class ErasureCode(ABC):
    """A systematic MDS (or repetition) erasure code over GF(2^8).

    Subclasses provide :meth:`build_generator`; encoding and decoding are
    inherited.
    """

    #: Decoding matrices kept per survivor-id tuple.  Real recoveries
    #: decode the same survivor set once per reduction group, so without a
    #: cache the k x k GF inversion reruns for every group.
    DECODING_CACHE_SIZE = 64

    def __init__(self, params: CodeParams):
        self.params = params
        self.field = GF(W)
        self._generator: np.ndarray | None = None
        self._decoding_cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self._decoding_cache_hits = 0
        self._decoding_cache_misses = 0

    # ------------------------------------------------------------------
    @abstractmethod
    def build_generator(self) -> np.ndarray:
        """Return the ``(k + m) x k`` generator matrix over GF(2^8)."""

    @property
    def generator_matrix(self) -> np.ndarray:
        """The cached generator matrix (top ``k`` rows are the identity)."""
        if self._generator is None:
            gen = np.asarray(self.build_generator(), dtype=np.uint32)
            expected = (self.params.n, self.params.k)
            if gen.shape != expected:
                raise CodeConfigError(
                    f"generator shape {gen.shape} != expected {expected}"
                )
            if not np.array_equal(gen[: self.params.k], np.eye(self.params.k)):
                raise CodeConfigError("generator matrix must be systematic")
            self._generator = gen
        return self._generator

    @property
    def parity_matrix(self) -> np.ndarray:
        """The bottom ``m x k`` block of the generator matrix."""
        return self.generator_matrix[self.params.k :]

    # ------------------------------------------------------------------
    def _check_blocks(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        if len(blocks) != self.params.k:
            raise CodeConfigError(
                f"expected {self.params.k} data blocks, got {len(blocks)}"
            )
        sizes = {b.nbytes for b in blocks}
        if len(sizes) != 1:
            raise CodeConfigError(f"data blocks differ in size: {sorted(sizes)}")
        return [np.ascontiguousarray(b, dtype=np.uint8).ravel() for b in blocks]

    def encode(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``m`` parity blocks from ``k`` equal-size data blocks.

        Blocks are uint8 numpy arrays; the returned parity blocks have the
        same size.  The data blocks are not modified.
        """
        blocks = self._check_blocks(data_blocks)
        parity = self.parity_matrix
        out: list[np.ndarray] = []
        for row in range(self.params.m):
            acc = np.zeros(blocks[0].shape, dtype=np.uint8)
            for col in range(self.params.k):
                coeff = int(parity[row, col])
                if coeff == 0:
                    continue
                self.field.mul_region_xor_into(coeff, blocks[col], acc)
            out.append(acc)
        return out

    def survivors(self, available_ids: Iterable[int]) -> list[int]:
        """The ``k`` chunk ids a decode reads from ``available_ids``.

        Surviving data chunks first — each one kept is a free copy — then
        the lowest parity ids.

        Raises:
            DecodeError: if fewer than ``k`` chunks are available.
        """
        k = self.params.k
        ids = list(available_ids)
        if len(ids) < k:
            raise DecodeError(f"need {k} chunks to decode, got {len(ids)}")
        return sorted(ids, key=lambda c: (c >= k, c))[:k]

    def decoding_matrix(self, available_ids: list[int]) -> np.ndarray:
        """The ``k x k`` matrix mapping the chosen surviving chunks to data.

        ``available_ids`` must list exactly ``k`` distinct chunk ids in
        ``0..n-1``.  The returned matrix ``D`` satisfies ``data = D @
        survivors`` over GF(2^8).  This is the matrix the paper calls the
        decoding matrix ``E'`` (Eqn. 5).

        Raises:
            DecodeError: on a wrong count, a repeated id or an id outside
                ``0..n-1`` (a negative id would otherwise index a row from
                the end and decode wrong bytes without an error).
        """
        ids = list(available_ids)
        if len(ids) != self.params.k or len(set(ids)) != self.params.k:
            raise DecodeError(
                f"need exactly k={self.params.k} distinct chunk ids, got {ids}"
            )
        if any(not 0 <= i < self.params.n for i in ids):
            raise DecodeError(f"chunk ids outside 0..{self.params.n - 1}: {ids}")
        key = tuple(ids)
        cached = self._decoding_cache.get(key)
        if cached is not None:
            self._decoding_cache_hits += 1
            self._decoding_cache.move_to_end(key)
            return cached
        self._decoding_cache_misses += 1
        sub = self.generator_matrix[ids]
        matrix = gf_matinv(sub, self.field)
        matrix.setflags(write=False)  # cached result is shared, not owned
        self._decoding_cache[key] = matrix
        if len(self._decoding_cache) > self.DECODING_CACHE_SIZE:
            self._decoding_cache.popitem(last=False)
        return matrix

    def decode_cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the decoding-matrix LRU cache, the one
        every decode (and every engine restore) looks up."""
        return {
            "hits": self._decoding_cache_hits,
            "misses": self._decoding_cache_misses,
            "size": len(self._decoding_cache),
            "max_size": self.DECODING_CACHE_SIZE,
        }

    def _survivor_blocks(
        self, available: dict[int, np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """The decoding matrix and the flat blocks of the chosen survivors."""
        chosen = self.survivors(available)
        matrix = self.decoding_matrix(chosen)
        blocks = [
            np.ascontiguousarray(available[i], dtype=np.uint8).ravel() for i in chosen
        ]
        sizes = {b.nbytes for b in blocks}
        if len(sizes) != 1:
            raise DecodeError(f"surviving blocks differ in size: {sorted(sizes)}")
        return matrix, blocks

    def decode(self, available: dict[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct the ``k`` original data blocks.

        The field-arithmetic reference :meth:`decode_fast` is held to.

        Args:
            available: mapping from chunk id (0..n-1) to its block.  Any
                ``k`` chunks of an MDS code suffice; extra chunks are
                ignored (see :meth:`survivors`).

        Raises:
            DecodeError: with fewer than ``k`` chunks or an id outside
                ``0..n-1``.
        """
        matrix, blocks = self._survivor_blocks(available)
        out: list[np.ndarray] = []
        for row in range(self.params.k):
            acc = np.zeros(blocks[0].shape, dtype=np.uint8)
            for col in range(self.params.k):
                coeff = int(matrix[row, col])
                if coeff == 0:
                    continue
                self.field.mul_region_xor_into(coeff, blocks[col], acc)
            out.append(acc)
        return out

    # ------------------------------------------------------------------
    # The byte path: everything that moves checkpoint-sized buffers runs
    # the one fused kernel, repro.ec.kernels.apply_rows.
    # ------------------------------------------------------------------
    def encode_fast(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """:meth:`encode` through the fused kernel (byte-identical)."""
        blocks = self._check_blocks(data_blocks)
        out = [np.empty(blocks[0].size, dtype=np.uint8) for _ in range(self.params.m)]
        apply_rows(self.field, self.parity_matrix, blocks, out)
        return out

    def decode_fast(self, available: dict[int, np.ndarray]) -> list[np.ndarray]:
        """:meth:`decode` through the fused kernel (byte-identical)."""
        matrix, blocks = self._survivor_blocks(available)
        out = [np.empty(blocks[0].size, dtype=np.uint8) for _ in range(self.params.k)]
        apply_rows(self.field, matrix, blocks, out)
        return out

    def __repr__(self) -> str:
        p = self.params
        return f"{type(self).__name__}(k={p.k}, m={p.m}, w={p.w})"
