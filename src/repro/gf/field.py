"""Scalar and vectorised arithmetic over GF(2^8).

:class:`GF` wraps the log/antilog tables from :mod:`repro.gf.tables` with a
clean API.  Two kinds of operations are exposed:

* scalar operations on Python ints (``mul``, ``div``, ``inv``, ``pow``) used
  when building and inverting small coding matrices, and
* region operations on numpy byte buffers (``mul_region``,
  ``mul_region_into``) used on the hot encoding path, where a single field
  constant multiplies an entire packet.

Region operations use per-constant lookup tables: a 256-entry table,
widened on the hot path to a 65 536-entry *pair table* that multiplies
two bytes per lookup (GF-Complete's "w=8 TABLE DOUBLE").  This mirrors
how CPU erasure-coding libraries such as Jerasure implement
``galois_w08_region_multiply``.  GF(2^8) is the only field: every byte
is one element.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import FieldError
from repro.gf.tables import EXP, LOG, W


class GF:
    """Arithmetic in the finite field GF(2^8).

    ``GF(8)`` names the field by its word size, as Jerasure's calls do; it
    is the one field there is (``GF(8) is GF(8)``), and any other word
    size is refused.

    Example:
        >>> f = GF(8)
        >>> f.mul(3, 7)
        9
        >>> f.mul(f.inv(5), 5)
        1
    """

    w = W
    size = 1 << W
    order = size - 1
    exp = EXP
    log = LOG

    _instance: "GF | None" = None

    def __new__(cls, w: int) -> "GF":
        if w != W:
            raise FieldError(f"unsupported word size w={w}; the field is GF(2^{W})")
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    # ------------------------------------------------------------------
    # Scalar operations
    # ------------------------------------------------------------------
    def _check(self, *values: int) -> None:
        for v in values:
            if not 0 <= v < self.size:
                raise FieldError(f"value {v} out of range for GF(2^{self.w})")

    def add(self, a: int, b: int) -> int:
        """Field addition (= subtraction = XOR in characteristic 2)."""
        self._check(a, b)
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return int(self.exp[int(self.log[a]) + int(self.log[b])])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``.

        Raises:
            FieldError: if ``b`` is zero.
        """
        self._check(a, b)
        if b == 0:
            raise FieldError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(self.exp[int(self.log[a]) - int(self.log[b]) + self.order])

    def inv(self, a: int) -> int:
        """Multiplicative inverse of ``a``.

        Raises:
            FieldError: if ``a`` is zero.
        """
        self._check(a)
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return int(self.exp[self.order - int(self.log[a])])

    def pow(self, a: int, e: int) -> int:
        """Raise ``a`` to integer power ``e`` (``e`` may be negative)."""
        self._check(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("zero has no negative powers")
            return 0
        la = int(self.log[a]) * e
        return int(self.exp[la % self.order])

    # ------------------------------------------------------------------
    # Vectorised operations on arrays of field elements
    # ------------------------------------------------------------------
    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise product of two arrays of field elements."""
        a = np.asarray(a, dtype=np.uint32)
        b = np.asarray(b, dtype=np.uint32)
        out = self.exp[self.log[a] + self.log[b]]
        zero = (a == 0) | (b == 0)
        out = np.where(zero, 0, out)
        return out.astype(np.uint32)

    # ------------------------------------------------------------------
    # Region operations (constant times a byte buffer)
    # ------------------------------------------------------------------
    @lru_cache(maxsize=4096)
    def _region_table(self, c: int) -> np.ndarray:
        """The 256-entry table that maps a byte ``v`` to ``c * v``."""
        values = np.arange(256, dtype=np.uint32)
        return self.mul_array(np.full(256, c, dtype=np.uint32), values).astype(
            np.uint8
        )

    @lru_cache(maxsize=64)
    def _pair_table(self, c: int) -> np.ndarray:
        """``c * (two bytes)`` per uint16 lookup (128 KiB).

        Entry ``hi << 8 | lo`` holds ``t[hi] << 8 | t[lo]``, which is the
        product of both bytes of a uint16 word under either byte order.
        LRU-bounded: a table rebuilds in ~0.1 ms, a packet takes longer.
        """
        table = self._region_table(c).astype(np.uint16)
        pair = (table[:, None] << 8 | table[None, :]).ravel()
        pair.setflags(write=False)  # cached result is shared, not owned
        return pair

    def mul_flat(self, c: int, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst[:] = c * src``, the kernel under every region operation.

        Unchecked, for callers that validate once and loop over blocks —
        they guarantee: ``c`` in the field; ``src`` and ``dst`` flat uint8
        of one size, not overlapping (``np.take`` gives no overlap
        guarantee); ``dst`` C-contiguous.
        """
        if c == 0:
            dst.fill(0)
        elif c == 1:
            dst[:] = src
        elif src.flags.c_contiguous and src.size % 2 == 0:
            # mode="wrap" is safe (a uint16 cannot exceed the table) and
            # skips the bounds-checking pass that buffers ``out``.
            np.take(
                self._pair_table(c),
                src.view(np.uint16),
                out=dst.view(np.uint16),
                mode="wrap",
            )
        else:
            np.take(self._region_table(c), src, out=dst, mode="wrap")

    @staticmethod
    def xor_flat(src: np.ndarray, dst: np.ndarray) -> None:
        """``dst ^= src`` (equal sizes), on uint64 lanes where the layout allows."""
        if (
            dst.dtype == np.uint8
            and dst.size % 8 == 0
            and dst.flags.c_contiguous
            and src.flags.c_contiguous
        ):
            lanes = dst.reshape(-1).view(np.uint64)
            np.bitwise_xor(lanes, src.reshape(-1).view(np.uint64), out=lanes)
        else:
            np.bitwise_xor(dst, src.reshape(dst.shape), out=dst)

    def mul_region_into(self, c: int, buf: np.ndarray, out: np.ndarray) -> None:
        """Compute ``out[:] = c * buf`` without allocating.

        ``out`` is a C-contiguous uint8 buffer of ``buf``'s size that does
        not overlap it.

        Raises:
            FieldError: on a mismatched, non-contiguous or overlapping ``out``.
        """
        self._check(c)
        buf = np.asarray(buf, dtype=np.uint8)
        if out.dtype != np.uint8 or not out.flags.c_contiguous or out.size != buf.size:
            raise FieldError(f"out must be contiguous uint8, {buf.size} bytes long")
        if np.shares_memory(buf, out):
            raise FieldError("out overlaps buf; region multiply is not in-place")
        self.mul_flat(c, buf.reshape(-1), out.reshape(-1))

    def mul_region(self, c: int, buf: np.ndarray) -> np.ndarray:
        """Return ``c * buf`` where ``buf`` is a uint8 buffer of field elements."""
        buf = np.asarray(buf, dtype=np.uint8)
        out = np.empty(buf.shape, dtype=np.uint8)
        self.mul_region_into(c, buf, out)
        return out

    def mul_region_xor_into(self, c: int, buf: np.ndarray, out: np.ndarray) -> None:
        """Compute ``out ^= c * buf`` in place (the reference encoder's loop).

        A coefficient 1 needs no product: ``buf`` is XORed in directly.
        """
        self._check(c)
        if c:
            product = buf if c == 1 else self.mul_region(c, buf)
            self.xor_flat(np.asarray(product, dtype=np.uint8), out)
