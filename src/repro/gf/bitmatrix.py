"""GF(2) bitmatrix projection of GF(2^8) matrices.

Cauchy Reed-Solomon coding (the scheme ECCheck adopts) rewrites every field
multiplication as a small binary matrix acting on the bit-decomposition of a
word.  A field element ``e`` becomes a ``w x w`` binary matrix ``B(e)`` whose
``j``-th column holds the bits of ``e * x^j`` (where ``x = 2`` is the field
generator); a full ``rows x cols`` coding matrix becomes a
``rows*w x cols*w`` binary matrix.  Multiplication by the bitmatrix is then a
pure XOR computation — the property that makes CRS fast on CPUs.

Bitmatrices here are numpy uint8 arrays containing 0/1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import MatrixError
from repro.gf.field import GF


@lru_cache(maxsize=None)
def element_bitmatrix_table(field: GF) -> np.ndarray:
    """A ``(256, 8, 8)`` table: entry ``e`` is the bitmatrix of ``e``.

    Built once, by rotating one vectorised column at a time: column ``j``
    of every element's matrix holds the bits of ``e * 2^j``, so eight
    ``mul_array`` passes over all 256 elements produce the whole
    table (bitmatrix expansion sits on the schedule-compile and decode
    paths, where per-element Python loops used to dominate).
    """
    w = field.w
    table = np.zeros((field.size, w, w), dtype=np.uint8)
    col = np.arange(field.size, dtype=np.uint32)  # e * 2^0
    two = np.full(field.size, 2, dtype=np.uint32)
    shifts = np.arange(w, dtype=np.uint32)
    for j in range(w):
        table[:, :, j] = (col[:, None] >> shifts[None, :]) & 1
        col = field.mul_array(col, two)
    table.setflags(write=False)
    return table


def bitmatrix_from_element(e: int, field: GF) -> np.ndarray:
    """The ``w x w`` binary matrix representing multiplication by ``e``.

    Column ``j`` contains the bits (LSB first) of ``e * 2^j`` in GF(2^8).
    ``B(e) @ bits(v) == bits(e * v)`` over GF(2) for every field element
    ``v``.
    """
    if not 0 <= e < field.size:
        raise MatrixError(f"element {e} out of range for GF(2^{field.w})")
    return element_bitmatrix_table(field)[e].copy()


def bitmatrix_from_matrix(mat: np.ndarray, field: GF) -> np.ndarray:
    """Expand a matrix of field elements into its GF(2) bitmatrix."""
    mat = np.asarray(mat, dtype=np.uint32)
    if mat.ndim != 2:
        raise MatrixError(f"expected a 2-D matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    w = field.w
    # (rows, cols, w, w) gather, then interleave the bit axes into place.
    expanded = element_bitmatrix_table(field)[mat]
    return np.ascontiguousarray(
        expanded.transpose(0, 2, 1, 3).reshape(rows * w, cols * w)
    )


def bitmatrix_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Binary matrix product over GF(2).

    Row ``i`` of the product is the XOR of the rows of ``b`` selected by
    row ``i`` of ``a`` — computed with boolean XOR-reduction, so there is
    no integer product matrix to overflow and no ``% 2`` pass.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise MatrixError(f"shape mismatch: {a.shape} @ {b.shape}")
    a_rows = a != 0
    b_bool = b != 0
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        selected = b_bool[a_rows[i]]
        if selected.shape[0]:
            out[i] = np.bitwise_xor.reduce(selected, axis=0)
    return out
