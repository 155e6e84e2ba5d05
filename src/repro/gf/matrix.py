"""Matrix algebra over GF(2^8).

Matrices are plain numpy ``uint32`` arrays whose entries are field elements.
These routines back the construction and inversion of erasure-coding
generator matrices; sizes are tiny (k + m rows), so clarity is preferred over
micro-optimisation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MatrixError
from repro.gf.field import GF


def _as_matrix(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.uint32)
    if mat.ndim != 2:
        raise MatrixError(f"expected a 2-D matrix, got shape {mat.shape}")
    return mat


def gf_eye(n: int) -> np.ndarray:
    """Identity matrix of size ``n`` over GF(2^8)."""
    return np.eye(n, dtype=np.uint32)


def gf_matmul(a: np.ndarray, b: np.ndarray, field: GF) -> np.ndarray:
    """Matrix product over GF(2^8)."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise MatrixError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint32)
    for i in range(a.shape[0]):
        # out[i, :] = XOR_j a[i, j] * b[j, :]
        row = np.zeros(b.shape[1], dtype=np.uint32)
        for j in range(a.shape[1]):
            coeff = int(a[i, j])
            if coeff == 0:
                continue
            row ^= field.mul_array(np.full(b.shape[1], coeff, dtype=np.uint32), b[j])
        out[i] = row
    return out


def gf_matinv(mat: np.ndarray, field: GF) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    Raises:
        MatrixError: if the matrix is singular or not square.
    """
    mat = _as_matrix(mat)
    n, m = mat.shape
    if n != m:
        raise MatrixError(f"cannot invert non-square matrix of shape {mat.shape}")
    work = mat.astype(np.uint32).copy()
    inv = gf_eye(n)
    for col in range(n):
        # Find a pivot.
        pivot = -1
        for row in range(col, n):
            if work[row, col] != 0:
                pivot = row
                break
        if pivot < 0:
            raise MatrixError("matrix is singular over GF(2^8)")
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        # Normalise the pivot row.
        pivot_inv = field.inv(int(work[col, col]))
        if pivot_inv != 1:
            coeff = np.full(n, pivot_inv, dtype=np.uint32)
            work[col] = field.mul_array(coeff, work[col])
            inv[col] = field.mul_array(coeff, inv[col])
        # Eliminate the column everywhere else.
        for row in range(n):
            if row == col or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            coeff = np.full(n, factor, dtype=np.uint32)
            work[row] ^= field.mul_array(coeff, work[col])
            inv[row] ^= field.mul_array(coeff, inv[col])
    return inv


def gf_matrank(mat: np.ndarray, field: GF) -> int:
    """Rank of a matrix over GF(2^8)."""
    work = _as_matrix(mat).astype(np.uint32).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for row in range(rank, rows):
            if work[row, col] != 0:
                pivot = row
                break
        if pivot < 0:
            continue
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        pivot_inv = field.inv(int(work[rank, col]))
        if pivot_inv != 1:
            coeff = np.full(cols, pivot_inv, dtype=np.uint32)
            work[rank] = field.mul_array(coeff, work[rank])
        for row in range(rows):
            if row == rank or work[row, col] == 0:
                continue
            factor = int(work[row, col])
            coeff = np.full(cols, factor, dtype=np.uint32)
            work[row] ^= field.mul_array(coeff, work[rank])
        rank += 1
        if rank == rows:
            break
    return rank


def is_invertible(mat: np.ndarray, field: GF) -> bool:
    """True if the square matrix has full rank over GF(2^8)."""
    mat = _as_matrix(mat)
    if mat.shape[0] != mat.shape[1]:
        return False
    return gf_matrank(mat, field) == mat.shape[0]
