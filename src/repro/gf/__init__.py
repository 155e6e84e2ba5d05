"""Finite-field arithmetic over GF(2^w) and GF(2) bitmatrices.

This subpackage is the mathematical foundation of the erasure codes in
``repro.ec``.  It provides:

* :class:`~repro.gf.field.GF` — scalar and numpy-vectorised arithmetic over
  GF(2^w) for w in {1, 2, 4, 8, 16}, built on log/antilog tables
  (:mod:`repro.gf.tables`).
* :mod:`repro.gf.matrix` — Gaussian elimination, inversion, rank and
  matrix products over GF(2^w).
* :mod:`repro.gf.bitmatrix` — the GF(2) "bitmatrix" projection used by
  Cauchy Reed-Solomon codes, which turns every field multiplication into a
  sequence of XORs (the property ECCheck exploits for cheap CPU encoding).
"""

from repro.gf.field import GF, SUPPORTED_WORD_SIZES
from repro.gf.matrix import (
    gf_eye,
    gf_matinv,
    gf_matmul,
    gf_matrank,
    is_invertible,
)
from repro.gf.bitmatrix import (
    bitmatrix_from_element,
    bitmatrix_from_matrix,
    bitmatrix_matmul,
)

__all__ = [
    "GF",
    "SUPPORTED_WORD_SIZES",
    "gf_eye",
    "gf_matinv",
    "gf_matmul",
    "gf_matrank",
    "is_invertible",
    "bitmatrix_from_element",
    "bitmatrix_from_matrix",
    "bitmatrix_matmul",
]
