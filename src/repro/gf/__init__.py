"""Finite-field arithmetic over GF(2^8) and GF(2) bitmatrices.

This subpackage is the mathematical foundation of the erasure codes in
``repro.ec``.  It provides:

* :class:`~repro.gf.field.GF` — scalar and numpy-vectorised arithmetic over
  GF(2^8) with Jerasure's polynomial 0x11D, the one field of the coding
  stack, built on log/antilog tables (:mod:`repro.gf.tables`).
* :mod:`repro.gf.matrix` — Gaussian elimination, inversion, rank and
  matrix products over the field.
* :mod:`repro.gf.bitmatrix` — the GF(2) "bitmatrix" projection used by
  Cauchy Reed-Solomon codes, which turns every field multiplication into a
  sequence of XORs (the property ECCheck exploits for cheap CPU encoding).
"""

from repro.gf.field import GF
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
    "gf_eye",
    "gf_matinv",
    "gf_matmul",
    "gf_matrank",
    "is_invertible",
    "bitmatrix_from_element",
    "bitmatrix_from_matrix",
    "bitmatrix_matmul",
]
