"""Classic Vandermonde Reed-Solomon code.

Included as the baseline coding scheme the paper's Cauchy choice is measured
against: the Vandermonde construction's parity coefficients are general
GF(2^8) multiplications (all four at (2, 2)), whereas the XOR-minimised
Cauchy generator makes most of them 1, a plain XOR (three of four at
(2, 2); its bitmatrix form is XOR-only throughout).  The
ablation benchmark (``benchmarks/test_ablations.py``) compares their
throughput on the engine's encode path.

A raw Vandermonde matrix is not systematic; we derive the systematic form by
column-reducing the top ``k x k`` block to the identity.  Column operations
right-multiply by an invertible matrix, so every ``k``-row subset keeps full
rank and the code remains MDS.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodeConfigError
from repro.ec.base import ErasureCode
from repro.gf.field import GF
from repro.gf.matrix import gf_matinv, gf_matmul


def build_vandermonde_generator(k: int, m: int, field: GF) -> np.ndarray:
    """Systematic ``(k + m) x k`` Reed-Solomon generator over GF(2^8).

    Rows evaluate the message polynomial at ``k + m`` distinct points; the
    top block is then normalised to the identity.

    Raises:
        CodeConfigError: if ``k + m`` exceeds the field size.
    """
    n = k + m
    if n > field.size:
        raise CodeConfigError(
            f"k + m = {n} exceeds field size 2^{field.w} = {field.size}"
        )
    vand = np.zeros((n, k), dtype=np.uint32)
    for i in range(n):
        for j in range(k):
            vand[i, j] = field.pow(i, j)
    # Normalise: G = V @ inv(V_top) has identity on top and stays MDS.
    top_inv = gf_matinv(vand[:k], field)
    return gf_matmul(vand, top_inv, field)


class VandermondeRSCode(ErasureCode):
    """Systematic Reed-Solomon code built from a Vandermonde matrix."""

    def build_generator(self) -> np.ndarray:
        return build_vandermonde_generator(self.params.k, self.params.m, self.field)
