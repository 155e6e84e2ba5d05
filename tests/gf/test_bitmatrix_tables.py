"""Tests for the table-driven bitmatrix construction and GF(2) matmul."""

import numpy as np
import pytest

from repro.gf.bitmatrix import (
    bitmatrix_from_element,
    bitmatrix_from_matrix,
    bitmatrix_matmul,
    element_bitmatrix_table,
)
from repro.gf.field import GF


def _slow_element_bitmatrix(e: int, field: GF) -> np.ndarray:
    """Reference construction: column j holds the bits of e * 2^j."""
    w = field.w
    out = np.zeros((w, w), dtype=np.uint8)
    for j in range(w):
        val = field.mul(e, 1 << j)
        for i in range(w):
            out[i, j] = (val >> i) & 1
    return out


@pytest.mark.parametrize("w", [8])
def test_table_matches_slow_construction(w):
    field = GF(w)
    rng = np.random.default_rng(w)
    sample = {0, 1, 2, field.size - 1} | {
        int(e) for e in rng.integers(0, field.size, size=8)
    }
    for e in sample:
        assert np.array_equal(
            bitmatrix_from_element(e, field), _slow_element_bitmatrix(e, field)
        ), f"element {e} mismatch in GF(2^{w})"


@pytest.mark.parametrize("w", [8])
def test_bitmatrix_action_is_field_multiplication(w):
    """B(e) @ bits(v) == bits(e * v) — the defining property."""
    field = GF(w)
    rng = np.random.default_rng(17)
    for _ in range(32):
        e = int(rng.integers(0, field.size))
        v = int(rng.integers(0, field.size))
        be = bitmatrix_from_element(e, field)
        bits_v = np.array([(v >> i) & 1 for i in range(w)], dtype=np.uint8)
        got = (be @ bits_v) % 2
        want = field.mul(e, v)
        want_bits = np.array([(want >> i) & 1 for i in range(w)], dtype=np.uint8)
        assert np.array_equal(got, want_bits)


def test_table_is_cached_and_write_protected():
    field = GF(8)
    table = element_bitmatrix_table(field)
    assert element_bitmatrix_table(field) is table
    assert table.shape == (256, 8, 8)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1
    # bitmatrix_from_element hands out copies, so callers may mutate.
    m = bitmatrix_from_element(3, field)
    m[0, 0] ^= 1  # must not raise


def test_bitmatrix_from_matrix_blocks():
    """Matrix expansion equals per-element block assembly."""
    field = GF(8)
    rng = np.random.default_rng(23)
    mat = rng.integers(0, field.size, size=(3, 5), dtype=np.uint32)
    bm = bitmatrix_from_matrix(mat, field)
    w = field.w
    assert bm.shape == (3 * w, 5 * w)
    for i in range(3):
        for j in range(5):
            block = bm[i * w : (i + 1) * w, j * w : (j + 1) * w]
            assert np.array_equal(
                block, bitmatrix_from_element(int(mat[i, j]), field)
            )


def test_bitmatrix_matmul_matches_integer_product():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rows, inner, cols = rng.integers(1, 24, size=3)
        a = rng.integers(0, 2, size=(rows, inner), dtype=np.uint8)
        b = rng.integers(0, 2, size=(inner, cols), dtype=np.uint8)
        want = (a.astype(np.int64) @ b.astype(np.int64)) % 2
        assert np.array_equal(bitmatrix_matmul(a, b), want.astype(np.uint8))
