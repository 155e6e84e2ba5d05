"""Tests for the GF(2) bitmatrix projection."""

import numpy as np
import pytest

from repro.gf.bitmatrix import (
    bitmatrix_from_element,
    bitmatrix_from_matrix,
    bitmatrix_matmul,
)
from repro.gf.field import GF


def bits_of(value, w):
    return np.array([(value >> i) & 1 for i in range(w)], dtype=np.uint8)


def value_of(bits):
    return int(sum(int(b) << i for i, b in enumerate(bits)))


@pytest.mark.parametrize("w", [8])
def test_bitmatrix_represents_multiplication(w):
    """B(e) @ bits(v) == bits(e * v) on sampled (e, v)."""
    f = GF(w)
    rng = np.random.default_rng(0)
    elements = rng.integers(0, 256, size=12)
    values = rng.integers(0, 256, size=12)
    for e in elements:
        bm = bitmatrix_from_element(int(e), f)
        for v in values:
            product = (bm @ bits_of(int(v), w)) % 2
            assert value_of(product) == f.mul(int(e), int(v))


def test_bitmatrix_of_one_is_identity():
    f = GF(8)
    assert np.array_equal(bitmatrix_from_element(1, f), np.eye(8, dtype=np.uint8))


def test_bitmatrix_of_zero_is_zero():
    f = GF(8)
    assert not bitmatrix_from_element(0, f).any()


def test_bitmatrix_multiplicativity():
    """B(a) @ B(b) == B(a*b): the projection is a ring homomorphism."""
    f = GF(8)
    for a, b in [(3, 7), (29, 142), (255, 2)]:
        left = bitmatrix_matmul(
            bitmatrix_from_element(a, f), bitmatrix_from_element(b, f)
        )
        right = bitmatrix_from_element(f.mul(a, b), f)
        assert np.array_equal(left, right)


def test_bitmatrix_from_matrix_block_structure():
    f = GF(8)
    mat = np.array([[1, 2], [3, 0]], dtype=np.uint32)
    big = bitmatrix_from_matrix(mat, f)
    assert big.shape == (16, 16)
    assert np.array_equal(big[:8, :8], bitmatrix_from_element(1, f))
    assert np.array_equal(big[:8, 8:], bitmatrix_from_element(2, f))
    assert np.array_equal(big[8:, :8], bitmatrix_from_element(3, f))
    assert not big[8:, 8:].any()


def test_invertible_element_bitmatrix_is_full_rank():
    f = GF(8)
    for e in [1, 2, 77, 255]:
        # Full rank over GF(2): the inverse element's bitmatrix inverts it.
        product = bitmatrix_matmul(
            bitmatrix_from_element(e, f), bitmatrix_from_element(f.inv(e), f)
        )
        assert np.array_equal(product, np.eye(8, dtype=np.uint8))
