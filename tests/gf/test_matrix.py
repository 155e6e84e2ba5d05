"""Tests for matrix algebra over GF(2^8)."""

import numpy as np
import pytest

from repro.errors import MatrixError
from repro.gf.field import GF
from repro.gf.matrix import (
    gf_eye,
    gf_matinv,
    gf_matmul,
    gf_matrank,
    is_invertible,
)


@pytest.fixture
def f8():
    return GF(8)


def random_matrix(rng, rows, cols, size):
    return rng.integers(0, size, size=(rows, cols), dtype=np.uint32)


def test_identity_is_multiplicative_identity(f8):
    rng = np.random.default_rng(1)
    a = random_matrix(rng, 4, 4, 256)
    assert np.array_equal(gf_matmul(a, gf_eye(4), f8), a)
    assert np.array_equal(gf_matmul(gf_eye(4), a, f8), a)


def test_matmul_associative(f8):
    rng = np.random.default_rng(2)
    a = random_matrix(rng, 3, 4, 256)
    b = random_matrix(rng, 4, 2, 256)
    c = random_matrix(rng, 2, 5, 256)
    left = gf_matmul(gf_matmul(a, b, f8), c, f8)
    right = gf_matmul(a, gf_matmul(b, c, f8), f8)
    assert np.array_equal(left, right)


def test_matmul_shape_mismatch(f8):
    with pytest.raises(MatrixError):
        gf_matmul(np.zeros((2, 3)), np.zeros((2, 3)), f8)


@pytest.mark.parametrize("w", [8])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_inverse_round_trip(w, n):
    f = GF(w)
    rng = np.random.default_rng(w * 10 + n)
    # Retry until we sample an invertible matrix (overwhelmingly likely).
    for _ in range(50):
        a = rng.integers(0, f.size, size=(n, n), dtype=np.uint32)
        if is_invertible(a, f):
            break
    else:
        pytest.fail("no invertible matrix sampled")
    inv = gf_matinv(a, f)
    assert np.array_equal(gf_matmul(a, inv, f), gf_eye(n))
    assert np.array_equal(gf_matmul(inv, a, f), gf_eye(n))


def test_singular_matrix_raises(f8):
    singular = np.array([[1, 2], [1, 2]], dtype=np.uint32)
    with pytest.raises(MatrixError):
        gf_matinv(singular, f8)
    assert not is_invertible(singular, f8)


def test_non_square_inverse_raises(f8):
    with pytest.raises(MatrixError):
        gf_matinv(np.zeros((2, 3), dtype=np.uint32), f8)


def test_rank_of_identity_and_zero(f8):
    assert gf_matrank(gf_eye(5), f8) == 5
    assert gf_matrank(np.zeros((3, 4), dtype=np.uint32), f8) == 0


def test_rank_of_duplicated_rows(f8):
    mat = np.array([[1, 2, 3], [1, 2, 3], [0, 1, 0]], dtype=np.uint32)
    assert gf_matrank(mat, f8) == 2


def test_rank_wide_matrix(f8):
    mat = np.array([[1, 0, 3, 4], [0, 1, 5, 6]], dtype=np.uint32)
    assert gf_matrank(mat, f8) == 2


def test_is_invertible_rejects_rectangular(f8):
    assert not is_invertible(np.zeros((2, 3), dtype=np.uint32), f8)
