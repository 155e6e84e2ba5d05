"""Tests for the 'good' Cauchy construction and the fused-kernel decode."""

import itertools

import numpy as np
import pytest

from repro.errors import DecodeError
from repro.ec.base import CodeParams
from repro.ec.cauchy import (
    CauchyRSCode,
    bitmatrix_ones,
    build_cauchy_good_matrix,
    build_cauchy_matrix,
)
from repro.gf.field import GF
from repro.gf.matrix import gf_matrank


def random_blocks(rng, k, size=64):
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


# ---------------------------------------------------------------------------
# Good Cauchy matrix
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("k,m", [(2, 2), (4, 2), (6, 3), (4, 4)])
def test_good_matrix_has_fewer_or_equal_ones(k, m):
    """The whole point: fewer 1-bits -> fewer XORs per encoded byte."""
    f = GF(8)
    original = bitmatrix_ones(build_cauchy_matrix(k, m, f), f)
    good = bitmatrix_ones(build_cauchy_good_matrix(k, m, f), f)
    assert good <= original


def test_good_matrix_first_row_all_ones():
    f = GF(8)
    good = build_cauchy_good_matrix(5, 3, f)
    assert (good[0] == 1).all()


@pytest.mark.parametrize("k,m", [(3, 2), (4, 3)])
def test_good_matrix_stays_mds(k, m):
    """Row/column scaling must preserve every-submatrix invertibility."""
    f = GF(8)
    good = build_cauchy_good_matrix(k, m, f)
    gen = np.vstack([np.eye(k, dtype=np.uint32), good])
    for rows in itertools.combinations(range(k + m), k):
        assert gf_matrank(gen[list(rows)], f) == k, rows


def test_good_code_round_trip_every_survivor_set():
    rng = np.random.default_rng(0)
    code = CauchyRSCode(CodeParams(k=3, m=2), good_matrix=True)
    data = random_blocks(rng, 3)
    chunks = data + code.encode(data)
    for survivors in itertools.combinations(range(5), 3):
        recovered = code.decode({i: chunks[i] for i in survivors})
        for original, rec in zip(data, recovered):
            assert np.array_equal(original, rec), survivors


def test_good_code_bitmatrix_encode_cheaper():
    from repro.ec.schedule import dumb_schedule

    params = CodeParams(k=4, m=2)
    plain = CauchyRSCode(params)
    good = CauchyRSCode(params, good_matrix=True)
    plain_cost = dumb_schedule(plain.parity_bitmatrix, 4, 2, 8).total_xors
    good_cost = dumb_schedule(good.parity_bitmatrix, 4, 2, 8).total_xors
    assert good_cost < plain_cost


# ---------------------------------------------------------------------------
# Fused-kernel decode
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("good", [False, True])
def test_decode_fast_matches_field_decode(good):
    rng = np.random.default_rng(7)
    code = CauchyRSCode(CodeParams(k=3, m=2), good_matrix=good)
    data = random_blocks(rng, 3, size=128)
    chunks = data + code.encode(data)
    for survivors in itertools.combinations(range(5), 3):
        available = {i: chunks[i] for i in survivors}
        via_field = code.decode(dict(available))
        via_kernel = code.decode_fast(dict(available))
        for a, b in zip(via_field, via_kernel):
            assert np.array_equal(a, b), survivors


def test_decode_fast_validation():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    with pytest.raises(DecodeError):
        code.decode_fast({0: np.zeros(8, dtype=np.uint8)})
    with pytest.raises(DecodeError):
        code.decode_fast(
            {0: np.zeros(9, dtype=np.uint8), 1: np.zeros(8, dtype=np.uint8)}
        )
