"""Tests for the Cauchy Reed-Solomon code."""

import itertools

import numpy as np
import pytest

from repro.errors import CodeConfigError, DecodeError
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode, build_cauchy_matrix
from repro.gf.field import GF
from repro.gf.matrix import gf_matrank, is_invertible


def random_blocks(rng, k, size):
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


def test_cauchy_matrix_every_square_submatrix_invertible():
    f = GF(8)
    k, m = 4, 3
    cauchy = build_cauchy_matrix(k, m, f)
    for rows in itertools.combinations(range(m), 2):
        for cols in itertools.combinations(range(k), 2):
            sub = cauchy[np.ix_(rows, cols)]
            assert is_invertible(sub, f), (rows, cols)


def test_cauchy_matrix_field_size_limit():
    f = GF(8)
    with pytest.raises(CodeConfigError):
        build_cauchy_matrix(200, 57, f)  # 257 > 256


def test_generator_is_systematic_and_mds():
    code = CauchyRSCode(CodeParams(k=3, m=2))
    gen = code.generator_matrix
    assert np.array_equal(gen[:3], np.eye(3))
    # MDS: every k-row submatrix has full rank.
    f = code.field
    for rows in itertools.combinations(range(5), 3):
        assert gf_matrank(gen[list(rows)], f) == 3, rows


@pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (4, 4), (5, 1), (1, 3)])
def test_any_k_of_n_decodes_exactly(k, m):
    """The core MDS property on real bytes: every survivor set of size k works."""
    rng = np.random.default_rng(k * 10 + m)
    code = CauchyRSCode(CodeParams(k=k, m=m))
    data = random_blocks(rng, k, 128)
    chunks = data + code.encode(data)
    for survivors in itertools.combinations(range(k + m), k):
        available = {i: chunks[i] for i in survivors}
        recovered = code.decode(available)
        for original, rec in zip(data, recovered):
            assert np.array_equal(original, rec), survivors


@pytest.mark.parametrize("decode", ["decode", "decode_fast"])
def test_decode_rejects_chunk_ids_outside_the_code(decode):
    """-3 once decoded as chunk 1 (wrong bytes, no error) and 4 of a
    4-chunk code raised an untyped IndexError: decoding_matrix, which
    every decode reaches, refuses both as a DecodeError."""
    code = CauchyRSCode(CodeParams(k=2, m=2))
    rng = np.random.default_rng(1)
    data = random_blocks(rng, 2, 64)
    chunks = data + code.encode(data)
    for available in ({-3: chunks[3], 2: chunks[2]}, {0: chunks[0], 4: chunks[3]}):
        with pytest.raises(DecodeError):
            getattr(code, decode)(available)


def test_decode_with_insufficient_chunks_raises():
    code = CauchyRSCode(CodeParams(k=3, m=2))
    rng = np.random.default_rng(0)
    data = random_blocks(rng, 3, 64)
    chunks = data + code.encode(data)
    with pytest.raises(DecodeError):
        code.decode({0: chunks[0], 4: chunks[4]})


def test_encode_rejects_mismatched_block_sizes():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    with pytest.raises(CodeConfigError):
        code.encode([np.zeros(8, dtype=np.uint8), np.zeros(16, dtype=np.uint8)])


def test_encode_rejects_wrong_block_count():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    with pytest.raises(CodeConfigError):
        code.encode([np.zeros(8, dtype=np.uint8)])


def test_encode_does_not_mutate_input():
    code = CauchyRSCode(CodeParams(k=2, m=2))
    rng = np.random.default_rng(1)
    data = random_blocks(rng, 2, 32)
    copies = [d.copy() for d in data]
    code.encode(data)
    for original, copy in zip(data, copies):
        assert np.array_equal(original, copy)


@pytest.mark.parametrize("w", [8])
def test_bitmatrix_encode_matches_field_encode(w):
    """The XOR-only path must produce byte-identical parity."""
    rng = np.random.default_rng(w)
    code = CauchyRSCode(CodeParams(k=3, m=2))
    data = random_blocks(rng, 3, 2 * w * 4)  # divisible by w
    field_parity = code.encode(data)
    xor_parity = code.encode_bitmatrix_reference(data)
    for a, b in zip(field_parity, xor_parity):
        assert np.array_equal(a, b)


def test_bitmatrix_encode_requires_divisible_size():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    with pytest.raises(CodeConfigError):
        code.encode_bitmatrix_reference([np.zeros(9, dtype=np.uint8)] * 2)


def test_repr_mentions_parameters():
    assert "k=2" in repr(CauchyRSCode(CodeParams(k=2, m=2)))
