"""Tests for Vandermonde RS and the Fig. 2 redundancy argument."""

import itertools

import numpy as np
import pytest

from repro.errors import CodeConfigError
from repro.ec.base import CodeParams
from repro.ec.vandermonde import VandermondeRSCode, build_vandermonde_generator
from repro.gf.field import GF
from repro.gf.matrix import gf_matrank


def random_blocks(rng, k, size=64):
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


# ---------------------------------------------------------------------------
# Vandermonde RS
# ---------------------------------------------------------------------------
def test_vandermonde_generator_systematic_and_mds():
    f = GF(8)
    k, m = 4, 3
    gen = build_vandermonde_generator(k, m, f)
    assert np.array_equal(gen[:k], np.eye(k))
    for rows in itertools.combinations(range(k + m), k):
        assert gf_matrank(gen[list(rows)], f) == k, rows


def test_vandermonde_field_size_limit():
    with pytest.raises(CodeConfigError):
        build_vandermonde_generator(200, 100, GF(8))


@pytest.mark.parametrize("k,m", [(2, 2), (4, 2)])
def test_vandermonde_any_k_decodes(k, m):
    rng = np.random.default_rng(42)
    code = VandermondeRSCode(CodeParams(k=k, m=m))
    data = random_blocks(rng, k)
    chunks = data + code.encode(data)
    for survivors in itertools.combinations(range(k + m), k):
        recovered = code.decode({i: chunks[i] for i in survivors})
        for original, rec in zip(data, recovered):
            assert np.array_equal(original, rec)


def test_vandermonde_and_cauchy_tolerate_same_failures():
    from repro.ec.cauchy import CauchyRSCode

    params = CodeParams(k=3, m=2)
    data = random_blocks(np.random.default_rng(3), 3)
    for code in [VandermondeRSCode(params), CauchyRSCode(params)]:
        chunks = data + code.encode(data)
        for survivors in itertools.combinations(range(5), 3):
            recovered = code.decode({i: chunks[i] for i in survivors})
            assert all(np.array_equal(a, b) for a, b in zip(recovered, data))


# ---------------------------------------------------------------------------
# Redundancy comparison (the paper's Fig. 2 argument, executable)
# ---------------------------------------------------------------------------
def test_fig2_erasure_coding_beats_replication_at_equal_redundancy():
    """4 chunks, 2x redundancy: EC tolerates ANY 2 losses, replication doesn't.

    Mirrors Fig. 2 of the paper: nodes {0,1} replicate each other and
    {2,3} replicate each other (base3 grouping), vs a (4, 2) MDS code.
    """
    from repro.ec.cauchy import CauchyRSCode

    rng = np.random.default_rng(4)
    data = random_blocks(rng, 2)

    ec = CauchyRSCode(CodeParams(k=2, m=2))
    chunks = data + ec.encode(data)
    for lost_pair in itertools.combinations(range(4), 2):
        available = {i: chunks[i] for i in range(4) if i not in lost_pair}
        recovered = ec.decode(available)
        assert np.array_equal(recovered[0], data[0])
        assert np.array_equal(recovered[1], data[1])

    # Replication with the same 2x redundancy: chunk 0 lives on nodes {0,1},
    # chunk 1 on nodes {2,3}.  Losing nodes {0,1} loses chunk 0 forever.
    placement = {0: {0}, 1: {0}, 2: {1}, 3: {1}}
    survivable = [
        pair
        for pair in itertools.combinations(range(4), 2)
        if all(
            any(node not in pair for node, chunks_ in placement.items() if c in chunks_)
            for c in (0, 1)
        )
    ]
    assert len(survivable) < 6  # replication cannot survive all 2-loss patterns
