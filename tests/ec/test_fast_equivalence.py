"""Byte-equivalence of the fused-kernel paths against the references.

``encode_fast`` / ``decode_fast`` run :func:`repro.ec.kernels.apply_rows`,
the kernel every engine save and restore runs; ``encode`` / ``decode`` are
the field-arithmetic references and ``encode_bitmatrix_reference`` is the
paper's XOR-only encode.  They agree byte for byte for every
generator construction, survivor set and size — sizes on both sides of
the kernel's 64 KiB block included — and both pool encoders equal
``encode``.
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode, schedule_cache_info
from repro.ec.kernels import DEFAULT_CHUNK_BYTES as BLOCK
from repro.ec.threadpool import ThreadPoolEncoder
from repro.ec.vandermonde import VandermondeRSCode

# Generator constructions: both Cauchy ones (the engine runs the "good"
# one) and the Vandermonde baseline.
CONSTRUCTIONS = {
    "cauchy": CauchyRSCode,
    "cauchy-good": partial(CauchyRSCode, good_matrix=True),
    "vandermonde": VandermondeRSCode,
}

# Either side of one and of two kernel blocks.
BLOCK_EDGE_SIZES = [2, BLOCK - 2, BLOCK + 2, 2 * BLOCK + 6]


def _random_blocks(k: int, size: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("w", [8])
def test_encode_bitmatrix_matches_field_encode(w):
    """encode_fast == encode for every construction and block-edge size,
    and the XOR-only bitmatrix reference agrees wherever w divides it."""
    k, m = 4, 2
    for name, construct in CONSTRUCTIONS.items():
        code = construct(CodeParams(k=k, m=m))
        for size in BLOCK_EDGE_SIZES:
            blocks = _random_blocks(k, size, seed=w + size)
            want = code.encode(blocks)
            assert _same(code.encode_fast(blocks), want), (name, size)
            if isinstance(code, CauchyRSCode) and size % w == 0:
                assert _same(code.encode_bitmatrix_reference(blocks), want), (name, size)


@pytest.mark.parametrize("w", [8])
def test_decode_fast_matches_field_decode(w):
    """decode_fast == decode == the data, from every k-survivor subset."""
    k, m = 4, 2
    for name, construct in CONSTRUCTIONS.items():
        code = construct(CodeParams(k=k, m=m))
        for size in (BLOCK - 2, BLOCK + 2):
            blocks = _random_blocks(k, size, seed=100 + w + size)
            chunks = blocks + code.encode(blocks)
            for ids in itertools.combinations(range(k + m), k):
                available = {i: chunks[i] for i in ids}
                fast = code.decode_fast(available)
                assert _same(fast, code.decode(available)), (name, size, ids)
                assert _same(fast, blocks), (name, size, ids)


def test_every_survivor_subset_decodes():
    k, m = 3, 2
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = _random_blocks(k, 120, seed=9)
    chunks = blocks + code.encode_fast(blocks)
    for ids in itertools.combinations(range(k + m), k):
        available = {i: chunks[i] for i in ids}
        assert _same(code.decode_fast(available), blocks), f"subset {ids}"


def payload_blocks(payload: bytes, k: int) -> list:
    """Zero-pad ``payload`` to ``k`` equal, non-empty blocks."""
    block = max(1, -(-len(payload) // k))
    padded = np.zeros(k * block, dtype=np.uint8)
    padded[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return list(padded.reshape(k, block))


@settings(max_examples=25, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=4096),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_blockencoder_roundtrip_fast_paths(payload, k, m, seed):
    """Odd-length payloads survive encode -> lose m chunks -> decode_fast."""
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = payload_blocks(payload, k)
    chunks = blocks + code.encode(blocks)
    rng = np.random.default_rng(seed)
    ids = rng.choice(k + m, size=k, replace=False)
    decoded = code.decode_fast({int(i): chunks[int(i)] for i in ids})
    assert np.concatenate(decoded).tobytes()[: len(payload)] == payload


@settings(max_examples=15, deadline=None)
@given(data=st.binary(min_size=1, max_size=2048))
def test_fast_encode_equals_field_encode_on_payloads(data):
    code = CauchyRSCode(CodeParams(k=3, m=2))
    blocks = payload_blocks(data, 3)
    assert _same(code.encode_fast(blocks), code.encode(blocks))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threadpool_encoder_matches_serial(threads):
    """A ragged size: the last sub-range ends off the word alignment."""
    code = CauchyRSCode(CodeParams(k=5, m=3))
    pool = ThreadPoolEncoder(code, threads=threads, adaptive=False)
    blocks = _random_blocks(5, 200 * 1024 + 61, seed=threads)
    assert _same(pool.encode(blocks), code.encode(blocks))
    assert pool.last_stats.mode == ("single" if threads == 1 else "pool")


def test_caches_do_not_leak_across_code_shapes():
    """Interleaved encodes and decodes on different shapes stay
    byte-correct (region tables, generators and decoding matrices are all
    cached)."""
    shapes = [(3, 2), (4, 2), (2, 2), (4, 4), (5, 3)]
    codes = [CauchyRSCode(CodeParams(k=k, m=m)) for k, m in shapes]
    for trial in range(2):
        for idx, (code, (k, m)) in enumerate(zip(codes, shapes)):
            blocks = _random_blocks(k, 64, seed=trial * 10 + idx)
            parity = code.encode_fast(blocks)
            assert _same(parity, code.encode(blocks)), f"shape {(k, m)} leaked"
            survivors = dict(enumerate(blocks + parity))
            del survivors[0]
            assert _same(code.decode_fast(survivors), blocks), f"shape {(k, m)}"


def test_schedule_cache_hits_on_fresh_instances():
    """Same-shape codes share one parity bitmatrix expansion, and the
    ``schedule_*`` keys of the retired encode-schedule cache read 0."""
    params = CodeParams(k=4, m=3)
    shared = CauchyRSCode(params).parity_bitmatrix  # warm the module cache
    before = schedule_cache_info()
    assert CauchyRSCode(params).parity_bitmatrix is shared
    after = schedule_cache_info()
    assert after["bitmatrix_hits"] == before["bitmatrix_hits"] + 1
    assert after["bitmatrix_misses"] == before["bitmatrix_misses"]
    assert after["schedule_hits"] == after["schedule_misses"] == 0
    assert after["schedule_entries"] == 0


def test_decode_schedule_cache_counts_repeat_survivor_sets():
    """Repeated decodes with one survivor set invert its matrix once: the
    decoding-matrix LRU behind ``decode_cache_info`` counts every lookup,
    from decode_fast and the field reference alike."""
    code = CauchyRSCode(CodeParams(k=4, m=2))
    blocks = _random_blocks(4, 512, seed=8)
    chunks = blocks + code.encode_fast(blocks)
    available = {i: chunks[i] for i in (1, 3, 4, 5)}
    assert code.decode_cache_info()["misses"] == 0
    for _ in range(3):
        decoded = code.decode_fast(available)
    info = code.decode_cache_info()
    assert (info["misses"], info["hits"], info["size"]) == (1, 2, 1)
    assert _same(decoded, blocks)
    # A different survivor set is a fresh inversion...
    code.decode_fast({i: chunks[i] for i in (0, 1, 2, 5)})
    assert code.decode_cache_info()["misses"] == 2
    # ...and the field reference shares the same cache.
    code.decode(available)
    assert code.decode_cache_info()["hits"] == 3


# ----------------------------------------------------------------------
# Property suite: random (k, m) grid x ragged payload sizes.  Example
# budgets come from the Hypothesis profile in tests/conftest.py (bounded
# for tier-1; `repro selftest --profile thorough` digs deeper).


@st.composite
def code_shapes(draw):
    """Random (k, m) with k + m <= 8."""
    k = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=1, max_value=min(8 - k, 4)))
    return k, m


@settings(deadline=None)
@given(
    shape=code_shapes(),
    # Ragged: any multiple of 8 (the bitmatrix reference's only size
    # constraint), including odd multiples and the empty block.
    strips=st.integers(min_value=0, max_value=37),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fast_path_matches_reference_bitmatrix(shape, strips, seed):
    """Fused-kernel encode == XOR-only bitmatrix reference == field."""
    k, m = shape
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = _random_blocks(k, strips * 8, seed=seed)
    fast = code.encode_fast(blocks)
    assert _same(fast, code.encode_bitmatrix_reference(blocks))
    assert _same(fast, code.encode(blocks))


@settings(deadline=None)
@given(
    shape=code_shapes(),
    strips=st.integers(min_value=1, max_value=29),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fast_decode_matches_reference_on_random_survivors(shape, strips, seed):
    """Fused-kernel decode == field decode == the data, on a random
    k-survivor set."""
    k, m = shape
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = _random_blocks(k, strips * 8, seed=seed)
    chunks = blocks + code.encode_fast(blocks)
    rng = np.random.default_rng(seed)
    ids = rng.choice(k + m, size=k, replace=False)
    available = {int(i): chunks[int(i)] for i in ids}
    fast = code.decode_fast(available)
    assert _same(fast, code.decode(available))
    assert _same(fast, blocks)


# Exhaustive erasure coverage on a fixed grid of shapes: for each, *every*
# m-subset of erasures must decode bit-exactly.
@pytest.mark.parametrize(
    "k,m,w",
    [(2, 1, 8), (2, 2, 8), (3, 2, 8), (4, 3, 8), (5, 3, 8), (4, 4, 8), (3, 3, 8)],
)
def test_every_erasure_subset_decodes_across_word_sizes(k, m, w):
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = _random_blocks(k, 24 * w, seed=k * 100 + m * 10 + w)
    chunks = blocks + code.encode_fast(blocks)
    for lost in itertools.combinations(range(k + m), m):
        available = {i: chunks[i] for i in range(k + m) if i not in set(lost)}
        assert _same(code.decode_fast(available), blocks), f"erasures {lost}"


@settings(deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=8192),
    shape=code_shapes(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_blockencoder_roundtrip_random_grid(payload, shape, seed):
    """Ragged payloads round-trip through encode and decode_fast."""
    k, m = shape
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = payload_blocks(payload, k)
    chunks = blocks + code.encode(blocks)
    rng = np.random.default_rng(seed)
    ids = rng.choice(k + m, size=k, replace=False)
    decoded = code.decode_fast({int(i): chunks[int(i)] for i in ids})
    assert np.concatenate(decoded).tobytes()[: len(payload)] == payload


@settings(deadline=None, max_examples=15)
@given(
    shape=code_shapes(),
    strips=st.integers(min_value=0, max_value=29),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_procpool_single_shot_matches_reference(shape, strips, seed):
    """Process-pool encoder (in-process single-shot route) on the grid.

    workers=1 keeps the grid sweep affordable — the pooled fan-out route
    is exercised against the same reference by the module-scoped pool in
    tests/ec/test_procpool.py; both routes run the fused kernel.
    """
    from repro.ec.procpool import SharedMemoryProcessPoolEncoder

    k, m = shape
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = _random_blocks(k, strips * 8, seed=seed)
    enc = SharedMemoryProcessPoolEncoder(code, workers=1)
    try:
        parity = enc.encode(blocks)
    finally:
        enc.close()
    assert _same(parity, code.encode(blocks))
