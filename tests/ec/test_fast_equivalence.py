"""Byte-equivalence of the fast kernel paths against the field paths.

The contract this PR's optimisation work rests on: ``encode_bitmatrix`` /
``decode_bitmatrix`` (compiled cached schedules, word-packed chunked
kernels) are byte-identical to the GF(2^w) field-arithmetic ``encode`` /
``decode`` for every word size, payload shape, and survivor set — and the
compile caches never leak results across code shapes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode, schedule_cache_info
from repro.ec.encoder import BlockEncoder
from repro.ec.threadpool import ThreadPoolEncoder

ALL_W = [1, 2, 4, 8, 16]


def _random_blocks(k: int, size: int, seed: int, w: int = 8) -> list:
    rng = np.random.default_rng(seed)
    # Repo convention: for w < 8 each byte holds one w-bit field element.
    top = 256 if w >= 8 else 1 << w
    return [rng.integers(0, top, size=size, dtype=np.uint8) for _ in range(k)]


# Cauchy construction needs k + m <= 2^w, so small fields get small codes.
SHAPE_FOR_W = {1: (1, 1), 2: (2, 2), 4: (4, 2), 8: (4, 2), 16: (4, 2)}


@pytest.mark.parametrize("w", ALL_W)
def test_encode_bitmatrix_matches_field_encode(w):
    k, m = SHAPE_FOR_W[w]
    size = 48 * (2 if w == 16 else 1) * max(w, 1)
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, size, seed=w, w=w)
    fast = code.encode_bitmatrix(blocks)
    field = code.encode(blocks)
    for a, b in zip(fast, field):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("w", ALL_W)
def test_decode_bitmatrix_matches_field_decode(w):
    k, m = SHAPE_FOR_W[w]
    size = 80 * (2 if w == 16 else 1) * max(w, 1)
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, size, seed=100 + w, w=w)
    parity = code.encode(blocks)
    chunks = blocks + parity
    # Lose m data chunks: every parity chunk participates in the repair.
    lost = set(range(min(m, k)))
    available = {i: chunks[i] for i in range(k + m) if i not in lost}
    fast = code.decode_bitmatrix(available)
    field = code.decode(available)
    for a, b in zip(fast, field):
        assert np.array_equal(a, b)
    for j in range(k):
        assert np.array_equal(fast[j], blocks[j])


def test_every_survivor_subset_decodes():
    k, m, w = 3, 2, 4
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, 120, seed=9, w=w)
    chunks = blocks + code.encode_bitmatrix(blocks)
    for ids in itertools.combinations(range(k + m), k):
        available = {i: chunks[i] for i in ids}
        decoded = code.decode_bitmatrix(available)
        for j in range(k):
            assert np.array_equal(decoded[j], blocks[j]), f"subset {ids}"


@settings(max_examples=25, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=4096),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=3),
    w=st.sampled_from([8, 16]),  # arbitrary bytes need full-byte words
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_blockencoder_roundtrip_fast_paths(payload, k, m, w, seed):
    """Odd-length payloads survive encode -> lose m chunks -> decode."""
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    enc = BlockEncoder(code)
    encoded = enc.encode(payload)
    rng = np.random.default_rng(seed)
    ids = rng.choice(k + m, size=k, replace=False)
    available = {int(i): encoded.chunks[int(i)] for i in ids}
    assert enc.decode(available, encoded.original_length) == payload


@settings(max_examples=15, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=2048),
    w=st.sampled_from([4, 8]),
)
def test_fast_encode_equals_field_encode_on_payloads(data, w):
    code = CauchyRSCode(CodeParams(k=3, m=2, w=w))
    enc = BlockEncoder(code)
    from repro.ec.encoder import pad_and_split

    blocks, _ = pad_and_split(data, 3, enc.alignment)
    fast = code.encode_bitmatrix(blocks)
    field = code.encode(blocks)
    for a, b in zip(fast, field):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threadpool_encoder_matches_serial(threads):
    code = CauchyRSCode(CodeParams(k=5, m=3, w=8))
    pool = ThreadPoolEncoder(code, threads=threads)
    blocks = _random_blocks(5, 200 * 1024 + 64, seed=threads)
    parity = pool.encode(blocks)
    want = code.encode(blocks)
    for a, b in zip(parity, want):
        assert np.array_equal(a, b)
    assert pool.last_stats is not None
    assert pool.last_stats.fast_path


def test_threadpool_falls_back_on_misaligned_size():
    code = CauchyRSCode(CodeParams(k=2, m=1, w=8))
    pool = ThreadPoolEncoder(code, threads=2)
    blocks = _random_blocks(2, 123, seed=1)  # 123 % 8 != 0: no kernel path
    parity = pool.encode(blocks)
    want = code.encode(blocks)
    for a, b in zip(parity, want):
        assert np.array_equal(a, b)
    assert not pool.last_stats.fast_path


def test_caches_do_not_leak_across_code_shapes():
    """Interleaved encodes on different shapes stay byte-correct."""
    shapes = [(3, 2, 4), (4, 2, 8), (3, 2, 8), (4, 4, 8), (2, 2, 16)]
    codes = [CauchyRSCode(CodeParams(k=k, m=m, w=w)) for k, m, w in shapes]
    for trial in range(2):
        for idx, (code, (k, m, w)) in enumerate(zip(codes, shapes)):
            size = 64 * (2 if w == 16 else 1)
            blocks = _random_blocks(k, size, seed=trial * 10 + idx, w=w)
            fast = code.encode_bitmatrix(blocks)
            field = code.encode(blocks)
            for a, b in zip(fast, field):
                assert np.array_equal(a, b), f"shape {(k, m, w)} leaked"


def test_schedule_cache_hits_on_fresh_instances():
    """Same-shape codes share one compiled schedule (no recompilation)."""
    params = CodeParams(k=4, m=3, w=8)
    blocks = _random_blocks(4, 256, seed=42)
    first = CauchyRSCode(params)
    first.encode_bitmatrix(blocks)  # warm the module caches
    before = schedule_cache_info()
    second = CauchyRSCode(params)
    out = second.encode_bitmatrix(blocks)
    after = schedule_cache_info()
    assert after["schedule_hits"] > before["schedule_hits"]
    assert after["schedule_misses"] == before["schedule_misses"]
    assert after["bitmatrix_misses"] == before["bitmatrix_misses"]
    for a, b in zip(out, first.encode(blocks)):
        assert np.array_equal(a, b)


def test_decode_schedule_cache_counts_repeat_survivor_sets():
    """Repeated decodes with one survivor set compile exactly once."""
    code = CauchyRSCode(CodeParams(k=4, m=2, w=8))
    blocks = _random_blocks(4, 512, seed=8)
    chunks = blocks + code.encode_bitmatrix(blocks)
    available = {i: chunks[i] for i in (1, 3, 4, 5)}
    assert code.decode_cache_info()["misses"] == 0
    for _ in range(3):
        decoded = code.decode_bitmatrix(available)
    info = code.decode_cache_info()
    assert info["misses"] == 1
    assert info["hits"] == 2
    assert info["size"] == 1
    for j in range(4):
        assert np.array_equal(decoded[j], blocks[j])
    # A different survivor set is a fresh compilation...
    other = {i: chunks[i] for i in (0, 1, 2, 5)}
    code.decode_bitmatrix(other)
    assert code.decode_cache_info()["misses"] == 2
    # ...and the field-path decoding-matrix LRU records its own hits.
    code.decode(available)
    code.decode(available)
    assert code.decoding_cache_info()["hits"] >= 1


# ----------------------------------------------------------------------
# Property suite: random (k, m, w) grid x ragged payload sizes.  Example
# budgets come from the Hypothesis profile in tests/conftest.py (bounded
# for tier-1; `repro selftest --profile thorough` digs deeper).


@st.composite
def code_shapes(draw):
    """Random valid (k, m, w) with k + m <= 2^w (Cauchy's field bound)."""
    w = draw(st.sampled_from([2, 4, 8, 16]))
    limit = min(1 << w, 8)
    k = draw(st.integers(min_value=1, max_value=limit - 1))
    m = draw(st.integers(min_value=1, max_value=min(limit - k, 4)))
    return k, m, w


@settings(deadline=None)
@given(
    shape=code_shapes(),
    # Ragged: any multiple of w (the kernel path's only size constraint),
    # including odd multiples and the empty block.
    strips=st.integers(min_value=0, max_value=37),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fast_path_matches_reference_bitmatrix(shape, strips, seed):
    """Compiled-schedule encode == strip-at-a-time reference == field."""
    k, m, w = shape
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, strips * w, seed=seed, w=w)
    fast = code.encode_bitmatrix(blocks)
    reference = code.encode_bitmatrix_reference(blocks)
    field = code.encode(blocks)
    for a, b, c in zip(fast, reference, field):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


@settings(deadline=None)
@given(
    shape=code_shapes(),
    strips=st.integers(min_value=1, max_value=29),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fast_decode_matches_reference_on_random_survivors(shape, strips, seed):
    """Kernel decode == reference decode on a random k-survivor set."""
    k, m, w = shape
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, strips * w, seed=seed, w=w)
    chunks = blocks + code.encode_bitmatrix(blocks)
    rng = np.random.default_rng(seed)
    ids = rng.choice(k + m, size=k, replace=False)
    available = {int(i): chunks[int(i)] for i in ids}
    fast = code.decode_bitmatrix(available)
    reference = code.decode_bitmatrix_reference(available)
    for j in range(k):
        assert np.array_equal(fast[j], reference[j])
        assert np.array_equal(fast[j], blocks[j])


# Exhaustive erasure coverage on a fixed grid spanning every word size:
# for each shape, *every* m-subset of erasures must decode bit-exactly.
@pytest.mark.parametrize(
    "k,m,w",
    [(2, 1, 2), (2, 2, 2), (3, 2, 4), (4, 3, 4), (5, 3, 8), (4, 4, 8), (3, 3, 16)],
)
def test_every_erasure_subset_decodes_across_word_sizes(k, m, w):
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, 24 * w, seed=k * 100 + m * 10 + w, w=w)
    chunks = blocks + code.encode_bitmatrix(blocks)
    for lost in itertools.combinations(range(k + m), m):
        available = {
            i: chunks[i] for i in range(k + m) if i not in set(lost)
        }
        decoded = code.decode_bitmatrix(available)
        for j in range(k):
            assert np.array_equal(decoded[j], blocks[j]), f"erasures {lost}"


@settings(deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=8192),
    shape=code_shapes().filter(lambda s: s[2] >= 8),  # raw bytes need w >= 8
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_blockencoder_roundtrip_random_grid(payload, shape, seed):
    """Ragged payloads round-trip through the full fast encoder stack."""
    k, m, w = shape
    enc = BlockEncoder(CauchyRSCode(CodeParams(k=k, m=m, w=w)))
    encoded = enc.encode(payload)
    rng = np.random.default_rng(seed)
    ids = rng.choice(k + m, size=k, replace=False)
    available = {int(i): encoded.chunks[int(i)] for i in ids}
    assert enc.decode(available, encoded.original_length) == payload


@settings(deadline=None, max_examples=15)
@given(
    shape=code_shapes().filter(lambda s: s[2] >= 8),
    strips=st.integers(min_value=0, max_value=29),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_procpool_single_shot_matches_reference(shape, strips, seed):
    """Process-pool encoder (in-process single-shot route) on the grid.

    workers=1 keeps the grid sweep affordable — the pooled fan-out route
    is exercised against the same serial reference by the module-scoped
    pool in tests/ec/test_procpool.py; the two routes share split_ranges
    and the kernel entry point, which is what this asserts byte-wise.
    """
    from repro.ec.procpool import SharedMemoryProcessPoolEncoder

    k, m, w = shape
    code = CauchyRSCode(CodeParams(k=k, m=m, w=w))
    blocks = _random_blocks(k, strips * w, seed=seed, w=w)
    enc = SharedMemoryProcessPoolEncoder(code, workers=1)
    try:
        parity = enc.encode(blocks)
    finally:
        enc.close()
    for a, b in zip(parity, code.encode(blocks)):
        assert np.array_equal(a, b)
