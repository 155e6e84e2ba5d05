"""Tests for a code's round trip on blocks and the thread-pool encoder."""

import itertools

import numpy as np
import pytest

from repro.errors import CodeConfigError, DecodeError
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.ec.threadpool import ThreadPoolEncoder
from tests.ec.test_fast_equivalence import payload_blocks


def test_block_encoder_round_trip_every_survivor_set():
    code = CauchyRSCode(CodeParams(k=3, m=2))
    payload = bytes(range(256)) * 3 + b"tail"
    blocks = payload_blocks(payload, 3)
    chunks = blocks + code.encode(blocks)
    assert len(chunks) == 5
    for survivors in itertools.combinations(range(5), 3):
        decoded = code.decode_fast({i: chunks[i] for i in survivors})
        assert np.concatenate(decoded).tobytes()[: len(payload)] == payload


def test_block_encoder_insufficient_survivors():
    code = CauchyRSCode(CodeParams(k=3, m=2))
    blocks = payload_blocks(b"payload", 3)
    chunks = blocks + code.encode(blocks)
    with pytest.raises(DecodeError):
        code.decode_fast({0: chunks[0]})


def test_block_encoder_chunk_bytes():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    blocks = payload_blocks(b"x" * 101, 2)
    chunks = blocks + code.encode(blocks)
    assert {chunk.nbytes for chunk in chunks} == {51}


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threadpool_encoder_matches_serial(threads):
    rng = np.random.default_rng(threads)
    code = CauchyRSCode(CodeParams(k=3, m=2))
    blocks = [rng.integers(0, 256, size=32768, dtype=np.uint8) for _ in range(3)]
    serial = code.encode(blocks)
    pooled = ThreadPoolEncoder(code, threads=threads, min_subtask_bytes=1024).encode(
        blocks
    )
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)


def test_threadpool_encoder_records_stats():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    enc = ThreadPoolEncoder(code, threads=2, min_subtask_bytes=64)
    blocks = [np.zeros(1024, dtype=np.uint8)] * 2
    enc.encode(blocks)
    assert enc.last_stats is not None
    assert enc.last_stats.bytes_encoded == 2048
    assert enc.last_stats.sub_tasks >= 1


def test_threadpool_encoder_tiny_buffer_single_task():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    enc = ThreadPoolEncoder(code, threads=8, min_subtask_bytes=4096)
    blocks = [np.ones(16, dtype=np.uint8)] * 2
    parity = enc.encode(blocks)
    assert enc.last_stats.sub_tasks == 1
    assert np.array_equal(parity[0], code.encode(blocks)[0])


def test_threadpool_encoder_validates_input():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    enc = ThreadPoolEncoder(code, threads=2)
    with pytest.raises(CodeConfigError):
        enc.encode([np.zeros(8, dtype=np.uint8)])
    with pytest.raises(CodeConfigError):
        enc.encode([np.zeros(8, dtype=np.uint8), np.zeros(4, dtype=np.uint8)])
    with pytest.raises(CodeConfigError):
        ThreadPoolEncoder(code, threads=0)


# ----------------------------------------------------------------------
# Adaptive single-shot fallback: the fix for pooled encodes losing to
# single-shot when the GIL serialises the workers.
# ----------------------------------------------------------------------


def _adaptive_encoder(**kwargs):
    code = CauchyRSCode(CodeParams(k=3, m=2))
    enc = ThreadPoolEncoder(code, threads=4, min_subtask_bytes=1024, **kwargs)
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 256, size=65536, dtype=np.uint8) for _ in range(3)]
    return code, enc, blocks


def test_adaptive_calibrates_then_picks_the_winner():
    code, enc, blocks = _adaptive_encoder()
    # Deterministic clock: single-shot "measures" fast, pooled slow.
    ticks = iter([0.0, 1.0, 10.0, 30.0] + [float(i) for i in range(100, 300)])
    enc._clock = lambda: next(ticks)
    want = code.encode(blocks)

    enc.encode(blocks)
    assert enc.last_stats.mode == "single"  # first call calibrates single
    enc.encode(blocks)
    assert enc.last_stats.mode == "pool"  # second call calibrates pooled
    parity = enc.encode(blocks)
    # single took 1s, pooled took 20s: every later call falls back.
    assert enc.last_stats.mode == "single"
    assert enc.last_stats.sub_tasks == 1
    for a, b in zip(parity, want):
        assert np.array_equal(a, b)


def test_adaptive_prefers_pool_when_it_wins():
    _, enc, blocks = _adaptive_encoder()
    ticks = iter([0.0, 20.0, 100.0, 101.0] + [float(i) for i in range(200, 400)])
    enc._clock = lambda: next(ticks)
    enc.encode(blocks)
    enc.encode(blocks)
    enc.encode(blocks)
    assert enc.last_stats.mode == "pool"
    assert enc.last_stats.sub_tasks > 1


def test_adaptive_calibration_is_per_size_bucket():
    code, enc, blocks = _adaptive_encoder()
    enc.encode(blocks)
    assert enc.last_stats.mode == "single"
    # A very different payload size starts its own calibration.
    rng = np.random.default_rng(1)
    small = [rng.integers(0, 256, size=8192, dtype=np.uint8) for _ in range(3)]
    enc.encode(small)
    assert enc.last_stats.mode == "single"  # fresh bucket: calibrating again


def test_non_adaptive_always_pools():
    code, enc, blocks = _adaptive_encoder(adaptive=False)
    for _ in range(3):
        enc.encode(blocks)
        assert enc.last_stats.mode == "pool"
        assert enc.last_stats.backend == "thread"


def test_single_thread_never_pools():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    enc = ThreadPoolEncoder(code, threads=1, min_subtask_bytes=64)
    blocks = [np.ones(4096, dtype=np.uint8)] * 2
    parity = enc.encode(blocks)
    assert enc.last_stats.mode == "single"
    assert np.array_equal(parity[0], code.encode(blocks)[0])
