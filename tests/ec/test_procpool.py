"""Shared-memory process-pool encoder: byte identity, dispatch modes, and
the full segment lifecycle (clean shutdown, worker crash, reconfigure).

A module-scoped encoder amortises the spawn cost of the worker pool
across the equivalence tests; the lifecycle tests that must kill or close
things build their own.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import CodeConfigError, EncodeError
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.ec.procpool import (
    SEGMENT_PREFIX,
    SharedMemoryProcessPoolEncoder,
    make_encoder,
)
from repro.ec.threadpool import ThreadPoolEncoder
from repro.ec.vandermonde import VandermondeRSCode
from repro.obs.trace_io import validate_spans


def _blocks(k, size, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(k)]


def _segment_files(enc):
    """The encoder's live segments that are visible in /dev/shm."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("needs /dev/shm")
    return [n for n in enc.segment_names() if os.path.exists(f"/dev/shm/{n}")]


@pytest.fixture(scope="module")
def encoder():
    enc = SharedMemoryProcessPoolEncoder(
        CauchyRSCode(CodeParams(k=4, m=2)),
        workers=2,
        min_subtask_bytes=4096,
    )
    yield enc
    enc.close()


# ----------------------------------------------------------------------
# Byte identity + dispatch
# ----------------------------------------------------------------------


def test_pooled_encode_matches_serial(encoder):
    blocks = _blocks(4, 96 * 1024, seed=0)
    parity = encoder.encode(blocks)
    want = encoder.code.encode(blocks)
    for a, b in zip(parity, want):
        assert np.array_equal(a, b)
    stats = encoder.last_stats
    assert stats.mode == "pool" and stats.backend == "process"
    assert stats.sub_tasks > 1


def test_tiny_payload_stays_in_process(encoder):
    blocks = _blocks(4, 1024, seed=1)
    parity = encoder.encode(blocks)
    for a, b in zip(parity, encoder.code.encode(blocks)):
        assert np.array_equal(a, b)
    assert encoder.last_stats.mode == "single"
    assert encoder.last_stats.sub_tasks == 1


def test_wrong_block_count_raises(encoder):
    with pytest.raises(CodeConfigError):
        encoder.encode(_blocks(3, 64, seed=3))


def test_matches_threadpool_backend(encoder):
    """Both pool backends produce the same bytes (same split, same kernels)."""
    blocks = _blocks(4, 64 * 1024 + 64, seed=4)
    threadpool = ThreadPoolEncoder(encoder.code, threads=2)
    for a, b in zip(encoder.encode(blocks), threadpool.encode(blocks)):
        assert np.array_equal(a, b)


@settings(deadline=None, max_examples=10)
@given(
    # Ragged sizes: sub-ranges whose last one ends off the word alignment,
    # pooled and single-shot; 0 is the empty-block edge.
    size=st.integers(min_value=0, max_value=40_000),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_encode_matches_serial_on_ragged_sizes(encoder, size, seed):
    blocks = _blocks(4, size, seed=seed)
    parity = encoder.encode(blocks)
    for a, b in zip(parity, encoder.code.encode(blocks)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k,m,w", [(2, 1, 8), (5, 3, 8)])
def test_reconfigure_grid_matches_serial(encoder, k, m, w):
    """One live pool re-pointed across shapes stays byte-correct."""
    code = CauchyRSCode(CodeParams(k=k, m=m))
    encoder.reconfigure(code)
    try:
        for size in (17 * w, 48 * 1024):
            blocks = _blocks(k, size, seed=k * 10 + m)
            parity = encoder.encode(blocks)
            for a, b in zip(parity, code.encode(blocks)):
                assert np.array_equal(a, b), f"(k={k}, m={m}, w={w}) size={size}"
    finally:
        encoder.reconfigure(CauchyRSCode(CodeParams(k=4, m=2)))


def test_pooled_encode_runs_the_codes_own_rows(encoder):
    """Workers are sent the parity rows, not a code shape to rebuild: a
    Vandermonde code pools to its own parity, not a Cauchy code's."""
    code = VandermondeRSCode(CodeParams(k=4, m=2))
    encoder.reconfigure(code)
    try:
        blocks = _blocks(4, 96 * 1024, seed=14)
        parity = encoder.encode(blocks)
        assert encoder.last_stats.mode == "pool"
        for a, b in zip(parity, code.encode(blocks)):
            assert np.array_equal(a, b)
    finally:
        encoder.reconfigure(CauchyRSCode(CodeParams(k=4, m=2)))


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------


def test_clean_shutdown_unlinks_segments():
    enc = SharedMemoryProcessPoolEncoder(
        CauchyRSCode(CodeParams(k=2, m=1)), workers=2, min_subtask_bytes=4096
    )
    enc.encode(_blocks(2, 64 * 1024, seed=5))
    live = _segment_files(enc)
    assert len(live) == 2  # data + parity, visible while the encoder lives
    names = enc.segment_names()
    enc.close()
    assert enc.segment_names() == []
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
    # close() is idempotent.
    enc.close()


def test_context_manager_cleans_up():
    with SharedMemoryProcessPoolEncoder(
        CauchyRSCode(CodeParams(k=2, m=1)), workers=2, min_subtask_bytes=4096
    ) as enc:
        enc.encode(_blocks(2, 64 * 1024, seed=6))
        names = enc.segment_names()
        assert names
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")


def test_reconfigure_reallocates_segments():
    enc = SharedMemoryProcessPoolEncoder(
        CauchyRSCode(CodeParams(k=2, m=2)), workers=2, min_subtask_bytes=4096
    )
    try:
        enc.encode(_blocks(2, 64 * 1024, seed=7))
        old_names = enc.segment_names()
        assert old_names
        new_code = CauchyRSCode(CodeParams(k=3, m=1))
        enc.reconfigure(new_code)
        # Old segments are gone immediately: nothing resizes under workers.
        assert enc.segment_names() == []
        for name in old_names:
            assert not os.path.exists(f"/dev/shm/{name}")
        blocks = _blocks(3, 64 * 1024, seed=8)
        parity = enc.encode(blocks)
        for a, b in zip(parity, new_code.encode(blocks)):
            assert np.array_equal(a, b)
        assert set(enc.segment_names()).isdisjoint(old_names)
    finally:
        enc.close()


def test_worker_crash_raises_and_unlinks():
    enc = SharedMemoryProcessPoolEncoder(
        CauchyRSCode(CodeParams(k=2, m=1)), workers=2, min_subtask_bytes=4096
    )
    try:
        blocks = _blocks(2, 128 * 1024, seed=9)
        enc.encode(blocks)  # spawn workers, allocate segments
        names = enc.segment_names()
        assert names
        victim = next(iter(enc._state["pool"]._processes))
        os.kill(victim, signal.SIGKILL)
        # Give the executor's management thread a moment to notice.
        deadline = time.monotonic() + 5.0
        with pytest.raises(EncodeError):
            while True:
                enc.encode(blocks)
                assert time.monotonic() < deadline, "pool never broke"
        # The crash path released everything: no /dev/shm leak.
        assert enc.segment_names() == []
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")
        # The next encode respawns a fresh pool and works again.
        parity = enc.encode(blocks)
        for a, b in zip(parity, enc.code.encode(blocks)):
            assert np.array_equal(a, b)
    finally:
        enc.close()


def test_finalizer_releases_orphaned_encoder():
    enc = SharedMemoryProcessPoolEncoder(
        CauchyRSCode(CodeParams(k=2, m=1)), workers=2, min_subtask_bytes=4096
    )
    enc.encode(_blocks(2, 64 * 1024, seed=10))
    names = enc.segment_names()
    finalizer = enc._finalizer
    del enc
    finalizer()  # what gc would run; deterministic for the test
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")


# ----------------------------------------------------------------------
# Tracing: worker spans via the cross-process parent mechanism
# ----------------------------------------------------------------------


def test_traced_and_untraced_runs_are_byte_identical(encoder):
    blocks = _blocks(4, 96 * 1024, seed=11)
    untraced = encoder.encode(blocks)
    with obs.use_tracer(obs.Tracer()):
        traced = encoder.encode(blocks)
    for a, b in zip(untraced, traced):
        assert np.array_equal(a, b)


def test_worker_spans_nest_under_encode_span(encoder):
    blocks = _blocks(4, 96 * 1024, seed=12)
    with obs.use_tracer(obs.Tracer()) as tracer:
        encoder.encode(blocks)
    spans = [r for r in tracer.records() if r["type"] == "span"]
    assert validate_spans(spans) == []
    (parent,) = [s for s in spans if s["name"] == "procpool.encode"]
    workers = [s for s in spans if s["name"] == "procpool.worker"]
    assert len(workers) == parent["attrs"]["sub_tasks"] >= 2
    for ws in workers:
        assert ws["parent"] == parent["id"]
        assert ws["attrs"]["pid"] != os.getpid()
        # perf_counter is shared across processes: worker wall time fits
        # inside the coordinating span's interval.
        assert ws["start"] >= parent["start"]
        assert ws["start"] + ws["wall_s"] <= parent["start"] + parent["wall_s"] + 1e-9


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------


def test_make_encoder_backends():
    code = CauchyRSCode(CodeParams(k=2, m=1))
    assert isinstance(make_encoder(code, "thread"), ThreadPoolEncoder)
    proc = make_encoder(code, "process", threads=2)
    assert isinstance(proc, SharedMemoryProcessPoolEncoder)
    proc.close()
    with pytest.raises(CodeConfigError):
        make_encoder(code, "gpu")


def test_segment_names_carry_the_leak_check_prefix(encoder):
    encoder.encode(_blocks(4, 64 * 1024, seed=13))
    for name in encoder.segment_names():
        assert SEGMENT_PREFIX in name
