"""Tests for the kernel layer (repro.ec.kernels) and, on the reference
bit-planes, the XOR schedules the ablations count."""

import numpy as np
import pytest

from repro.ec.base import CodeParams
from repro.ec.cauchy import (
    CauchyRSCode,
    _reference_bitplanes_to_blocks,
    _reference_blocks_to_bitplanes,
    cached_parity_bitmatrix,
)
from repro.ec.kernels import (
    DEFAULT_CHUNK_BYTES,
    apply_rows,
    xor_reduce_arrays,
    xor_reduce_into,
)
from repro.ec.schedule import dumb_schedule, paar_schedule, smart_schedule


def _roundtrip(n_bytes: int, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    block = rng.integers(0, 256, size=n_bytes, dtype=np.uint8)
    strips = _reference_blocks_to_bitplanes([block])
    assert len(strips) == 8
    (out,) = _reference_bitplanes_to_blocks(strips, 1, n_bytes)
    assert np.array_equal(out, block)


@pytest.mark.parametrize("w", [8])
def test_decompose_recompose_roundtrip(w):
    for n in (1, 8, 13, 52, 1000, 4096):
        _roundtrip(n, seed=w * 1000 + n)


@pytest.mark.parametrize("w", [8])
def test_roundtrip_sizes_not_multiple_of_packing(w):
    # Sizes whose strips end mid-byte exercise the packbits padding bits.
    for n_bytes in (1, 3, 7, 9, 15, 17, 63):
        _roundtrip(n_bytes, seed=n_bytes)


def test_strip_bytes_for():
    """A strip packs one bit per byte of the block: ceil(bytes / 8) bytes."""
    for n_bytes, strip in ((64, 8), (13, 2), (1, 1)):
        block = np.zeros(n_bytes, dtype=np.uint8)
        assert _reference_blocks_to_bitplanes([block])[0].size == strip


@pytest.mark.parametrize("w", [8])
def test_chunk_size_independence(w):
    """The kernel is blockwise: running it over any split of the bytes —
    what the pool encoders do — writes the bytes one whole call does."""
    code = CauchyRSCode(CodeParams(k=4, m=2))
    rng = np.random.default_rng(7)
    size = 96 * 1024 + 8 * w  # not a multiple of any split below
    blocks = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(4)]
    want = code.encode(blocks)
    for split in (1024, 8192, 40960, DEFAULT_CHUNK_BYTES, 2 * size):
        got = [np.full(size, 0xEE, dtype=np.uint8) for _ in range(2)]
        for start in range(0, size, split):
            end = min(size, start + split)
            apply_rows(
                code.field,
                code.parity_matrix,
                [b[start:end] for b in blocks],
                [g[start:end] for g in got],
            )
        for a, b in zip(got, want):
            assert np.array_equal(a, b), f"split={split} diverged"


@pytest.mark.parametrize("compiler", [dumb_schedule, smart_schedule, paar_schedule])
def test_schedule_compilers_agree(compiler):
    """Every compiler's schedule, run by XorSchedule.apply on the
    reference bit-planes, computes the code's parity."""
    code = CauchyRSCode(CodeParams(k=6, m=3))
    sched = compiler(cached_parity_bitmatrix(code), 6, 3, 8)
    rng = np.random.default_rng(11)
    blocks = [rng.integers(0, 256, size=4096, dtype=np.uint8) for _ in range(6)]
    parity_strips = sched.apply(_reference_blocks_to_bitplanes(blocks))
    got = _reference_bitplanes_to_blocks(parity_strips, 3, 4096)
    for a, b in zip(got, code.encode(blocks)):
        assert np.array_equal(a, b)


def test_paar_schedule_reduces_xors_and_uses_temps():
    code = CauchyRSCode(CodeParams(k=12, m=4))
    bm = cached_parity_bitmatrix(code)
    dumb = dumb_schedule(bm, 12, 4, 8)
    paar = paar_schedule(bm, 12, 4, 8)
    assert paar.n_temps > 0
    assert paar.total_xors < dumb.total_xors
    # Temps are the strips past the data and parity ones, each produced
    # before any op reads it.
    first_temp = (12 + 4) * 8
    temps = sorted(op.dest for op in paar.ops if op.dest >= first_temp)
    assert temps == list(range(first_temp, first_temp + paar.n_temps))
    produced = set(range(12 * 8))
    for op in paar.ops:
        assert {op.base, *op.sources} - {None} <= produced
        produced.add(op.dest)


def test_xor_reduce_helpers():
    rng = np.random.default_rng(5)
    arrays = [rng.integers(0, 256, size=104, dtype=np.uint8) for _ in range(5)]
    want = arrays[0].copy()
    for a in arrays[1:]:
        want ^= a
    assert np.array_equal(xor_reduce_arrays(arrays), want)

    acc = arrays[0].copy()
    xor_reduce_into(acc, arrays[1:])
    assert np.array_equal(acc, want)

    # Non-word-multiple sizes fall back to the byte path but stay correct.
    odd = [a[:13].copy() for a in arrays]
    want_odd = odd[0].copy()
    for a in odd[1:]:
        want_odd ^= a
    assert np.array_equal(xor_reduce_arrays(odd), want_odd)
