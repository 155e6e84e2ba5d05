"""Tests for XOR schedule compilation."""

import numpy as np
import pytest

from repro.errors import CodeConfigError
from repro.ec.base import CodeParams
from repro.ec.cauchy import (
    CauchyRSCode,
    _reference_bitplanes_to_blocks,
    _reference_blocks_to_bitplanes,
)
from repro.ec.schedule import dumb_schedule, smart_schedule


@pytest.fixture
def code():
    return CauchyRSCode(CodeParams(k=3, m=2))


def encode_via_schedule(code, schedule, data):
    strips = _reference_blocks_to_bitplanes(
        [np.ascontiguousarray(d, dtype=np.uint8) for d in data]
    )
    parity_strips = schedule.apply(strips)
    return _reference_bitplanes_to_blocks(parity_strips, code.params.m, data[0].nbytes)


@pytest.mark.parametrize("compiler", [dumb_schedule, smart_schedule])
def test_schedule_reproduces_field_encoding(code, compiler):
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 256, size=64, dtype=np.uint8) for _ in range(3)]
    schedule = compiler(code.parity_bitmatrix, 3, 2, 8)
    via_schedule = encode_via_schedule(code, schedule, data)
    via_field = code.encode(data)
    for a, b in zip(via_schedule, via_field):
        assert np.array_equal(a, b)


def test_smart_schedule_never_more_xors_than_dumb(code):
    bm = code.parity_bitmatrix
    dumb = dumb_schedule(bm, 3, 2, 8)
    smart = smart_schedule(bm, 3, 2, 8)
    assert smart.total_xors <= dumb.total_xors


def test_smart_schedule_strictly_helps_on_dense_matrices():
    """A matrix with two near-identical rows benefits from derivation reuse."""
    k, m, w = 2, 2, 1  # w=1 keeps rows human-sized
    bm = np.array(
        [
            [1, 1],
            [1, 0],
        ],
        dtype=np.uint8,
    )
    dumb = dumb_schedule(bm, k, m, w)
    smart = smart_schedule(bm, k, m, w)
    assert smart.total_xors <= dumb.total_xors
    # Both must still produce the same strips.
    strips = [np.array([3], dtype=np.uint8), np.array([5], dtype=np.uint8)]
    assert [s.tolist() for s in dumb.apply(strips)] == [
        s.tolist() for s in smart.apply(strips)
    ]


def test_schedule_counts_are_reported(code):
    schedule = dumb_schedule(code.parity_bitmatrix, 3, 2, 8)
    assert schedule.total_xors == sum(op.xor_count for op in schedule.ops)
    assert len(schedule.ops) == 2 * 8  # m * w rows


def test_schedule_shape_validation():
    with pytest.raises(CodeConfigError):
        dumb_schedule(np.zeros((3, 3), dtype=np.uint8), 3, 2, 8)


def test_apply_validates_strip_count(code):
    schedule = dumb_schedule(code.parity_bitmatrix, 3, 2, 8)
    with pytest.raises(CodeConfigError):
        schedule.apply([np.zeros(4, dtype=np.uint8)])


def test_zero_row_produces_zero_strip():
    bm = np.zeros((2, 2), dtype=np.uint8)
    bm[1, 0] = 1
    schedule = dumb_schedule(bm, 2, 2, 1)
    strips = [np.array([7], dtype=np.uint8), np.array([9], dtype=np.uint8)]
    parity = schedule.apply(strips)
    assert parity[0].tolist() == [0]
    assert parity[1].tolist() == [7]
