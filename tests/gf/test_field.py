"""Tests for scalar and region arithmetic in GF(2^8)."""

import numpy as np
import pytest

from repro.ec.base import CodeParams
from repro.errors import FieldError
from repro.gf.field import GF


def test_instances_are_cached_per_word_size():
    assert GF(8) is GF(8)


def test_invalid_word_size():
    with pytest.raises(FieldError):
        GF(5)


def test_gf256_is_the_only_field():
    """GF(2^8) is the one field: no other word size constructs, and a code
    cannot ask for one."""
    for w in (1, 2, 4, 16):
        with pytest.raises(FieldError):
            GF(w)
    with pytest.raises(TypeError):
        CodeParams(k=2, m=2, w=16)
    assert CodeParams(k=2, m=2).w == 8


@pytest.mark.parametrize("w", [8])
def test_multiplicative_identity_and_zero(w):
    f = GF(w)
    for a in [0, 1, 2, f.size - 1]:
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


def test_known_gf256_products():
    f = GF(8)
    # With polynomial 0x11D: 2 * 128 = 256 mod poly = 0x11D ^ 0x100 = 0x1D.
    assert f.mul(2, 128) == 0x1D
    assert f.mul(3, 7) == 9  # (x+1)(x^2+x+1) = x^3 + 1
    assert f.mul(0x80, 0x80) == 0x13  # x^14 = x^6 * (x^4 + x^3 + x^2 + 1)
    assert f.mul(0xFF, 0xFF) == 0xE2
    assert f.inv(2) == 0x8E  # 2 * 0x8E = 0x11C = 1 + 0x11D


@pytest.mark.parametrize("w", [8])
def test_inverse_round_trip_all_elements(w):
    f = GF(w)
    for a in range(1, f.size):
        assert f.mul(a, f.inv(a)) == 1


def test_div_is_mul_by_inverse():
    f = GF(8)
    for a, b in [(5, 3), (200, 77), (1, 255), (123, 1)]:
        assert f.div(a, b) == f.mul(a, f.inv(b))


def test_div_by_zero_raises():
    with pytest.raises(FieldError):
        GF(8).div(5, 0)


def test_inv_of_zero_raises():
    with pytest.raises(FieldError):
        GF(8).inv(0)


def test_pow_matches_repeated_multiplication():
    f = GF(8)
    for base in [2, 3, 29]:
        acc = 1
        for e in range(10):
            assert f.pow(base, e) == acc
            acc = f.mul(acc, base)


def test_pow_negative_exponent():
    f = GF(8)
    assert f.mul(f.pow(7, -1), 7) == 1
    assert f.pow(7, -2) == f.inv(f.mul(7, 7))


def test_pow_zero_base():
    f = GF(8)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 3) == 0
    with pytest.raises(FieldError):
        f.pow(0, -1)


def test_out_of_range_values_rejected():
    with pytest.raises(FieldError):
        GF(8).mul(256, 1)
    with pytest.raises(FieldError):
        GF(8).mul(-1, 1)


def test_mul_array_matches_scalar():
    f = GF(8)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=100, dtype=np.uint32)
    b = rng.integers(0, 256, size=100, dtype=np.uint32)
    out = f.mul_array(a, b)
    for x, y, z in zip(a, b, out):
        assert f.mul(int(x), int(y)) == int(z)


@pytest.mark.parametrize("w", [8])
def test_mul_region_matches_scalar(w):
    f = GF(w)
    rng = np.random.default_rng(w)
    buf = rng.integers(0, f.size, size=64, dtype=np.uint8)
    for c in [0, 1, 2, f.size - 1, f.size // 2 + 1]:
        out = f.mul_region(c, buf)
        for x, y in zip(buf, out):
            assert f.mul(c, int(x)) == int(y), (c, int(x))


def test_mul_region_zero_and_one_fast_paths():
    f = GF(8)
    buf = np.arange(32, dtype=np.uint8)
    assert not f.mul_region(0, buf).any()
    one = f.mul_region(1, buf)
    assert np.array_equal(one, buf)
    assert one is not buf  # must be a copy


def test_mul_region_xor_into_accumulates():
    f = GF(8)
    buf = np.arange(16, dtype=np.uint8)
    acc = np.zeros(16, dtype=np.uint8)
    f.mul_region_xor_into(3, buf, acc)
    f.mul_region_xor_into(3, buf, acc)
    assert not acc.any()  # x ^ x == 0 in GF(2^w)


# ---------------------------------------------------------------------------
# Region kernels: pair-table gather, 256-entry gather fallback
# ---------------------------------------------------------------------------
REGION_SIZES = [0, 1, 2, 63, 64, 65, 4097]


def _region_input(rng, size, strided):
    """``size`` random bytes, optionally as a stride-2 view."""
    base = rng.integers(0, 256, size=2 * size if strided else size, dtype=np.uint8)
    return base[::2] if strided else base


def _region_reference(f, c, buf):
    """``c * buf`` through ``mul_array`` (log/antilog, not the region tables)."""
    values = np.asarray(buf, dtype=np.uint32).ravel()
    product = f.mul_array(np.full(values.shape, c, dtype=np.uint32), values)
    return product.astype(np.uint8)


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("w", [8])
def test_region_ops_match_scalar_for_every_constant_and_size(w, strided):
    f = GF(w)
    rng = np.random.default_rng(w)
    for size in REGION_SIZES:
        buf = _region_input(rng, size, strided)
        before = buf.copy()
        probe = [int(x) for x in buf[:8]]
        for c in range(f.size):
            expected = _region_reference(f, c, buf)
            # Scalar ``mul`` pins the vectorised reference on a prefix.
            assert [f.mul(c, x) for x in probe] == list(expected[: len(probe)])
            assert np.array_equal(f.mul_region(c, buf), expected), (c, size)
            out = np.full(size, 0xAA, dtype=np.uint8)
            f.mul_region_into(c, buf, out)
            assert np.array_equal(out, expected), (c, size)
            acc = np.full(size, 0x5C, dtype=np.uint8)
            f.mul_region_xor_into(c, buf, acc)
            assert np.array_equal(acc, expected ^ 0x5C), (c, size)
            f.mul_region_xor_into(c, buf, acc)
            assert np.array_equal(acc, np.full(size, 0x5C, np.uint8)), (c, size)
        assert np.array_equal(buf, before)  # inputs are never written


def test_mul_region_into_unaligned_and_multidimensional():
    f = GF(8)
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, size=130, dtype=np.uint8)
    odd = base[1:129]  # contiguous, even length, odd address
    out = np.empty(129, dtype=np.uint8)[1:]
    f.mul_region_into(77, odd, out)
    assert np.array_equal(out, _region_reference(f, 77, odd))
    grid = base[:128].reshape(8, 16)
    assert np.array_equal(
        f.mul_region(77, grid), _region_reference(f, 77, grid.ravel()).reshape(8, 16)
    )


def test_mul_region_into_rejects_overlap_and_bad_out():
    f = GF(8)
    base = np.arange(128, dtype=np.uint8)
    with pytest.raises(FieldError):
        f.mul_region_into(3, base, base)
    with pytest.raises(FieldError):
        f.mul_region_into(3, base[:64], base[32:96])
    with pytest.raises(FieldError):  # even the copy fast path does not alias
        f.mul_region_into(1, base[:64], base[:64])
    buf = np.arange(64, dtype=np.uint8)
    with pytest.raises(FieldError):
        f.mul_region_into(3, buf, np.empty(63, dtype=np.uint8))
    with pytest.raises(FieldError):
        f.mul_region_into(3, buf, np.empty(128, dtype=np.uint8)[::2])
    with pytest.raises(FieldError):
        f.mul_region_into(3, buf, np.empty(64, dtype=np.uint16))
    with pytest.raises(FieldError):
        f.mul_region_into(256, buf, np.empty(64, dtype=np.uint8))
    # out ^= c * out is well defined: the product lands in scratch first.
    acc = buf.copy()
    f.mul_region_xor_into(3, acc, acc)
    assert np.array_equal(acc, f.mul_region(3, buf) ^ buf)


def test_pair_table_cache_is_bounded():
    f = GF(8)
    buf = np.arange(64, dtype=np.uint8)
    for c in range(2, 256):
        f.mul_region(c, buf)
    info = f._pair_table.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 64
    assert not f._pair_table(2).flags.writeable  # shared, so read-only
