"""Tests for the GF(2^8) log/antilog tables."""

import pytest

from repro.gf.tables import EXP, LOG, PRIMITIVE_POLYNOMIAL, W


def slow_mul(a: int, b: int) -> int:
    """Carry-less multiply, then reduce by the primitive polynomial."""
    product = 0
    for bit in range(W):
        if (b >> bit) & 1:
            product ^= a << bit
    for bit in range(2 * W - 2, W - 1, -1):
        if (product >> bit) & 1:
            product ^= PRIMITIVE_POLYNOMIAL << (bit - W)
    return product


@pytest.mark.parametrize("w", [8])
def test_exp_enumerates_all_nonzero_elements(w):
    order = (1 << w) - 1
    assert sorted(int(v) for v in EXP[:order]) == list(range(1, 1 << w))


@pytest.mark.parametrize("w", [8])
def test_log_inverts_exp(w):
    order = (1 << w) - 1
    for i in range(order):
        assert LOG[int(EXP[i])] == i


@pytest.mark.parametrize("w", [8])
def test_exp_table_doubled_for_modless_lookup(w):
    order = (1 << w) - 1
    assert (EXP[:order] == EXP[order : 2 * order]).all()


def test_generator_is_primitive_for_w8():
    # x = 2 must generate the full multiplicative group: its order is 255.
    assert int(EXP[0]) == 1
    seen = {int(EXP[i]) for i in range(255)}
    assert len(seen) == 255


def test_tables_match_manual_polynomial_multiplication():
    """exp[log a + log b] is the carry-less product reduced by 0x11D."""
    assert PRIMITIVE_POLYNOMIAL == 0x11D
    for a in range(1, 256):
        for b in range(1, 256, 7):
            assert int(EXP[int(LOG[a]) + int(LOG[b])]) == slow_mul(a, b), (a, b)


def test_tables_are_read_only():
    for table in (EXP, LOG):
        with pytest.raises(ValueError):
            table[1] = 0
