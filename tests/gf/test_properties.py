"""Property-based tests (hypothesis) for GF(2^8) field axioms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf.field import GF

element8 = st.integers(min_value=0, max_value=255)
nonzero8 = st.integers(min_value=1, max_value=255)


@given(a=element8, b=element8)
def test_multiplication_commutes(a, b):
    f = GF(8)
    assert f.mul(a, b) == f.mul(b, a)


@given(a=element8, b=element8, c=element8)
def test_multiplication_associates(a, b, c):
    f = GF(8)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@given(a=element8, b=element8, c=element8)
def test_distributivity_over_xor(a, b, c):
    f = GF(8)
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@given(a=nonzero8, b=nonzero8)
def test_division_inverts_multiplication(a, b):
    f = GF(8)
    assert f.div(f.mul(a, b), b) == a


@given(a=nonzero8)
def test_fermat_little_theorem(a):
    # a^(2^w - 1) == 1 for every non-zero element.
    f = GF(8)
    assert f.pow(a, 255) == 1


@given(
    c=element8,
    data=st.binary(min_size=1, max_size=256),
)
@settings(max_examples=50)
def test_region_multiply_distributes_elementwise(c, data):
    f = GF(8)
    buf = np.frombuffer(data, dtype=np.uint8)
    out = f.mul_region(c, buf)
    expected = np.array([f.mul(c, int(v)) for v in buf], dtype=np.uint8)
    assert np.array_equal(out, expected)


@given(
    c1=element8,
    c2=element8,
    data=st.binary(min_size=16, max_size=64),
)
@settings(max_examples=50)
def test_region_multiply_composes(c1, c2, data):
    f = GF(8)
    buf = np.frombuffer(data, dtype=np.uint8)
    assert np.array_equal(
        f.mul_region(c1, f.mul_region(c2, buf)),
        f.mul_region(f.mul(c1, c2), buf),
    )
