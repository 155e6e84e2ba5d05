"""Property-based tests (hypothesis) for the erasure-coding layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.ec.vandermonde import VandermondeRSCode
from tests.ec.test_fast_equivalence import payload_blocks

code_params = st.tuples(
    st.integers(min_value=1, max_value=6),  # k
    st.integers(min_value=1, max_value=4),  # m
)


@given(params=code_params, payload=st.binary(min_size=0, max_size=2048), data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_k_survivors_recover_payload(params, payload, data):
    """For random (k, m, payload, survivor set): decode is exact."""
    k, m = params
    code = CauchyRSCode(CodeParams(k=k, m=m))
    blocks = payload_blocks(payload, k)
    chunks = blocks + code.encode(blocks)
    n = k + m
    survivors = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    decoded = code.decode_fast({i: chunks[i] for i in survivors})
    assert np.concatenate(decoded).tobytes()[: len(payload)] == payload


@given(params=code_params, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_cauchy_and_vandermonde_encode_decode_agree_on_data(params, seed):
    """Different MDS constructions must both recover the same data."""
    k, m = params
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 256, size=48, dtype=np.uint8) for _ in range(k)]
    for cls in (CauchyRSCode, VandermondeRSCode):
        code = cls(CodeParams(k=k, m=m))
        chunks = blocks + code.encode(blocks)
        # Lose the first min(m, k) data chunks — worst case for decoding.
        lost = set(range(min(m, k)))
        available = {i: chunks[i] for i in range(k + m) if i not in lost}
        recovered = code.decode(available)
        for original, rec in zip(blocks, recovered):
            assert np.array_equal(original, rec)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=64).map(lambda v: v * 8),
)
@settings(max_examples=30, deadline=None)
def test_bitmatrix_path_equals_field_path(seed, size):
    """XOR-only Cauchy encoding is byte-identical to field arithmetic, and
    so is the fused kernel."""
    rng = np.random.default_rng(seed)
    code = CauchyRSCode(CodeParams(k=2, m=2))
    blocks = [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(2)]
    field = code.encode(blocks)
    for path in (code.encode_bitmatrix_reference, code.encode_fast):
        for a, b in zip(field, path(blocks)):
            assert np.array_equal(a, b)


@given(payload=st.binary(min_size=0, max_size=512))
@settings(max_examples=40, deadline=None)
def test_parity_linearity(payload):
    """Parity of (A xor B) == parity(A) xor parity(B): codes are linear."""
    code = CauchyRSCode(CodeParams(k=2, m=2))
    blocks = payload_blocks(payload, 2)
    zero_blocks = payload_blocks(bytes(len(payload)), 2)
    a = blocks + code.encode(blocks)
    zeros = zero_blocks + code.encode(zero_blocks)
    assert a[0].nbytes == zeros[0].nbytes
    # XOR of the encodings equals the encoding of the XOR (payload ^ 0 = payload).
    for i in range(4):
        assert np.array_equal(a[i] ^ zeros[i], a[i])
