"""Property-based end-to-end protocol tests (hypothesis).

Random state-dict structures, code shapes, and survivor sets: the
serialization-free protocol + Cauchy RS must always restore every worker's
state dict bit-exactly from any k surviving chunks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    build_worker_checkpoint,
    packet_size_for,
    restore_state_dict,
)
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.models.factory import build_worker_state_dict
from repro.tensors.state_dict import state_dicts_equal, total_tensor_bytes

tensor_shapes = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=5,
)


@st.composite
def protocol_cases(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=3))
    workers = []
    for w in range(k):
        shapes = draw(tensor_shapes)
        named = [(f"w{w}.layer{i}.weight", shape) for i, shape in enumerate(shapes)]
        seed = draw(st.integers(min_value=0, max_value=2**16))
        workers.append(build_worker_state_dict(named, iteration=w, seed=seed))
    n = k + m
    survivors = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k, max_size=k, unique=True,
        )
    )
    return k, m, workers, survivors


@given(case=protocol_cases())
@settings(max_examples=40, deadline=None)
def test_random_state_dicts_survive_random_erasures(case):
    k, m, states, survivors = case
    code = CauchyRSCode(CodeParams(k=k, m=m))
    packet_size = packet_size_for(
        [total_tensor_bytes(sd) for sd in states], alignment=64
    )
    checkpoints = [
        build_worker_checkpoint(w, states[w], packet_size) for w in range(k)
    ]
    packets = [wc.packet.payload for wc in checkpoints]
    chunks = packets + code.encode(packets)
    available = {cid: chunks[cid] for cid in survivors}
    recovered = code.decode(available)
    for w in range(k):
        restored = restore_state_dict(
            checkpoints[w].metadata_blob,
            recovered[w][: checkpoints[w].packet.original_length],
        )
        assert state_dicts_equal(states[w], restored)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    dtype=st.sampled_from(["float16", "float32", "uint32"]),
)
@settings(max_examples=25, deadline=None)
def test_mixed_dtype_tensors_round_trip(seed, dtype):
    state = build_worker_state_dict(
        [("w", (16, 4)), ("b", (4,))], seed=seed, param_dtype=dtype
    )
    wc = build_worker_checkpoint(0, state, packet_size_for([1 << 16]))
    restored = restore_state_dict(
        wc.metadata_blob, wc.packet.payload[: wc.packet.original_length]
    )
    assert state_dicts_equal(state, restored)
