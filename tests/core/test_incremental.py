"""Tests for incremental (delta) checkpointing."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.incremental import apply_delta, packet_delta
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


# ---------------------------------------------------------------------------
# Delta primitives
# ---------------------------------------------------------------------------
def test_packet_delta_is_xor_and_counts_dirty_blocks():
    old = np.zeros(256, dtype=np.uint8)
    new = old.copy()
    new[0] = 1       # dirties block 0
    new[200] = 7     # dirties block 3
    delta, summary = packet_delta(old, new, block_size=64)
    assert np.array_equal(delta, old ^ new)
    assert summary.total_blocks == 4
    assert summary.dirty_blocks == 2
    assert summary.dirty_fraction == 0.5
    assert summary.dirty_bytes == 128


def test_packet_delta_identical_packets_are_clean():
    buf = np.arange(128, dtype=np.uint8)
    _, summary = packet_delta(buf, buf.copy(), block_size=32)
    assert summary.dirty_blocks == 0
    assert summary.dirty_fraction == 0.0


def test_packet_delta_validation():
    with pytest.raises(CheckpointError):
        packet_delta(np.zeros(4, np.uint8), np.zeros(8, np.uint8))
    with pytest.raises(CheckpointError):
        packet_delta(np.zeros(4, np.uint8), np.zeros(4, np.uint8), block_size=0)


def test_apply_delta_round_trip():
    rng = np.random.default_rng(0)
    old = rng.integers(0, 256, 128, dtype=np.uint8)
    new = rng.integers(0, 256, 128, dtype=np.uint8)
    delta, _ = packet_delta(old, new)
    assert np.array_equal(apply_delta(old, delta), new)
    with pytest.raises(CheckpointError):
        apply_delta(old, np.zeros(4, np.uint8))


def test_apply_delta_into_the_delta_buffer():
    """``out=delta``: an encoded parity delta becomes the parity in place."""
    rng = np.random.default_rng(4)
    base = rng.integers(0, 256, 100, dtype=np.uint8)
    delta = rng.integers(0, 256, 100, dtype=np.uint8)
    expected = base ^ delta
    kept = base.copy()
    assert apply_delta(base, delta, out=delta) is delta
    assert np.array_equal(delta, expected)
    assert np.array_equal(base, kept)  # the old version's chunk is untouched


def _loop_reference_summary(delta, block_size):
    """The pre-vectorization per-block loop, kept as the test oracle."""
    total_blocks = -(-delta.nbytes // block_size) if delta.nbytes else 0
    dirty_blocks = 0
    dirty_bytes = 0
    for b in range(total_blocks):
        block = delta[b * block_size : (b + 1) * block_size]
        if block.any():
            dirty_blocks += 1
            dirty_bytes += block.nbytes
    return total_blocks, dirty_blocks, dirty_bytes


@pytest.mark.parametrize("size", [1, 63, 64, 65, 128, 3 * 64 + 7, 1000])
@pytest.mark.parametrize("block_size", [16, 64, 100])
def test_vectorized_dirty_detection_matches_loop(size, block_size):
    """The reshape/.any(axis=1) path must agree with the per-block loop on
    every size, including packets that are not a block-size multiple."""
    rng = np.random.default_rng(size * 1000 + block_size)
    old = rng.integers(0, 256, size, dtype=np.uint8)
    new = old.copy()
    for index in rng.choice(size, size=min(size, 5), replace=False):
        new[index] ^= int(rng.integers(1, 256))
    delta, summary = packet_delta(old, new, block_size=block_size)
    total, dirty, dirty_bytes = _loop_reference_summary(old ^ new, block_size)
    assert summary.total_blocks == total
    assert summary.dirty_blocks == dirty
    assert summary.dirty_bytes == dirty_bytes
    assert np.array_equal(delta, old ^ new)


def test_aligned_packets_skip_the_staging_copy(monkeypatch):
    """A block-aligned delta must take the zero-copy reshape path: if it
    ever allocates the zero-padded staging buffer the ragged path uses,
    this test fails loudly."""
    rng = np.random.default_rng(1)
    old = rng.integers(0, 256, 8 * 64, dtype=np.uint8)
    new = old.copy()
    new[5] ^= 0xFF    # dirties block 0
    new[300] ^= 0x01  # dirties block 4
    expected = old ^ new

    def no_staging(*args, **kwargs):
        raise AssertionError("aligned delta must not allocate a staging copy")

    monkeypatch.setattr(np, "zeros", no_staging)
    delta, summary = packet_delta(old, new, block_size=64)
    assert np.array_equal(delta, expected)
    assert summary.total_blocks == 8
    assert summary.dirty_blocks == 2
    assert summary.dirty_bytes == 128


def test_dirty_bytes_counts_short_tail_block():
    # 100 bytes, 64-byte blocks: a dirty final block holds only 36 bytes.
    old = np.zeros(100, dtype=np.uint8)
    new = old.copy()
    new[99] = 1
    _, summary = packet_delta(old, new, block_size=64)
    assert summary.total_blocks == 2
    assert summary.dirty_blocks == 1
    assert summary.dirty_bytes == 36


def test_clean_tail_block_costs_nothing():
    old = np.zeros(100, dtype=np.uint8)
    new = old.copy()
    new[0] = 1  # only the full first block is dirty
    _, summary = packet_delta(old, new, block_size=64)
    assert summary.dirty_bytes == 64


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------
def make_engine(scale=1e-3, seed=41):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=scale,
        seed=seed,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2))


def verify(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_incremental_without_prior_save_falls_back_to_full():
    job, engine = make_engine()
    report = engine.save_incremental()
    assert report.version == 1
    assert "dirty_fraction" not in report.breakdown  # full-save path


def test_incremental_chunks_match_full_save_chunks():
    """The decisive linearity property: chunks produced by the delta path
    are byte-identical to chunks a full save of the same state produces."""
    job_a, full_engine = make_engine(seed=43)
    job_b, delta_engine = make_engine(seed=43)  # identical twin job

    full_engine.save()
    delta_engine.save()
    job_a.advance(2)
    job_b.advance(2)
    full_engine.save()
    delta_engine.save_incremental()

    groups = len(full_engine.placement.data_group[0])
    for j, node in enumerate(full_engine.placement.data_nodes):
        for r in range(groups):
            a = full_engine.host.get(node, ("chunk", 2, "data", j, r))
            b = delta_engine.host.get(node, ("chunk", 2, "data", j, r))
            assert np.array_equal(a, b), ("data", j, r)
    for i, node in enumerate(full_engine.placement.parity_nodes):
        for r in range(groups):
            a = full_engine.host.get(node, ("chunk", 2, "parity", i, r))
            b = delta_engine.host.get(node, ("chunk", 2, "parity", i, r))
            assert np.array_equal(a, b), ("parity", i, r)


def test_incremental_then_recover_from_any_two_failures():
    import itertools

    job, engine = make_engine()
    engine.save()
    job.advance()
    engine.save_incremental()
    reference = job.snapshot_states()
    for failed in itertools.combinations(range(4), 2):
        job.advance()
        job.fail_nodes(set(failed))
        engine.restore(set(failed))
        verify(job, reference)
        # restore invalidates the delta base; re-arm with a full save.
        engine.save()
        reference = job.snapshot_states()


def test_chained_incremental_saves():
    job, engine = make_engine()
    engine.save()
    for _ in range(3):
        job.advance()
        engine.save_incremental()
    reference = job.snapshot_states()
    job.fail_nodes({0, 1})
    engine.restore({0, 1})
    verify(job, reference)


def test_incremental_moves_fewer_bytes_than_full():
    """job.advance perturbs a strided subset of bytes, so most blocks with
    fine granularity stay clean — the delta save must ship less."""
    job_a, full_engine = make_engine(seed=47, scale=2e-3)
    job_b, delta_engine = make_engine(seed=47, scale=2e-3)
    full_engine.save()
    delta_engine.save()
    job_a.advance(dirty_tensor_fraction=0.25)
    job_b.advance(dirty_tensor_fraction=0.25)
    full_report = full_engine.save()
    delta_report = delta_engine.save_incremental(block_size=256)
    assert delta_report.breakdown["dirty_fraction"] < 1.0
    assert delta_report.bytes_inter_node < full_report.bytes_inter_node
    assert delta_report.checkpoint_time < full_report.checkpoint_time


def test_incremental_after_restore_falls_back_to_full():
    job, engine = make_engine()
    engine.save()
    job.fail_nodes({1})
    engine.restore({1})
    job.advance()
    report = engine.save_incremental()
    assert "dirty_fraction" not in report.breakdown  # full-save fallback
    reference = job.snapshot_states()
    job.fail_nodes({2, 3})
    engine.restore({2, 3})
    verify(job, reference)


# ---------------------------------------------------------------------------
# Replay determinism properties (the gradient-log replay contract:
# base XOR d1 XOR ... XOR dn is batching-invariant and rerun-stable).
# ---------------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st


def _delta_chain(seed: int, size: int, steps: int, block_size: int):
    """A seeded packet trajectory and its per-step XOR deltas."""
    rng = np.random.default_rng(seed)
    packets = [
        rng.integers(0, 256, size, dtype=np.uint8) for _ in range(steps + 1)
    ]
    deltas = [
        packet_delta(a, b, block_size)[0]
        for a, b in zip(packets, packets[1:])
    ]
    return packets, deltas


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(1, 512),
    steps=st.integers(1, 6),
    block_size=st.integers(1, 128),
    data=st.data(),
)
def test_replay_is_associative_with_batching(seed, size, steps, block_size, data):
    """Replaying deltas one at a time, or XOR-folded into arbitrary
    contiguous batches, lands on the same bytes — the property that lets
    a recovery engine coalesce gradient-log entries before applying."""
    packets, deltas = _delta_chain(seed, size, steps, block_size)
    one_by_one = packets[0]
    for delta in deltas:
        one_by_one = apply_delta(one_by_one, delta)
    assert np.array_equal(one_by_one, packets[-1])

    cuts = sorted(
        data.draw(
            st.sets(st.integers(1, max(1, len(deltas) - 1)), max_size=steps)
        )
    )
    bounds = [0, *[c for c in cuts if c < len(deltas)], len(deltas)]
    batched = packets[0]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        combined = deltas[lo].copy()
        for delta in deltas[lo + 1 : hi]:
            combined = combined ^ delta
        batched = apply_delta(batched, combined)
    assert np.array_equal(batched, one_by_one)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    size=st.integers(1, 1024),
    steps=st.integers(1, 8),
    block_size=st.sampled_from([1, 7, 64, 4096]),
)
def test_same_seed_replay_is_byte_identical(seed, size, steps, block_size):
    """Two replays of the same seeded trajectory produce byte-identical
    deltas, summaries, and final payloads — nothing in the delta
    machinery depends on ambient state."""

    def run():
        packets, deltas = _delta_chain(seed, size, steps, block_size)
        summaries = [
            packet_delta(a, b, block_size)[1]
            for a, b in zip(packets, packets[1:])
        ]
        payload = packets[0]
        for delta in deltas:
            payload = apply_delta(payload, delta)
        return (
            payload.tobytes(),
            [d.tobytes() for d in deltas],
            summaries,
        )

    assert run() == run()
