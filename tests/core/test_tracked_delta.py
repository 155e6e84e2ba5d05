"""Delta saves start from what changed: tensors count their own writes.

A delta save XORs only the tensors step 1's walk finds written since the
base (:meth:`SimTensor.writable_view` counts a write; a live writable view
keeps its tensor dirty).  Everything it stores must still equal what a
full compare (:func:`repro.core.incremental.packet_delta`) and a full
save produce, byte for byte.
"""

from __future__ import annotations

import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.core import save as save_module
from repro.core.incremental import packet_delta, tracked_delta
from repro.core.protocol import build_worker_checkpoint
from repro.ec.kernels import DEFAULT_CHUNK_BYTES
from repro.tensors.state_dict import tensor_items
from repro.tensors.tensor import SimTensor
from tests.core.test_incremental import (
    assert_same_records,
    make_engine,
    verify,
    version_records,
)


def tensors_of(job, worker):
    return [t for _, t in tensor_items(job.state_of(worker))]


def set_tensor(job, worker, index, tensor):
    path = list(tensor_items(job.state_of(worker)))[index][0]
    node = job.state_of(worker)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = tensor


def delta_then_full(job, delta_engine, full_engine, block_size=64 * 1024):
    """One delta save and one full save of the same state; the delta must
    be a real one and its version equal the full save's byte for byte."""
    report = delta_engine.save_incremental(block_size=block_size)
    full_engine.save()
    assert "dirty_fraction" in report.breakdown
    assert_same_records(
        version_records(delta_engine, report.version),
        version_records(full_engine, full_engine.version),
    )
    return report


# ---------------------------------------------------------------------------
# tracked_delta against the full compare
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("block_size", [1, 100, 4096, DEFAULT_CHUNK_BYTES])
def test_tracked_delta_summary_equals_the_full_compare(block_size):
    rng = np.random.default_rng(5)
    size = 3 * DEFAULT_CHUNK_BYTES + 1000
    old = rng.integers(0, 256, size, dtype=np.uint8)
    new = old.copy()
    pieces = [(10, 500), (510, 90), (DEFAULT_CHUNK_BYTES * 2 - 3, 7), (size - 40, 40)]
    for start, n in pieces:
        new[start + n // 2] ^= 0x5A
    new[515] = old[515]  # a write that leaves the byte as it was
    out = np.zeros(size, dtype=np.uint8)
    ranges, summary = tracked_delta(
        old, [(start, new[start : start + n]) for start, n in pieces], out, block_size
    )
    delta, expected = packet_delta(old, new, block_size)
    assert summary == expected
    assert np.array_equal(out, delta)
    assert ranges == [(10, 600), (DEFAULT_CHUNK_BYTES * 2 - 3, DEFAULT_CHUNK_BYTES * 2 + 4),
                      (size - 40, size)]


def test_tracked_delta_of_nothing_is_clean():
    old = np.arange(1000, dtype=np.uint8)
    out = np.zeros_like(old)
    ranges, summary = tracked_delta(old, [(3, old[3:3])], out, 64)
    assert ranges == [] and summary == packet_delta(old, old, 64)[1]


# ---------------------------------------------------------------------------
# Soundness: every way a tensor can change is seen
# ---------------------------------------------------------------------------
def test_a_view_taken_before_a_save_and_written_after_it_is_caught():
    job_a, delta_engine = make_engine(seed=47)
    job_b, full_engine = make_engine(seed=47)
    for job in (job_a, job_b):
        job.advance(dirty_tensor_fraction=0.1)
    delta_engine.save()
    full_engine.save()
    held = tensors_of(job_a, 5)[-1].writable_view()
    twin = tensors_of(job_b, 5)[-1]
    job_a.advance(dirty_tensor_fraction=0.1)
    job_b.advance(dirty_tensor_fraction=0.1)
    delta_then_full(job_a, delta_engine, full_engine)  # the view is alive: dirty
    held[-3:] ^= 0x3C  # written after that save ...
    twin.writable_view()[-3:] ^= 0x3C
    del held
    gc.collect()
    # ... and dropped: no live view, the count unchanged since the save.
    report = delta_then_full(job_a, delta_engine, full_engine)
    assert report.breakdown["dirty_fraction"] > 0
    reference = job_a.snapshot_states()
    job_a.fail_nodes({1, 2})
    assert delta_engine.restore({1, 2}).version == report.version
    verify(job_a, reference)


@pytest.mark.parametrize("how", ["swap_tensor", "reassign_data", "swap_two_tensors"])
def test_swapped_storage_with_the_same_layout_is_caught(how):
    job_a, delta_engine = make_engine(seed=49)
    job_b, full_engine = make_engine(seed=49)
    delta_engine.save()
    full_engine.save()
    for job in (job_a, job_b):
        tensors = tensors_of(job, 6)
        sizes = [t.nbytes for t in tensors]
        # Two tensors of one size, the size of the largest pair.
        one = max(
            (i for i, n in enumerate(sizes) if sizes.count(n) > 1), key=sizes.__getitem__
        )
        other = next(i for i, n in enumerate(sizes) if n == sizes[one] and i != one)
        fresh = tensors[one].data.copy()
        fresh.reshape(-1).view(np.uint8)[7] ^= 0x81
        if how == "swap_tensor":
            set_tensor(job, 6, one, SimTensor(fresh))
        elif how == "reassign_data":
            tensors[one].data = fresh
        else:  # the two trade places
            set_tensor(job, 6, one, tensors[other])
            set_tensor(job, 6, other, tensors[one])
    report = delta_then_full(job_a, delta_engine, full_engine)
    assert report.breakdown["dirty_fraction"] > 0


def test_a_shrunk_payload_patches_the_old_tail_to_padding():
    job_a, delta_engine = make_engine(seed=51)
    job_b, full_engine = make_engine(seed=51)
    delta_engine.save()
    full_engine.save()
    for job in (job_a, job_b):  # the last stage's packet is not the largest
        tensor = tensors_of(job, 7)[0]
        tensor.data = tensor.data.reshape(-1)[:-5].copy()
    delta_then_full(job_a, delta_engine, full_engine)


def test_two_engines_on_one_job_do_not_hide_writes_from_each_other():
    job, first = make_engine(seed=53)
    _, second = make_engine(seed=53)  # a second engine over ...
    second.job = job  # ... the same live state
    _, full_engine = make_engine(seed=53)
    full_engine.job = job
    for engine in (first, second, full_engine):
        engine.save()
    job.advance(dirty_tensor_fraction=0.1)
    first.save_incremental()  # the first engine's save sees the write ...
    report = delta_then_full(job, second, full_engine)  # ... and so does the second's
    assert report.breakdown["dirty_fraction"] > 0


@pytest.mark.parametrize(
    "plan", [("mid_p2p", 3), ("mid_metadata_broadcast", 2)], ids=lambda p: p[0]
)
def test_a_torn_delta_leaves_the_base_packets_and_the_scratch_alone(plan):
    job_a, delta_engine = make_engine(seed=55)
    job_b, full_engine = make_engine(seed=55)
    delta_engine.save()
    full_engine.save()
    base = {w: p.copy() for w, p in delta_engine._delta_base.packets.items()}
    for job in (job_a, job_b):
        job.advance(dirty_tensor_fraction=0.1)
    delta_engine.crash_injector = CrashInjector(CrashPlan(*plan))
    with pytest.raises(InjectedCrash):
        delta_engine.save_incremental()
    delta_engine.crash_injector = None
    assert delta_engine._delta_base.version == 1
    for w, packet in delta_engine._delta_base.packets.items():
        assert np.array_equal(packet, base[w]), w
    assert not delta_engine._delta_scratch.any()
    full_engine.version = delta_engine.version  # the torn version's number
    for job in (job_a, job_b):
        job.advance(dirty_tensor_fraction=0.1)
    delta_then_full(job_a, delta_engine, full_engine)
    assert not delta_engine._delta_scratch.any()


def test_clean_tensors_are_not_read(monkeypatch):
    """Only the written tensors reach the delta: 10 % of each worker's."""
    job, engine = make_engine(seed=57)
    engine.save()
    job.advance(dirty_tensor_fraction=0.1)
    seen = []
    real = save_module.tracked_delta

    def spy(base, changed, out, block_size):
        seen.append(len(changed))
        return real(base, changed, out, block_size)

    monkeypatch.setattr(save_module, "tracked_delta", spy)
    engine.save_incremental()
    counts = [max(1, round(0.1 * len(tensors_of(job, w)))) for w in range(job.world_size)]
    assert seen == counts


# ---------------------------------------------------------------------------
# The property: random writes, every save equal to a full compare; writes
# go through writable views (some held across a save) and through the
# counted in-place writer, interleaved
# ---------------------------------------------------------------------------
WRITE = st.tuples(
    st.sampled_from(
        ["xor", "same", "hold", "inplace", "swap", "reassign", "resize", "insert_empty"]
    ),
    st.integers(0, 7),  # worker
    st.integers(0, 10**6),  # tensor pick
    st.integers(0, 10**6),  # byte pick
    st.integers(0, 255),  # value; 0 makes an xor a zero-valued write
)


def apply_write(job, op, held):
    kind, worker, pick, byte, value = op
    tensors = tensors_of(job, worker)
    index = pick % len(tensors)
    tensor = tensors[index]
    if kind == "insert_empty":
        job.state_of(worker)["model"][f"empty.{pick}"] = SimTensor(
            np.zeros((0, 4), dtype=np.float32)
        )
        return
    if kind == "resize":  # a layout change: a tensor shrinks
        if tensor.nbytes > 8:
            tensor.data = tensor.data.reshape(-1)[: tensor.data.size // 2].copy()
        return
    if kind == "inplace":  # training's counted in-place write, any stride
        tensor.xor_every(1 + byte % max(1, tensor.nbytes), np.uint8(value))
        return
    if not tensor.nbytes:
        tensor.writable_view()  # a write of nothing
        return
    at = byte % tensor.nbytes
    if kind == "xor":
        tensor.writable_view()[at] ^= value
    elif kind == "same":
        view = tensor.writable_view()
        view[at] = view[at]
    elif kind == "hold":  # written only after the next save
        held.append((tensor.writable_view(), at, value | 1))
    else:
        fresh = tensor.data.copy()
        fresh.reshape(-1).view(np.uint8)[at] ^= value
        if kind == "swap":
            set_tensor(job, worker, index, SimTensor(fresh))
        else:
            tensor.data = fresh


def checked_delta_save(job, engine, full_engine, block_size):
    """A delta save whose every tracked delta is held to the full compare."""
    base = engine._delta_base
    old = {w: p.copy() for w, p in base.packets.items()} if base else None
    calls = []
    real = save_module.tracked_delta

    def spy(base_packet, changed, out, size):
        ranges, summary = real(base_packet, changed, out, size)
        calls.append((ranges, summary))
        return ranges, summary

    with mock.patch.object(save_module, "tracked_delta", spy):
        report = engine.save_incremental(block_size=block_size)
    full_engine.save()
    assert_same_records(
        version_records(engine, report.version),
        version_records(full_engine, full_engine.version),
    )
    if not calls:  # a full fallback: the packet size moved
        assert "dirty_fraction" not in report.breakdown
        return
    size = old[0].nbytes
    for w, (ranges, summary) in enumerate(calls):
        new = build_worker_checkpoint(w, job.state_of(w), size).packet.payload
        delta, expected = packet_delta(old[w], new, block_size)
        assert summary == expected, w
        covered = np.zeros(size, dtype=bool)
        for start, end in ranges:
            covered[start:end] = True
        assert not (delta.astype(bool) & ~covered).any(), w  # tracked ⊇ changed
        assert np.array_equal(engine._delta_base.packets[w], new), w
    assert report.breakdown["dirty_fraction"] == max(s.dirty_fraction for _, s in calls)
    assert not engine._delta_scratch.any()


# No explain phase: its line tracer holds gigabytes over these loops.
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(
    steps=st.lists(st.lists(WRITE, max_size=6), min_size=1, max_size=3),
    block_size=st.sampled_from([64, 4096, DEFAULT_CHUNK_BYTES]),
)
def test_random_writes_delta_equals_full_compare(steps, block_size):
    job, first = make_engine(scale=5e-5, seed=59)
    _, second = make_engine(scale=5e-5, seed=59)
    _, full_first = make_engine(scale=5e-5, seed=59)
    _, full_second = make_engine(scale=5e-5, seed=59)
    for engine in (second, full_first, full_second):
        engine.job = job  # four engines, one live state
    first.save()
    second.save()
    full_first.save()
    full_second.save()
    held: list = []
    for number, writes in enumerate(steps):
        for view, at, value in held:
            view[at] ^= value
        held = []
        for op in writes:
            apply_write(job, op, held)
        checked_delta_save(job, first, full_first, block_size)
        if number % 2:  # the second engine's base is two steps old
            checked_delta_save(job, second, full_second, DEFAULT_CHUNK_BYTES)
    for view, at, value in held:
        view[at] ^= value
    checked_delta_save(job, first, full_first, block_size)
    checked_delta_save(job, second, full_second, DEFAULT_CHUNK_BYTES)
