"""Tests for incremental (delta) checkpointing."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core import incremental
from repro.core.incremental import apply_delta, packet_delta
from repro.core.integrity import corrupt_buffer, verify_chunk
from repro.ec.kernels import DEFAULT_CHUNK_BYTES
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.timeline import Interval, merge_intervals
from repro.tensors.state_dict import state_dicts_equal
from tests.core.test_integrity import chunk_whole


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
# A refused argument, a crashed delta
# ---------------------------------------------------------------------------
def test_rejected_block_size_leaves_the_engine_untouched():
    """block_size is validated before anything moves: no version burnt."""
    job, engine = make_engine()
    for expected_version in (0, 1):  # with and without a delta base
        before = (
            engine.version,
            dict(engine._layouts),
            engine.memory_versions(),
            engine.delta_base_version(),
        )
        with pytest.raises(CheckpointError, match="block_size"):
            engine.save_incremental(block_size=0)
        assert before == (
            engine.version,
            engine._layouts,
            engine.memory_versions(),
            engine.delta_base_version(),
        )
        assert engine.version == expected_version
        job.advance()
        assert engine.save_incremental().version == expected_version + 1


@pytest.mark.parametrize(
    "plan",
    [("mid_p2p", 0), ("mid_p2p", 5), ("mid_p2p", 15), ("pre_metadata_broadcast", 0)],
    ids=lambda plan: f"{plan[0]}+{plan[1]}",
)
def test_crashed_delta_save_leaves_the_base_and_the_next_delta_whole(plan):
    """The delta path fires mid_p2p before every patched chunk it stores: a
    delta torn there (or just before its commit record) is never restored,
    the base stays restorable bit-exact and stays the delta base."""
    from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash

    def crashed_delta():
        job, engine = make_engine()
        engine.save()
        reference = job.snapshot_states()
        job.advance(dirty_tensor_fraction=0.1)
        engine.crash_injector = CrashInjector(CrashPlan(*plan))
        with pytest.raises(InjectedCrash) as crash:
            engine.save_incremental()
        engine.crash_injector = None
        assert crash.value.context["version"] == 2
        if plan[0] == "mid_p2p":
            assert set(crash.value.context) == {"version", "group", "kind", "chunk"}
        assert engine.delta_base_version() == 1
        assert engine.memory_versions() == [1]
        return job, engine, reference

    job, engine, reference = crashed_delta()
    job.fail_nodes({0, 3})
    assert engine.restore({0, 3}).version == 1  # never the torn v2
    verify(job, reference)

    job, engine, _ = crashed_delta()
    job.advance(dirty_tensor_fraction=0.1)
    report = engine.save_incremental()
    assert report.version == 3 and "dirty_fraction" in report.breakdown
    reference = job.snapshot_states()
    job.fail_nodes({1, 2})
    assert engine.restore({1, 2}).version == 3
    verify(job, reference)


# ---------------------------------------------------------------------------
# Dirty runs: the work granularity
# ---------------------------------------------------------------------------
def test_dirty_runs_at_the_kernel_chunk_size_with_a_ragged_tail():
    size = 3 * DEFAULT_CHUNK_BYTES + 100
    old = np.zeros(size, dtype=np.uint8)
    new = old.copy()
    new[DEFAULT_CHUNK_BYTES - 1] = 1  # last byte of chunk 0
    new[DEFAULT_CHUNK_BYTES] = 1  # first byte of chunk 1: one run with chunk 0
    new[size - 1] = 1  # the 100-byte tail chunk
    for block_size in (100, 4096, DEFAULT_CHUNK_BYTES, 10 * DEFAULT_CHUNK_BYTES):
        _, summary = packet_delta(old, new, block_size)
        assert summary.dirty_runs == (
            (0, 2 * DEFAULT_CHUNK_BYTES),
            (3 * DEFAULT_CHUNK_BYTES, size),
        )
    assert packet_delta(old, old.copy())[1].dirty_runs == ()
    assert packet_delta(old[:0], old[:0])[1].dirty_runs == ()


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 640, 3 * 64 + 7, 1000])
@pytest.mark.parametrize("block_size", [8, 16, 64, 100, 4096])
def test_dirty_runs_match_a_per_chunk_loop(monkeypatch, size, block_size):
    """Against the obvious loop, at a 64-byte work chunk so that small
    buffers have many: the runs are the maximal stretches of dirty chunks,
    clipped to the buffer, whatever the accounting block size."""
    monkeypatch.setattr(incremental, "DEFAULT_CHUNK_BYTES", 64)
    rng = np.random.default_rng(size * 7919 + block_size)
    old = rng.integers(0, 256, size, dtype=np.uint8)
    new = old.copy()
    for index in rng.choice(size, size=min(size, 4), replace=False):
        new[index : index + int(rng.integers(1, 80))] ^= 0x81
    expected = []
    for start in range(0, size, 64):
        if (old[start : start + 64] != new[start : start + 64]).any():
            if expected and expected[-1][1] == start:
                expected[-1][1] = min(start + 64, size)
            else:
                expected.append([start, min(start + 64, size)])
    _, summary = packet_delta(old, new, block_size)
    assert summary.dirty_runs == tuple(map(tuple, expected))


# ---------------------------------------------------------------------------
# Twin engines: a delta version is a full save of the same state, byte for byte
# ---------------------------------------------------------------------------
def version_records(engine, version):
    """Every chunk packet, digest and metadata record of one version."""
    return {
        (node, key): engine.host.get(node, key)
        for node in range(engine.host.num_nodes)
        for key in engine.host.keys(node)
        if key[1] == version
    }


def assert_same_records(actual, expected):
    assert actual.keys() == expected.keys()
    for where, want in expected.items():
        if isinstance(want, np.ndarray):
            assert np.array_equal(actual[where], want), where
        else:
            assert actual[where] == want, where  # digests (ints), metadata


def bump_counters_only(job):
    """An iteration that touches no tensor byte: only the metadata moves."""
    job.iteration += 1
    for state in job.state_dicts.values():
        state["iteration"] = job.iteration
        state["optimizer"]["step"] = job.iteration


ADVANCES = {
    "counters": bump_counters_only,
    "one_tensor": lambda job: job.advance(dirty_tensor_fraction=1e-9),
    "10%": lambda job: job.advance(dirty_tensor_fraction=0.1),
    "50%": lambda job: job.advance(dirty_tensor_fraction=0.5),
    "100%": lambda job: job.advance(),
}


@pytest.mark.parametrize("block_size", [100, 256, 4096, 64 * 1024])
@pytest.mark.parametrize("dirty", list(ADVANCES))
def test_delta_chain_is_byte_identical_to_full_saves(block_size, dirty):
    """Chunks *and digests* of four chained delta versions equal a full
    save's of the same state, whatever the accounting granularity."""
    job_a, full_engine = make_engine(seed=43)
    job_b, delta_engine = make_engine(seed=43)  # identical twin job
    full_engine.save()
    delta_engine.save()
    # The last 64 KiB work chunk of every packet is ragged.
    assert delta_engine._delta_base.packets[0].nbytes % DEFAULT_CHUNK_BYTES
    for version in range(2, 6):
        ADVANCES[dirty](job_a)
        ADVANCES[dirty](job_b)
        full_engine.save()
        report = delta_engine.save_incremental(block_size=block_size)
        assert "dirty_fraction" in report.breakdown  # a real delta
        assert (report.breakdown["dirty_fraction"] == 0.0) == (dirty == "counters")
        assert_same_records(
            version_records(delta_engine, version), version_records(full_engine, version)
        )
    reference = job_b.snapshot_states()
    job_b.fail_nodes({0, 2})
    assert delta_engine.restore({0, 2}).version == 5
    verify(job_b, reference)


def test_delta_at_the_smallest_packet_size():
    """The scale floor's packets: a few work chunks, another ragged tail."""
    job_a, full_engine = make_engine(seed=45, scale=5e-5)
    job_b, delta_engine = make_engine(seed=45, scale=5e-5)
    full_engine.save()
    delta_engine.save()
    packet = delta_engine._delta_base.packets[0].nbytes
    assert packet < 5 * DEFAULT_CHUNK_BYTES and packet % DEFAULT_CHUNK_BYTES
    for job in (job_a, job_b):
        job.advance(dirty_tensor_fraction=0.1)
    full_engine.save()
    assert "dirty_fraction" in delta_engine.save_incremental().breakdown
    assert_same_records(version_records(delta_engine, 2), version_records(full_engine, 2))


# ---------------------------------------------------------------------------
# Work proportionality: bytes encoded and digested follow the dirty ranges
# ---------------------------------------------------------------------------
def touched(size, live):
    """The block-rounded live bytes a per-byte pass over a ``size``-byte
    packet may touch (spelled out here, not imported: the oracle)."""
    rounded = -(-live // DEFAULT_CHUNK_BYTES) * DEFAULT_CHUNK_BYTES
    return rounded if size - rounded >= DEFAULT_CHUNK_BYTES else size


class ByteCounters:
    """Count the bytes ``encode_group_into`` is asked to read — a packet's
    block-rounded live bytes when it is told a length — and the bytes that
    reach ``zlib.crc32``."""

    def __init__(self, monkeypatch):
        import zlib

        from repro.core import save

        self.encoded = self.digested = 0
        encode, crc32 = save.encode_group_into, zlib.crc32

        def counting_encode(code, packets, out, rows=None, lengths=None):
            sizes = [p.nbytes for p in packets]
            self.encoded += sum(map(touched, sizes, sizes if lengths is None else lengths))
            return encode(code, packets, out, rows, lengths)

        def counting_crc32(data, *args):
            self.digested += memoryview(data).nbytes
            return crc32(data, *args)

        monkeypatch.setattr(save, "encode_group_into", counting_encode)
        monkeypatch.setattr(zlib, "crc32", counting_crc32)

    def reset(self):
        self.encoded = self.digested = 0


@pytest.mark.parametrize("dirty", ["counters", "one_tensor", "10%", "100%"])
def test_delta_save_touches_exactly_the_union_dirty_ranges(monkeypatch, dirty):
    job, engine = make_engine(scale=2e-3)
    plan, groups = engine.placement, engine.reduction_plan.groups
    counters = ByteCounters(monkeypatch)
    engine.save()
    full = (counters.encoded, counters.digested)
    packet = engine._delta_base.packets[0].nbytes
    # A full save encodes and digests live bytes, not ``world x packet``:
    # a data packet's own, a parity packet's group's longest — and CRCs
    # no parity 0, whose digest is the XOR of its data packets'.
    lengths = [engine.host.get(0, ("meta", 1, w))[1] for w in range(job.world_size)]
    longest = [max(lengths[w] for w in group.workers) for group in groups]
    parity_bytes = sum(touched(packet, n) for n in longest)
    assert full == (
        sum(touched(packet, n) for n in lengths),
        sum(touched(packet, n) for n in lengths) + (plan.m - 1) * parity_bytes,
    )
    assert full[1] == 11_563_520  # 15,903,488 when parity 0 was CRC'd too
    assert full[0] < 0.7 * job.world_size * packet  # two long shards, six short
    # A delta patches every parity digest: its ceiling CRCs parity 0 too.
    digest_ceiling = full[1] + parity_bytes

    old = {w: p.copy() for w, p in engine._delta_base.packets.items()}
    ADVANCES[dirty](job)
    counters.reset()
    report = engine.save_incremental()
    assert "dirty_fraction" in report.breakdown
    runs = {
        w: packet_delta(old[w], engine._delta_base.packets[w])[1].dirty_runs for w in old
    }
    own = sum(end - start for w in runs for start, end in runs[w])
    merged = {
        group.index: merge_intervals(
            [Interval(*run) for w in group.workers for run in runs[w]]
        )
        for group in groups
    }
    union = sum(run.duration for r in merged for run in merged[r])
    # Of a group's union run, a worker whose payload ends before or inside
    # it contributes only its block-rounded live part.
    assert counters.encoded == sum(
        touched(run.duration, min(max(lengths[w] - run.start, 0), run.duration))
        for group in groups
        for run in merged[group.index]
        for w in group.workers
    ) <= plan.k * union
    assert counters.digested == own + plan.m * union
    if dirty == "counters":
        assert own == union == 0
    if dirty == "one_tensor":
        assert 0 < counters.encoded < 0.15 * full[0]  # of live bytes, no longer of padded ones
        assert 0 < counters.digested < 0.1 * digest_ceiling
    # The ceiling is a full save's bytes, never more.
    assert counters.encoded <= full[0] and counters.digested <= digest_ceiling


# ---------------------------------------------------------------------------
# Rot in the base is carried, flagged — never blessed with a fresh digest
# ---------------------------------------------------------------------------
def chunk_site(engine, kind):
    plan = engine.placement
    return (plan.data_nodes if kind == "data" else plan.parity_nodes)[0]


def rotten_delta(kind, inside):
    """v1, rot in one of its chunk packets, then a one-tensor delta to v2.

    Returns the job, the engine, v2's reference state, the index of the
    rotten byte and what an unrotted v2 packet holds (from a twin)."""
    job, engine = make_engine(seed=49, scale=2e-3)
    twin_job, twin = make_engine(seed=49, scale=2e-3)
    engine.save()
    twin.save()
    twin_job.advance(dirty_tensor_fraction=1e-9)
    twin.save_incremental()
    node, key = chunk_site(engine, kind), (kind, 0, 0)
    clean_v1 = twin.host.get(node, ("chunk", 1, *key))
    clean_v2 = twin.host.get(node, ("chunk", 2, *key))
    (start, end), = packet_delta(clean_v1, clean_v2)[1].dirty_runs
    assert 0 < end < clean_v1.size  # there is an outside
    index = (start + end) // 2 if inside else end + (clean_v1.size - end) // 2

    corrupt_buffer(engine.host.get(node, ("chunk", 1, *key)), index, mask=0x5A)
    job.advance(dirty_tensor_fraction=1e-9)
    report = engine.save_incremental()
    assert report.version == 2 and "dirty_fraction" in report.breakdown  # it commits
    return job, engine, job.snapshot_states(), index, clean_v2


@pytest.mark.parametrize("inside", [True, False], ids=["in_dirty_range", "in_clean_range"])
@pytest.mark.parametrize("kind", ["data", "parity"])
def test_rot_in_the_base_is_inherited_with_a_digest_that_flags_it(kind, inside):
    job, engine, reference, index, clean_v2 = rotten_delta(kind, inside)
    node, key = chunk_site(engine, kind), (kind, 0, 0)
    successor = engine.host.get(node, ("chunk", 2, *key))
    digest = engine.host.get(node, ("digest", 2, *key))
    # The successor carries exactly the base's rot, under the digest of
    # the bytes it *should* hold: verification fails, as for any rot.
    assert verify_chunk(clean_v2, digest)
    assert not verify_chunk(successor, digest)
    assert np.flatnonzero(successor != clean_v2).tolist() == [index]
    assert not chunk_whole(engine, node, 2, kind, 0)
    # One erasure by rot plus one node lost: still inside the m = 2 budget.
    lost = {next(n for n in range(4) if n != node)}
    job.advance()
    job.fail_nodes(lost)
    assert engine.restore(lost).version == 2
    verify(job, reference)
    assert engine._whole(2) is not None  # the restore re-encoded it

    # And the demotion gate keeps it off the disk tier.
    job, engine, *_ = rotten_delta(kind, inside)
    job.advance()
    engine.save()  # v3 takes over as delta base; v2 is a demotion candidate
    with pytest.raises(CheckpointError, match="not fully intact"):
        engine.demote_version(2)
    assert engine.prune_memory_index() == [1, 2]


@pytest.mark.parametrize("record", ["chunk", "digest", "meta"])
def test_one_absent_base_record_falls_back_to_a_full_save(record):
    job, engine = make_engine()
    engine.save()
    node = engine.placement.parity_nodes[1]
    key = next(k for k in engine.host.keys(node) if k[0] == record and k[1] == 1)
    # A chunk packet and its digest live on one node; a metadata record is
    # broadcast, and absent once no node holds it.
    for holder in range(4):
        engine.host.delete(holder, key)
    job.advance(dirty_tensor_fraction=0.1)
    report = engine.save_incremental()
    assert report.version == 2 and "dirty_fraction" not in report.breakdown
    reference = job.snapshot_states()
    job.fail_nodes({0, 1})
    assert engine.restore({0, 1}).version == 2
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
