"""Tests for chunk integrity verification and corruption recovery."""

from functools import reduce

import numpy as np
import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.integrity import (
    chunk_digest,
    corrupt_buffer,
    crc32_combine,
    crc32_zeros,
    live_prefix,
    patch_digest,
    verify_chunk,
    xor_digest,
)
from repro.core.protocol import xor_rows
from repro.ec.kernels import DEFAULT_CHUNK_BYTES as BLOCK
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
def test_digest_is_stable_and_sensitive():
    buf = np.arange(64, dtype=np.uint8)
    d = chunk_digest(buf)
    assert chunk_digest(buf.copy()) == d
    assert verify_chunk(buf, d)
    buf[3] ^= 1
    assert not verify_chunk(buf, d)


def test_digest_accepts_bytes():
    assert chunk_digest(b"abc") == chunk_digest(np.frombuffer(b"abc", np.uint8))


def test_digest_reads_array_memory_in_logical_order():
    """The zero-copy CRC must see what ``tobytes()`` would have produced."""
    import zlib

    base = np.arange(256, dtype=np.uint8)
    for view in (base, base[::2], base[3:77], base.reshape(16, 16), base.reshape(16, 16).T):
        assert chunk_digest(view) == zlib.crc32(view.tobytes())
    assert chunk_digest(np.zeros(0, dtype=np.uint8)) == zlib.crc32(b"")
    assert chunk_digest(memoryview(b"abc")) == chunk_digest(b"abc")


def test_digest_is_of_the_arrays_bytes_not_its_values():
    """A float array used to be value-cast to uint8 (1.5 -> 1, 300.0 -> 44)
    before the CRC: two different arrays shared a digest."""
    import zlib

    written = np.array([1.5, 2.5, 300.0])
    assert chunk_digest(written) == zlib.crc32(written.tobytes())
    assert not verify_chunk(np.array([1.25, 2.75, 300.9]), chunk_digest(written))


def test_corrupt_buffer_flips_bits():
    buf = np.zeros(8, dtype=np.uint8)
    corrupt_buffer(buf, byte_index=2, mask=0x0F)
    assert buf[2] == 0x0F


def test_corrupt_buffer_validation():
    buf = np.zeros(4, dtype=np.uint8)
    with pytest.raises(CheckpointError):
        corrupt_buffer(buf, byte_index=4)
    with pytest.raises(CheckpointError):
        corrupt_buffer(buf, mask=0)
    with pytest.raises(CheckpointError):
        corrupt_buffer(np.zeros(4, dtype=np.float32))


# ---------------------------------------------------------------------------
# CRC-32 arithmetic behind the delta save's derived digests
# ---------------------------------------------------------------------------
from hypothesis import example, given, settings
from hypothesis import strategies as st


@pytest.mark.parametrize("n", [0, 1, 7, 64 * 1024, 1_449_088])
def test_crc_of_zeros_closed_form_matches_zlib(n):
    import zlib

    assert crc32_zeros(n) == zlib.crc32(bytes(n))


@settings(deadline=None)
@given(a=st.binary(max_size=300), b=st.binary(max_size=300), c=st.binary(max_size=300))
def test_crc32_combine_matches_zlib_on_concatenations(a, b, c):
    import zlib

    ab = crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b))
    assert ab == zlib.crc32(a + b)
    assert crc32_combine(ab, zlib.crc32(c), len(c)) == zlib.crc32(a + b + c)


@settings(deadline=None)
@given(
    size=st.integers(0, 300_000),
    seed=st.integers(0, 2**31 - 1),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=12),
)
@example(size=300_000, seed=1, cuts=[0.0, 1.0])  # one run, touching both ends
@example(size=65_537, seed=2, cuts=[0.0, 0.5, 0.5, 1.0])  # adjacent, odd length
@example(size=1, seed=3, cuts=[0.0, 0.0, 1.0, 1.0])  # an empty run at each end
@example(size=0, seed=4, cuts=[0.0, 1.0])
def test_patched_digest_equals_the_digest_of_the_patched_buffer(size, seed, cuts):
    """digest(old ^ delta) from digest(old) and the dirty pieces alone, for
    random disjoint runs: empty, adjacent, at either end, odd lengths."""
    rng = np.random.default_rng(seed)
    old = rng.integers(0, 256, size, dtype=np.uint8)
    bounds = sorted(int(round(c * size)) for c in cuts)
    patched, digest = old.copy(), chunk_digest(old)
    for start, end in zip(bounds[::2], bounds[1::2]):
        piece = rng.integers(0, 256, end - start, dtype=np.uint8)
        patched[start:end] ^= piece
        digest = patch_digest(digest, size, start, piece)
    assert digest == chunk_digest(patched)
    assert verify_chunk(patched, digest)


# ---------------------------------------------------------------------------
# A length hint makes a check cheaper, never more lenient
# ---------------------------------------------------------------------------
HINT_SIZES = (0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 10)


def test_live_prefix_is_block_rounded_and_spares_a_whole_block_or_nothing():
    size = 3 * BLOCK + 10
    assert live_prefix(size, None) == size
    assert [live_prefix(size, n) for n in (0, 1, BLOCK, BLOCK + 1)] == [
        0, BLOCK, BLOCK, 2 * BLOCK
    ]
    # Rounded up, 2 * BLOCK + 1 leaves a 10-byte tail: not worth a closed form.
    assert live_prefix(size, 2 * BLOCK) == 2 * BLOCK
    assert live_prefix(size, 2 * BLOCK + 1) == size == live_prefix(size, size + 5)
    assert live_prefix(2 * BLOCK - 1, 1) == 2 * BLOCK - 1  # spares less than a block
    assert live_prefix(size, -5) == 0


@settings(max_examples=300, deadline=None)
@given(
    size=st.sampled_from(HINT_SIZES),
    seed=st.integers(0, 2**31 - 1),
    flip=st.sampled_from(["nothing", "live", "padding", "digest"]),
    data=st.data(),
)
def test_a_length_hint_never_changes_a_digest_or_a_verdict(size, seed, flip, data):
    """Any hint in [0, size] — right, too long, or too short for a tail that
    is not zero — with a bit flipped in the live part, the padding or the
    digest: ``verify_chunk`` answers as it does unhinted, and wherever the
    tail past the hint *is* zero the hinted digest is the plain CRC-32."""
    import zlib

    rng = np.random.default_rng(seed)
    live = data.draw(st.integers(0, size))
    payload = rng.integers(0, 256, size, dtype=np.uint8)
    payload[live:] = 0
    digest = zlib.crc32(payload)
    assert chunk_digest(payload, live) == digest
    if flip == "digest":
        digest ^= 1 << data.draw(st.integers(0, 31))
    elif flip == "live" and live:
        corrupt_buffer(payload, data.draw(st.integers(0, live - 1)), mask=0x10)
    elif flip == "padding" and live < size:
        corrupt_buffer(payload, data.draw(st.integers(live, size - 1)), mask=0x01)
    hint = data.draw(st.one_of(st.just(live), st.integers(0, size)))
    truth = zlib.crc32(payload) == digest
    assert verify_chunk(payload, digest) == truth
    assert verify_chunk(payload, digest, hint) == truth
    assert verify_chunk(payload.tobytes(), digest, hint) == truth
    if not payload[hint:].any():
        assert chunk_digest(payload, hint) == zlib.crc32(payload)


def test_patch_digest_rejects_a_piece_outside_the_chunk():
    piece = np.ones(8, dtype=np.uint8)
    for start in (-1, 57, 64):
        with pytest.raises(CheckpointError):
            patch_digest(0, 64, start, piece)
    assert patch_digest(chunk_digest(bytes(64)), 64, 56, piece) == chunk_digest(
        bytes(56) + bytes(piece)
    )


# ---------------------------------------------------------------------------
# Engine-level corruption handling
# ---------------------------------------------------------------------------
def make_engine():
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=1e-3,
        seed=21,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2))


def chunk_whole(engine, node, version, kind, idx):
    """The engine's survey finds chunk ``(kind, idx)`` of ``version`` whole on
    ``node``, its checks hinted by the version's commit record."""
    cid = idx if kind == "data" else engine.placement_of(version).k + idx
    records = engine._records(version, range(engine.job.cluster.num_nodes))
    return engine._survey(version, [node], records=records).get(cid) == node


def corrupt_chunk(engine, node, kind, idx, r=0):
    payload = engine.host.get(node, ("chunk", engine.version, kind, idx, r))
    corrupt_buffer(payload, byte_index=1)


def verify_all(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


def test_save_stores_digests_beside_chunks():
    job, engine = make_engine()
    engine.save()
    for node, kind, idx in [(0, "data", 0), (1, "parity", 0)]:
        for r in range(len(engine.placement.data_group[0])):
            assert engine.host.contains(node, ("digest", 1, kind, idx, r))
    assert chunk_whole(engine, 0, 1, "data", 0)


def test_corrupted_data_chunk_recovered_via_decode():
    """Silent corruption on a live data node: the chunk fails verification,
    becomes an erasure, and decoding from parity restores everything."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    corrupt_chunk(engine, engine.placement.data_nodes[0], "data", 0)
    assert not chunk_whole(engine, engine.placement.data_nodes[0], 1, "data", 0)
    # No node failed — the restore is triggered by corruption alone.
    report = engine.restore(set())
    verify_all(job, reference)
    assert report.breakdown["decode"] > 0
    # The corrupted chunk was rebuilt and passes verification again.
    assert chunk_whole(engine, engine.placement.data_nodes[0], 1, "data", 0)


def test_corrupted_parity_chunk_reencoded_without_decode():
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    corrupt_chunk(engine, engine.placement.parity_nodes[1], "parity", 1)
    report = engine.restore(set())
    verify_all(job, reference)
    assert "decode" not in report.breakdown  # data chunks were intact
    assert chunk_whole(engine, engine.placement.parity_nodes[1], 1, "parity", 1)


def test_corruption_plus_node_failure_within_budget():
    """One corrupted data chunk + one failed parity node = 2 erasures,
    exactly the m=2 budget."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    corrupt_chunk(engine, engine.placement.data_nodes[1], "data", 1)
    failed = {engine.placement.parity_nodes[0]}
    job.fail_nodes(failed)
    engine.restore(failed)
    verify_all(job, reference)


def test_corruption_beyond_budget_falls_back_or_raises():
    job, engine = make_engine()
    engine.save()
    # Corrupt three of four chunks: only one survivor < k = 2.
    corrupt_chunk(engine, engine.placement.data_nodes[0], "data", 0)
    corrupt_chunk(engine, engine.placement.data_nodes[1], "data", 1)
    corrupt_chunk(engine, engine.placement.parity_nodes[0], "parity", 0)
    with pytest.raises(RecoveryError, match="no version in memory or on disk is decodable"):
        engine.restore(set())


def test_corruption_in_any_single_packet_is_detected():
    """Corruption in a non-first reduction-group packet is still caught
    (verification covers every packet of the chunk, not just r=0)."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    last_r = len(engine.placement.data_group[0]) - 1
    corrupt_chunk(engine, engine.placement.data_nodes[0], "data", 0, r=last_r)
    engine.restore(set())
    verify_all(job, reference)


# ---------------------------------------------------------------------------
# Rot in the padding is rot: the hinted checks see it like any other
# ---------------------------------------------------------------------------
def padded_packet(engine, kind, version=1):
    """(node, idx, r, first padding byte) of a stored ``kind`` packet whose
    length hint spares at least one whole block."""
    plan = engine.placement_of(version)
    nodes = plan.data_nodes if kind == "data" else plan.parity_nodes
    for idx, node in enumerate(nodes):
        records = engine._records(version, [node])
        for r in range(len(plan.data_group[0])):
            live = engine.live_bytes(plan, records, kind, idx, r)
            size = engine.host.get(node, ("chunk", version, kind, idx, r)).size
            if live_prefix(size, live) < size:
                return node, idx, r, live
    raise AssertionError(f"no {kind} packet of this testbed carries a block of padding")


def flip_at(engine, kind, where, version=1):
    """Flip a bit of a padded ``kind`` packet: in its live part, in its
    first padding byte, or in its last; returns (node, idx)."""
    node, idx, r, live = padded_packet(engine, kind, version)
    payload = engine.host.get(node, ("chunk", version, kind, idx, r))
    index = {"live": live // 2, "padding": live, "last_byte": payload.size - 1}[where]
    assert (where == "live") == bool(payload[index])  # padding is zero, state is not
    corrupt_buffer(payload, index, mask=0x04)
    return node, idx


WHERE = ["live", "padding", "last_byte"]


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("kind", ["data", "parity"])
def test_rot_anywhere_in_a_packet_is_refused_at_demotion_and_pruned(kind, where):
    job, engine = make_engine()
    engine.save()
    job.advance()
    engine.save()  # v1 is no longer the delta base: demotable
    node, idx = flip_at(engine, kind, where)
    assert not chunk_whole(engine, node, 1, kind, idx)
    with pytest.raises(CheckpointError, match="not fully intact"):
        engine.demote_version(1)
    assert engine.prune_memory_index() == [1]
    assert engine.memory_versions() == [2]


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("kind", ["data", "parity"])
def test_rot_anywhere_in_a_packet_is_an_erasure_at_restore(kind, where):
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    node, idx = flip_at(engine, kind, where)
    report = engine.restore(set())
    verify_all(job, reference)
    assert ("decode" in report.breakdown) == (kind == "data")
    assert chunk_whole(engine, node, 1, kind, idx)  # rebuilt, digest and all
    assert engine._whole(1) is not None


@pytest.mark.parametrize("kind", ["data", "parity"])
def test_a_version_without_metadata_records_still_verifies_in_full(kind):
    """No commit record, no hint: the full pass, with the same verdicts."""
    job, engine = make_engine()
    engine.save()
    node, idx, r, live = padded_packet(engine, kind)
    for holder in range(4):
        for worker in range(job.world_size):
            engine.host.delete(holder, ("meta", 1, worker))
    assert engine._records(1, range(4)) is None
    assert chunk_whole(engine, node, 1, kind, idx)
    corrupt_buffer(engine.host.get(node, ("chunk", 1, kind, idx, r)), live, mask=0x04)
    assert not chunk_whole(engine, node, 1, kind, idx)


# ---------------------------------------------------------------------------
# Digests by algebra: a chunk that is the XOR of others is not CRC'd
# ---------------------------------------------------------------------------
@settings(deadline=None)
@given(
    n=st.integers(1, 6),
    size=st.sampled_from([0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1]),
    seed=st.integers(0, 2**31 - 1),
)
def test_xor_digest_is_the_crc_of_the_xor(n, size, seed):
    import zlib

    rng = np.random.default_rng(seed)
    chunks = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]
    assert xor_digest([zlib.crc32(c) for c in chunks], size) == zlib.crc32(
        reduce(np.bitwise_xor, chunks)
    )


#: name -> failed nodes, as a function of the placement: the ledger's four
#: patterns. At (2, 2) parity 0 = d0 ^ d1, so of the chunks lost per group
#: one digest is always derived and the rest CRC'd.
LOSS_PATTERNS = {
    "parity1": lambda plan: {plan.parity_nodes[0]},
    "data1": lambda plan: {plan.data_nodes[0]},
    "data2": lambda plan: set(plan.data_nodes[:2]),
    "data1_parity1": lambda plan: {plan.data_nodes[0], plan.parity_nodes[0]},
}


def assert_every_digest_is_the_crc(engine, version):
    """Returns how many of ``version``'s host digests it checked."""
    import zlib

    checked = 0
    for node in range(4):
        for key in engine.host.keys(node):
            if key[0] == "digest" and key[1] == version:
                chunk = engine.host.get(node, ("chunk",) + key[1:])
                assert engine.host.get(node, key) == zlib.crc32(chunk), (node, key)
                checked += 1
    return checked


class CRCCalls:
    """Counts ``zlib.crc32`` calls made inside ``put_back``, the one routine
    that stores rebuilt chunks for the restore and the elastic repair."""

    def __init__(self, monkeypatch, engine):
        import zlib

        self.calls, self.inside = 0, False
        crc32, put_back = zlib.crc32, engine.put_back

        def counting_crc32(data, *args):
            self.calls += self.inside
            return crc32(data, *args)

        def counted_put_back(*args, **kwargs):
            self.inside = True
            try:
                return put_back(*args, **kwargs)
            finally:
                self.inside = False

        monkeypatch.setattr(zlib, "crc32", counting_crc32)
        monkeypatch.setattr(engine, "put_back", counted_put_back)


#: The restore after each ledger pattern and a disk promotion; a same-layout
#: repair of each ledger pattern's gaps; and a relayout repair, (2, 2) ->
#: (1, 2) over the three nodes left when parity 1's node is gone.
RECOVERIES = [
    *LOSS_PATTERNS,
    "disk_promotion",
    *(f"repair_{name}" for name in LOSS_PATTERNS),
    "relayout",
]


@pytest.mark.parametrize("pattern", RECOVERIES)
def test_rebuilt_digests_equal_the_crc_and_one_per_group_is_derived(monkeypatch, pattern):
    """Every digest put back is its chunk's CRC, and the ones an all-ones
    row determines are derived: at (2, 2) one lost chunk per group
    (DESIGN.md's table); in a relayout, which starts knowing no digest, the
    all-ones parity rows, from the data chunks stored before them."""
    from repro import obs
    from repro.elastic.repair import RepairExecutor, plan_repair

    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    plan = engine.placement
    job.advance()
    repair = pattern.startswith("repair_") or pattern == "relayout"
    if pattern == "disk_promotion":
        engine.save()
        engine.demote_version(1)
        failed = set(range(4))  # every memory copy gone: v1 comes back from disk
    elif pattern == "relayout":
        failed = {plan.parity_nodes[1]}
    else:
        failed = LOSS_PATTERNS[pattern.removeprefix("repair_")](plan)
    counter = CRCCalls(monkeypatch, engine)
    with obs.use_tracer() as tracer:
        if repair:
            for node in failed:
                engine.host.wipe(node)
            if pattern == "relayout":
                engine.reconfigure(1, 2, active_nodes=sorted(set(range(4)) - failed))
            RepairExecutor(engine, plan_repair(engine, 1, engine.placement, 1)).run()
        else:
            job.fail_nodes(failed)
            report = engine.restore(failed)
            assert report.version == 1
            assert report.tier == ("disk" if pattern == "disk_promotion" else "memory")
            verify_all(job, reference)
    layout = engine.placement_of(1)
    groups = len(layout.data_group[0])
    assert assert_every_digest_is_the_crc(engine, 1) == (layout.k + layout.m) * groups
    if pattern == "relayout":
        # Every target chunk is restaged, and every all-ones parity row is
        # derived: at (1, 2) both rows, each a copy of the one data chunk.
        rebuilt = layout.k + layout.m
        derived = len(xor_rows(engine.code_for(layout.k, layout.m))) * groups
        assert derived == layout.m * groups
    else:
        nodes = list(plan.data_nodes) + list(plan.parity_nodes)
        rebuilt = sum(node in failed for node in nodes) * (pattern != "disk_promotion")
        derived = groups if rebuilt else 0
    # The parent CRC'd every chunk packet a repair stored.
    assert counter.calls == rebuilt * groups - derived
    gauges = tracer.metrics.snapshot()["gauges"]
    if repair:  # the restore's gauges are the restore's alone
        assert "restore.digests_crcd" not in gauges
    else:
        assert gauges["restore.digests_crcd"] == counter.calls
        assert gauges["restore.digests_derived"] == derived


def test_a_wrong_decode_of_an_xor_row_chunk_is_caught_not_blessed(monkeypatch):
    """d0 lost: it is rebuilt as p0 ^ d1 and its digest derived from theirs,
    so a byte the decode got wrong is rot at the next check — a digest
    CRC'd from the decoded bytes would have blessed it."""
    from repro.core import stored

    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    plan = engine.placement
    decode = stored.decode_group_into

    def wrong_decode(code, available, lost, out, lengths=None):
        decode(code, available, lost, out, lengths)
        corrupt_buffer(out[0], 3, mask=0x20)

    monkeypatch.setattr(stored, "decode_group_into", wrong_decode)
    failed = {plan.data_nodes[0]}
    job.fail_nodes(failed)
    engine.restore(failed)
    monkeypatch.undo()
    assert not chunk_whole(engine, plan.data_nodes[0], 1, "data", 0)
    with pytest.raises(CheckpointError, match="not fully intact"):
        engine.demote_version(1)
    report = engine.restore(set())
    assert report.breakdown["decode"] > 0  # the rebuilt d0 was an erasure
    verify_all(job, reference)
    assert engine._whole(1) is not None
