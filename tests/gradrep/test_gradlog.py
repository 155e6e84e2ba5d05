"""Gradient-log placement, commit discipline, and replay survivability."""

import numpy as np
import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig
from repro.core.registry import build_engine
from repro.gradrep import GradientLog, buddy_of
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def make_engine(name="gradrep", seed=11):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=seed,
    )
    engine = build_engine(
        name, job, ECCheckConfig(k=2, m=2, encode_threads=2)
    )
    return job, engine


def seeded_log(engine, entries=2, seed=7):
    """A log with a committed base and ``entries`` appended deltas."""
    log = engine.log
    log.rebase(1, 1)
    rng = np.random.default_rng(seed)
    for i in range(entries):
        deltas = {
            w: rng.integers(0, 256, 128, dtype=np.uint8)
            for w in range(engine.job.world_size)
        }
        metadata = {w: f"meta-{i}-{w}".encode() for w in range(engine.job.world_size)}
        log.append(2 + i, deltas, metadata, packet_size=128)
    return log


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
def test_buddy_is_cross_rack_on_the_testbed():
    assert buddy_of(0, 4, 2) == 2
    assert buddy_of(1, 4, 2) == 3
    assert buddy_of(2, 4, 2) == 0
    assert buddy_of(3, 4, 2) == 1


def test_buddy_falls_back_to_shift_one_for_single_rack():
    assert buddy_of(0, 4, 4) == 1
    assert buddy_of(0, 4, None) == 1


def test_buddy_refuses_degenerate_cluster():
    with pytest.raises(CheckpointError):
        buddy_of(0, 1, None)


# ---------------------------------------------------------------------------
# Append + commit discipline
# ---------------------------------------------------------------------------
def test_append_without_base_refuses():
    _, engine = make_engine()
    with pytest.raises(CheckpointError):
        engine.log.append(1, {}, {}, packet_size=0)


def test_append_places_home_buddy_and_broadcasts_commit():
    _, engine = make_engine()
    log = seeded_log(engine, entries=1)
    seq = log.seqs[0]
    for worker in range(engine.job.world_size):
        for node in log.entries.replicas(worker):
            assert engine.host.contains(node, ("grad", seq, worker))
            assert engine.host.contains(node, ("graddig", seq, worker))
            assert engine.host.contains(node, ("gradmeta", seq, worker))
    for node in range(4):
        assert engine.host.contains(node, ("gradcommit", seq))


def test_tail_survives_losing_every_home_copy():
    """The buddy placement is cross-rack, so wiping one whole rack still
    leaves a verified copy of every writer's delta."""
    _, engine = make_engine()
    log = seeded_log(engine, entries=2)
    live = [2, 3]  # rack 0 (nodes 0, 1) lost
    tail = log.replayable_tail(1, live)
    assert [record["iteration"] for _, record in tail] == [2, 3]


def test_missing_commit_record_tears_the_entry():
    _, engine = make_engine()
    log = seeded_log(engine, entries=2)
    engine.host.delete(3, ("gradcommit", log.seqs[0]))
    # Entry 1 is torn on node 3; the walk stops before it, dropping
    # entry 2 as well (replay past a gap applies deltas out of order).
    assert log.replayable_tail(1, [0, 1, 2, 3]) == []


def test_bit_rot_demotes_the_entry():
    _, engine = make_engine()
    log = seeded_log(engine, entries=1)
    seq = log.seqs[0]
    worker = 0
    for node in log.entries.replicas(worker):
        engine.host.get(node, ("grad", seq, worker))[0] ^= 0xFF
    assert log.replayable_tail(1, [0, 1, 2, 3]) == []


def test_base_version_mismatch_stops_the_walk():
    _, engine = make_engine()
    log = seeded_log(engine, entries=1)
    log.base_version = 2  # a newer base committed; old entries are stale
    assert log.replayable_tail(2, [0, 1, 2, 3]) == []


def test_rebase_scrubs_raw_storage_not_just_bookkeeping():
    """Torn-append debris lives under a seq the log never recorded; the
    scrub must delete by storage scan so the oracle cannot see entries
    the engine no longer tracks."""
    _, engine = make_engine()
    log = seeded_log(engine, entries=1)
    # Debris: a payload under an unrecorded seq (simulates a crash
    # mid-append before the seq reached log.seqs).
    engine.host.put(0, ("grad", 99, 0), np.zeros(8, dtype=np.uint8))
    log.rebase(5, 10)
    for node in range(4):
        for key in engine.host.keys(node):
            assert not (
                isinstance(key, tuple)
                and key[0] in ("grad", "graddig", "gradmeta", "gradcommit")
            ), key


def test_read_raises_when_no_whole_copy_survives():
    _, engine = make_engine()
    log = seeded_log(engine, entries=1)
    seq = log.seqs[0]
    worker = 0
    replicas = log.entries.replicas(worker)
    with pytest.raises(RecoveryError):
        log.entries.read(seq, worker, [n for n in range(4) if n not in replicas])


def test_restore_redundancy_recreates_wiped_copies():
    _, engine = make_engine()
    log = seeded_log(engine, entries=2)
    wiped = {1}
    for key in list(engine.host.keys(1)):
        engine.host.delete(1, key)
    copied = log.restore_redundancy(wiped)
    assert copied > 0
    for seq in log.seqs:
        assert engine.host.contains(1, ("gradcommit", seq))
    for worker in range(engine.job.world_size):
        for node in log.entries.replicas(worker):
            for seq in log.seqs:
                assert engine.host.contains(node, ("grad", seq, worker))


def test_replay_packet_applies_deltas_in_order():
    _, engine = make_engine()
    log = engine.log
    log.rebase(1, 1)
    worker = 0
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, 64, dtype=np.uint8)
    expected = base.copy()
    for i in range(3):
        delta = rng.integers(0, 256, 64, dtype=np.uint8)
        expected ^= delta
        log.append(
            2 + i,
            {w: (delta if w == worker else np.zeros(64, dtype=np.uint8))
             for w in range(engine.job.world_size)},
            {w: b"m" for w in range(engine.job.world_size)},
            packet_size=64,
        )
    tail = log.replayable_tail(1, [0, 1, 2, 3])
    payload, metadata, fetches = log.replay_packet(
        base, worker, tail, [0, 1, 2, 3]
    )
    assert np.array_equal(payload, expected)
    assert metadata == b"m"
    assert fetches == 0
