"""Regression tests for the recovery-path bugfixes:

* parity re-encode runs ONE fused pass per reduction group, for exactly
  the lost rows (the old code re-ran the full encode once per lost parity
  chunk); the decode likewise, for exactly the lost data chunks,
* restore bills the host-to-device copy with ``htod_time``, not the
  DtoH figure,
* ``save_incremental`` after an interleaved remote backup uses the last
  *chunked* version as its delta base (the backup advances the version
  counter without writing chunks).
"""

import pytest

from repro.core import stored as stored_module
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.network import TimeModel
from repro.tensors.state_dict import state_dicts_equal


def make_engine(seed=31, time_model=None):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=1e-3,
        seed=seed,
        time_model=time_model,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2))


def count_fused_passes(monkeypatch):
    """Record the rows of every fused pass the engine runs from here on.

    Returns ``(decodes, encodes)``: the ``lost`` ids of each
    ``decode_group_into`` call and the ``rows`` of each ``encode_group_into``.
    Every pass must be told its packets' live lengths (the version's
    metadata survives on every node in these tests).
    """
    decodes, encodes = [], []
    decode, encode = stored_module.decode_group_into, stored_module.encode_group_into

    def counting_decode(code, available, lost, out, lengths=None):
        decodes.append(list(lost))
        assert set(lengths) == set(available)
        return decode(code, available, lost, out, lengths)

    def counting_encode(code, packets, out, rows=None, lengths=None):
        encodes.append(list(range(len(out))) if rows is None else list(rows))
        assert len(lengths) == len(packets)
        return encode(code, packets, out, rows=rows, lengths=lengths)

    monkeypatch.setattr(stored_module, "decode_group_into", counting_decode)
    monkeypatch.setattr(stored_module, "encode_group_into", counting_encode)
    return decodes, encodes


def chunk_writes(engine):
    """Record every ("chunk" | "digest", ...) key put into host memory."""
    writes = []
    inner = engine.host.put

    def recording(node, key, value):
        if key[0] in ("chunk", "digest"):
            writes.append((node, key))
        return inner(node, key, value)

    engine.host.put = recording
    return writes


def verify(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


# ---------------------------------------------------------------------------
# Single-pass parity re-encode
# ---------------------------------------------------------------------------
def test_all_data_alive_reencode_is_one_pass_per_group(monkeypatch):
    """Losing BOTH parity nodes must cost one fused pass per reduction
    group, not one per (group, lost parity), and no decode at all."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    plan = engine.placement
    groups = len(plan.data_group[0])
    failed = set(plan.parity_nodes)  # both parities lost, all data alive
    decodes, encodes = count_fused_passes(monkeypatch)
    job.fail_nodes(failed)
    report = engine.restore(failed)
    assert decodes == []
    assert encodes == [[0, 1]] * groups
    verify(job, reference)
    # Both parity chunks were rebuilt from those passes.
    for i, node in enumerate(plan.parity_nodes):
        for r in range(groups):
            assert engine.host.contains(node, ("chunk", 1, "parity", i, r))
    assert report.restore_redundancy_time > 0


def test_decode_path_reencode_is_one_pass_per_group(monkeypatch):
    """A data node + a parity node lost: one decode pass and one re-encode
    pass per group, each for exactly the lost row."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    plan = engine.placement
    failed = {plan.data_nodes[0], plan.parity_nodes[0]}
    groups = len(plan.data_group[0])
    decodes, encodes = count_fused_passes(monkeypatch)
    job.fail_nodes(failed)
    engine.restore(failed)
    assert decodes == [[0]] * groups
    assert encodes == [[0]] * groups
    verify(job, reference)


def test_losing_one_data_node_touches_only_the_lost_chunks(monkeypatch):
    """One data node lost: one decoded row per group, no re-encode, and
    only the lost chunk's packets are stored and digested — chunks that
    never left host memory are neither rewritten nor re-digested."""
    job, engine = make_engine()
    engine.save()
    reference = job.snapshot_states()
    plan = engine.placement
    groups = len(plan.data_group[0])
    lost_node = plan.data_nodes[1]
    survivors_before = {
        (node, key): engine.host.get(node, key)
        for node in range(4) if node != lost_node
        for key in engine.host.keys(node) if key[0] in ("chunk", "digest")
    }
    decodes, encodes = count_fused_passes(monkeypatch)
    writes = chunk_writes(engine)
    job.fail_nodes({lost_node})
    engine.restore({lost_node})
    assert decodes == [[1]] * groups and encodes == []
    assert sorted(writes) == sorted(
        (lost_node, (kind, 1, "data", 1, r))
        for kind in ("chunk", "digest") for r in range(groups)
    )
    # The very same objects, not equal copies.
    assert all(
        engine.host.get(node, key) is value
        for (node, key), value in survivors_before.items()
    )
    assert engine._whole(1) is not None
    verify(job, reference)


def test_reencode_seconds_billed_once_not_per_parity():
    """The background re-encode time must be one pass over the group
    payload regardless of how many parity chunks were lost."""
    job1, engine1 = make_engine()
    engine1.save()
    plan = engine1.placement
    one_parity = {plan.parity_nodes[0]}
    job1.fail_nodes(one_parity)
    r_one = engine1.restore(one_parity)

    job2, engine2 = make_engine()
    engine2.save()
    both_parities = set(engine2.placement.parity_nodes)
    job2.fail_nodes(both_parities)
    r_both = engine2.restore(both_parities)
    # Same encode work (one pass emits every parity); only the transfer
    # fan-out grows with a second replacement node.
    assert r_both.restore_redundancy_time < 2 * r_one.restore_redundancy_time


# ---------------------------------------------------------------------------
# HtoD billing on the restore path
# ---------------------------------------------------------------------------
def test_restore_bills_htod_not_dtoh():
    slow_up = TimeModel(htod_gbps=2.0)  # dtoh stays at the 128 default
    job, engine = make_engine(time_model=slow_up)
    engine.save()
    failed = {engine.placement.parity_nodes[0]}
    job.fail_nodes(failed)
    report = engine.restore(failed)
    expected_htod = max(
        slow_up.htod_time(job.logical_shard_bytes(w))
        for w in range(job.world_size)
    )
    assert report.breakdown["htod"] == pytest.approx(expected_htod)
    # 64x slower HtoD must dominate; with the old dtoh-based billing the
    # breakdown would be 64x smaller.
    fast = TimeModel()
    assert expected_htod == pytest.approx(
        64 * max(fast.dtoh_time(job.logical_shard_bytes(w)) for w in range(8))
    )


def test_slow_htod_slows_every_engine_restore():
    for engine_cls in (SyncRemoteEngine, GeminiReplicationEngine):
        results = {}
        for label, tm in (("fast", TimeModel()), ("slow", TimeModel(htod_gbps=1.0))):
            job = TrainingJob.create(
                "gpt2-h1024-L16",
                ClusterSpec(4, 2),
                ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
                scale=1e-3,
                seed=31,
                time_model=tm,
            )
            engine = engine_cls(job)
            engine.save()
            job.fail_nodes({1})
            results[label] = engine.restore({1}).recovery_time
        assert results["slow"] > results["fast"], engine_cls.__name__


def test_htod_defaults_match_dtoh():
    tm = TimeModel()
    assert tm.htod_time(10**9) == tm.dtoh_time(10**9)


# ---------------------------------------------------------------------------
# save_incremental after a remote backup
# ---------------------------------------------------------------------------
def test_incremental_after_remote_backup_uses_last_chunked_version():
    job, engine = make_engine()
    engine.save()  # v1: chunks in host memory
    engine.save_remote_backup()  # v2: remote only, NO chunks
    job.advance()
    report = engine.save_incremental()  # delta base must be v1, not v2
    assert report.version == 3
    reference = job.snapshot_states()
    job.fail_nodes({0, 1})
    recovery = engine.restore({0, 1})
    assert recovery.version == 3
    verify(job, reference)


def test_incremental_with_no_prior_chunks_falls_back_to_full():
    job, engine = make_engine()
    engine.save_remote_backup()  # version advanced, no chunks ever written
    report = engine.save_incremental()
    assert report.version == 2
    assert "dirty_fraction" not in report.breakdown  # it was a full save


# ---------------------------------------------------------------------------
# Delta base survives only as long as its chunks do
# ---------------------------------------------------------------------------
def test_restore_clears_the_delta_base_pointer():
    """A recovery invalidates the delta base entirely: both the cached
    packets and the version pointer.  A stale pointer at a wiped version
    would misreport delta_base_version() and un-pin the demotion guard."""
    job, engine = make_engine()
    engine.save()
    assert engine.delta_base_version() == 1
    job.fail_nodes({1})
    engine.restore({1})
    assert engine.delta_base_version() is None
    assert engine._delta_base is None


def test_incremental_with_wiped_base_chunks_falls_back_to_full():
    """If the base version's chunks are gone from host memory (here: a
    memory wipe that a refused recovery would leave behind), the next
    save_incremental must NOT XOR-update missing chunks — it must walk
    back to a full save, and later recovery must restore those bytes."""
    job, engine = make_engine()
    engine.save()
    # Wipe version 1's chunks everywhere while leaving the engine's
    # delta-base bookkeeping untouched.
    for node in range(job.cluster.num_nodes):
        for key in list(engine.host.keys(node)):
            if isinstance(key, tuple) and key[0] == "chunk" and key[1] == 1:
                engine.host.delete(node, key)
    assert engine.delta_base_version() == 1  # pointer still aimed at v1
    job.advance()
    report = engine.save_incremental()
    assert "dirty_fraction" not in report.breakdown  # full-save fallback
    reference = job.snapshot_states()
    job.fail_nodes({2, 3})
    engine.restore({2, 3})
    verify(job, reference)
