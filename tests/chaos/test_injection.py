"""Tests for crash-point injection: the injector itself, and that a crash
at every save-pipeline point leaves a torn version recovery walks back past.
"""

import pytest

from repro.errors import RecoveryError, ReproError
from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.checkpoint.two_phase import TwoPhaseEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


def make_job(seed=11):
    return TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=1e-3,
        seed=seed,
    )


def verify(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------
def test_injector_fires_at_planned_point():
    injector = CrashInjector(CrashPlan("boom"))
    injector("other")  # counted, harmless
    with pytest.raises(InjectedCrash) as excinfo:
        injector("boom", version=3)
    assert excinfo.value.point == "boom"
    assert excinfo.value.context == {"version": 3}
    assert injector.fired


def test_injector_respects_after_count():
    injector = CrashInjector(CrashPlan("boom", after=2))
    injector("boom")
    injector("boom")
    with pytest.raises(InjectedCrash) as excinfo:
        injector("boom")
    assert excinfo.value.hits == 3


def test_injector_fires_only_once():
    injector = CrashInjector(CrashPlan("boom"))
    with pytest.raises(InjectedCrash):
        injector("boom")
    injector("boom")  # a dead process cannot crash twice


def test_injected_crash_is_not_a_repro_error():
    # Library except-clauses catching ReproError must never swallow it.
    assert not issubclass(InjectedCrash, ReproError)


def test_unfired_injector_leaves_save_untouched():
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    engine.crash_injector = CrashInjector(CrashPlan("no-such-point"))
    report = engine.save()
    assert report.version == 1
    assert not engine.crash_injector.fired


# ---------------------------------------------------------------------------
# ECCheck: every crash point leaves a version recovery walks back past
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("point", ECCheckEngine.crash_points)
def test_eccheck_crash_at_every_point_walks_back(point):
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    job.advance()
    engine.save()  # v1: complete
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan(point))
    with pytest.raises(InjectedCrash):
        engine.save()  # v2: torn at `point`
    engine.crash_injector = None
    assert engine.version == 2
    report = engine.restore(set())  # pure process restart, no machine loss
    assert report.version == 1
    verify(job, reference)


def test_crash_between_chunk_placement_and_metadata_restores_previous():
    """The satellite scenario: all of v2's chunks landed, the metadata
    broadcast (the commit record) did not — restore must return v1."""
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan("pre_metadata_broadcast"))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    # The byte work finished: v2's chunks are all in place...
    plan = engine.placement
    groups = len(plan.data_group[0])
    for j, node in enumerate(plan.data_nodes):
        for r in range(groups):
            assert engine.host.contains(node, ("chunk", 2, "data", j, r))
    # ...but no metadata committed it, so restore lands on v1.
    report = engine.restore(set())
    assert report.version == 1
    verify(job, reference)


def test_mid_p2p_crash_plus_node_failures_restores_previous():
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan("mid_p2p", after=3))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    job.fail_nodes({0, 1})
    report = engine.restore({0, 1})
    assert report.version == 1
    verify(job, reference)


def test_partial_metadata_broadcast_is_not_a_commit():
    """A crash after SOME workers' metadata landed still tears the version."""
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(
        CrashPlan("mid_metadata_broadcast", after=2)
    )
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    # Two workers' records went out before the crash...
    assert any(
        engine.host.contains(node, ("meta", 2, 0)) for node in range(4)
    )
    report = engine.restore(set())
    assert report.version == 1
    verify(job, reference)


# ---------------------------------------------------------------------------
# base1 / base2: torn remote versions
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [SyncRemoteEngine, TwoPhaseEngine])
def test_remote_engine_mid_persist_crash_walks_back(engine_cls):
    job = make_job()
    engine = engine_cls(job)
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan("mid_persist", after=2))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    # v2 is torn in remote storage: some blobs landed, some did not.
    assert engine.remote.contains(("ckpt", 2, 0))
    assert not engine.remote.contains(("ckpt", 2, job.world_size - 1))
    job.fail_nodes({1})
    report = engine.restore({1})
    assert report.version == 1
    verify(job, reference)


@pytest.mark.parametrize("engine_cls", [SyncRemoteEngine, TwoPhaseEngine])
def test_remote_engine_refuses_when_no_complete_version(engine_cls):
    job = make_job()
    engine = engine_cls(job)
    engine.crash_injector = CrashInjector(CrashPlan("mid_persist"))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    job.fail_nodes({0})
    with pytest.raises(RecoveryError, match="no complete remote"):
        engine.restore({0})


def test_base2_post_snapshot_crash_persists_nothing():
    job = make_job()
    engine = TwoPhaseEngine(job)
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan("post_snapshot"))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    assert not engine.remote.contains(("ckpt", 2, 0))
    report = engine.restore(set())
    assert report.version == 1
    verify(job, reference)


# ---------------------------------------------------------------------------
# base3: torn replication broadcasts
# ---------------------------------------------------------------------------
def test_base3_post_snapshot_crash_walks_back():
    job = make_job()
    engine = GeminiReplicationEngine(job)
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan("post_snapshot"))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    # Snapshots landed on their own nodes but were never replicated; the
    # version is uncommitted even with zero machine losses.
    report = engine.restore(set())
    assert report.version == 1
    verify(job, reference)


def test_base3_mid_broadcast_crash_plus_failure_walks_back():
    job = make_job()
    engine = GeminiReplicationEngine(job)
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    engine.crash_injector = CrashInjector(CrashPlan("mid_broadcast"))
    with pytest.raises(InjectedCrash):
        engine.save()
    engine.crash_injector = None
    # Node 0's v2 snapshot exists only on node 0; losing node 0 must not
    # strand recovery on the torn v2.
    job.fail_nodes({0})
    report = engine.restore({0})
    assert report.version == 1
    verify(job, reference)


def test_base3_whole_group_loss_still_refuses():
    job = make_job()
    engine = GeminiReplicationEngine(job)
    engine.save()
    job.fail_nodes({0, 1})
    with pytest.raises(RecoveryError):
        engine.restore({0, 1})
