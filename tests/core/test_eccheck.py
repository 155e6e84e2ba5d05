"""End-to-end tests for the ECCheck engine: bit-exact recovery under every
failure pattern up to m nodes, timing shapes, and the remote-backup
fallback."""

import itertools

import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


def make_job(num_nodes=4, gpus=4, tp=4, pp=4, scale=2e-3, seed=11):
    return TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=num_nodes, gpus_per_node=gpus),
        strategy=ParallelismSpec(tensor_parallel=tp, pipeline_parallel=pp),
        scale=scale,
        seed=seed,
    )


def verify_full_restore(job, reference):
    for worker, expected in reference.items():
        assert state_dicts_equal(job.state_of(worker), expected), worker


@pytest.fixture
def job():
    return make_job()


@pytest.fixture
def engine(job):
    return ECCheckEngine(job, ECCheckConfig(k=2, m=2))


# ---------------------------------------------------------------------------
# initialize
# ---------------------------------------------------------------------------
def test_initialize_places_testbed(engine):
    assert engine.placement.data_nodes == [0, 2]
    assert engine.placement.parity_nodes == [1, 3]
    assert engine.code.params.k == 2
    assert engine.reduction_plan.total_reductions == 16


def test_initialize_rejects_mismatched_code(job):
    with pytest.raises(CheckpointError):
        ECCheckEngine(job, ECCheckConfig(k=3, m=2))


def test_initialize_rejects_k_not_dividing_world():
    job = make_job(num_nodes=4, gpus=1, tp=1, pp=4)
    with pytest.raises(CheckpointError):
        ECCheckEngine(job, ECCheckConfig(k=3, m=1))  # W=4 not divisible by 3


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------
def test_save_places_chunks_and_metadata(engine, job):
    engine.save()
    groups = len(engine.placement.data_group[0])
    for r in range(groups):
        assert engine.host.contains(0, ("chunk", 1, "data", 0, r))
        assert engine.host.contains(2, ("chunk", 1, "data", 1, r))
        assert engine.host.contains(1, ("chunk", 1, "parity", 0, r))
        assert engine.host.contains(3, ("chunk", 1, "parity", 1, r))
    # Metadata broadcast everywhere.
    for node in range(4):
        for worker in range(16):
            assert engine.host.contains(node, ("meta", 1, worker))


def test_save_stall_is_small_fraction(engine):
    report = engine.save()
    assert report.stall_time < 0.2 * report.checkpoint_time
    assert report.breakdown["step1_decompose_dtoh"] == report.stall_time
    assert report.breakdown["step2_metadata_broadcast"] < 0.01
    assert report.breakdown["step3_encode_xor_p2p"] > 0


def test_save_comm_volume_is_m_times_model(engine, job):
    """Sec. V-F: total checkpoint communication == m * total model bytes."""
    report = engine.save()
    packet = engine.logical_packet_bytes()
    expected = engine.config.m * packet * job.world_size
    assert report.bytes_inter_node == pytest.approx(expected, rel=0.01)


def test_save_about_1_6x_base3(job):
    """Fig. 10's observation: ECCheck ~1.6x base3 checkpoint time."""
    ec = ECCheckEngine(job, ECCheckConfig(k=2, m=2)).save()
    b3 = GeminiReplicationEngine(job).save()
    ratio = ec.checkpoint_time / b3.checkpoint_time
    assert 1.0 < ratio < 3.0, ratio


# ---------------------------------------------------------------------------
# restore — workflow 1 (all data nodes survive)
# ---------------------------------------------------------------------------
def test_recover_parity_node_failures(engine, job):
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    job.fail_nodes({1, 3})  # both parity nodes
    report = engine.restore({1, 3})
    verify_full_restore(job, reference)
    assert "fetch_packets" in report.breakdown
    assert report.restore_redundancy_time > 0
    # Parity chunks re-encoded onto the replacement nodes.
    assert engine.host.contains(1, ("chunk", 1, "parity", 0, 0))
    assert engine.host.contains(3, ("chunk", 1, "parity", 1, 0))


# ---------------------------------------------------------------------------
# restore — workflow 2 (data node lost, decode path)
# ---------------------------------------------------------------------------
def test_recover_data_node_failure(engine, job):
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    job.fail_nodes({0})  # data node 0
    report = engine.restore({0})
    verify_full_restore(job, reference)
    assert report.breakdown["decode"] > 0


@pytest.mark.parametrize(
    "failed", [frozenset(p) for p in itertools.combinations(range(4), 2)]
)
def test_recover_every_two_node_failure_pattern(failed):
    """The headline property: ANY m=2 concurrent node failures recover,
    including patterns that kill base3 (Fig. 13b)."""
    job = make_job(scale=1e-3)
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    engine.save()
    reference = job.snapshot_states()
    job.advance(2)
    job.fail_nodes(set(failed))
    engine.restore(set(failed))
    verify_full_restore(job, reference)


def test_restore_reestablishes_fault_tolerance(engine, job):
    """After recovering one 2-failure, a different 2-failure must also
    recover (chunks were redistributed)."""
    engine.save()
    reference = job.snapshot_states()
    job.fail_nodes({0, 1})
    engine.restore({0, 1})
    job.fail_nodes({2, 3})
    engine.restore({2, 3})
    verify_full_restore(job, reference)


def test_restore_latest_of_multiple_versions(engine, job):
    engine.save()
    job.advance()
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    job.fail_nodes({2})
    engine.restore({2})
    verify_full_restore(job, reference)
    assert job.state_of(0)["iteration"] == 1  # checkpointed at iteration 1


# ---------------------------------------------------------------------------
# catastrophic failures and the remote backup (step 4)
# ---------------------------------------------------------------------------
def test_more_than_m_failures_without_backup_raises(engine, job):
    engine.save()
    job.fail_nodes({0, 1, 2})
    with pytest.raises(RecoveryError):
        engine.restore({0, 1, 2})


def test_remote_backup_rescues_catastrophic_failure(job):
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    backup_report = engine.save_remote_backup()
    assert backup_report.bytes_to_remote == job.total_logical_bytes()
    reference = job.snapshot_states()
    job.advance()
    engine.save()  # newer in-memory checkpoint
    job.fail_nodes({0, 1, 2})  # > m failures: in-memory unrecoverable
    report = engine.restore({0, 1, 2})
    # Falls back to the (older) remote backup.
    verify_full_restore(job, reference)
    assert report.bytes_from_remote > 0


def test_restore_without_any_save_raises(engine, job):
    job.fail_nodes({0})
    with pytest.raises(CheckpointError):
        engine.restore({0})


# ---------------------------------------------------------------------------
# other cluster shapes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("k,m,gpus", [(3, 1, 3), (1, 3, 2), (2, 2, 2)])
def test_alternative_code_shapes_round_trip(k, m, gpus):
    job = make_job(num_nodes=4, gpus=gpus, tp=1, pp=4 * gpus, scale=1e-3)
    engine = ECCheckEngine(job, ECCheckConfig(k=k, m=m))
    engine.save()
    reference = job.snapshot_states()
    job.advance()
    failures = set(range(m)) if m else set()
    if failures:
        job.fail_nodes(failures)
        engine.restore(failures)
    verify_full_restore(job, reference)


def test_eight_node_cluster_k4_m4():
    job = make_job(num_nodes=8, gpus=1, tp=1, pp=8, scale=1e-3)
    engine = ECCheckEngine(job, ECCheckConfig(k=4, m=4))
    engine.save()
    reference = job.snapshot_states()
    job.fail_nodes({0, 2, 5, 7})
    engine.restore({0, 2, 5, 7})
    verify_full_restore(job, reference)
