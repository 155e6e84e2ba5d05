"""Tests for the elastic cluster controller: degraded regrouping, floor
refusal, spare joins with background repair, and redundancy accounting."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.chaos.invariants import (
    check_degraded_recoverable,
    check_eccheck_redundancy,
    check_restored_states,
    expected_outcome,
)
from repro.checkpoint.sync_remote import SyncRemoteEngine
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.elastic import ElasticClusterController
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.spares import SparePool


def make_controller(seed=7, pool_size=4, floor=1, median_delay_s=60.0):
    job = TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=seed,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2, encode_threads=2))
    manager = CheckpointManager(job, engine, interval=1)
    pool = SparePool(size=pool_size, median_delay_s=median_delay_s, sigma=0.3)
    controller = ElasticClusterController(
        manager,
        pool,
        redundancy_floor=floor,
        rng=np.random.default_rng(seed),
    )
    return job, engine, manager, controller


def checkpoint(job, manager):
    job.advance()
    manager.step()
    return job.snapshot_states()


def test_rejects_engine_without_reconfigure():
    job = TrainingJob.create(
        model="gpt2-h1024-L16",
        cluster=ClusterSpec(num_nodes=4, gpus_per_node=2),
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
    )
    manager = CheckpointManager(job, SyncRemoteEngine(job), interval=1)
    with pytest.raises(CheckpointError):
        ElasticClusterController(manager, SparePool(size=1))


def test_rejects_negative_floor():
    job, engine, manager, _ = make_controller()
    with pytest.raises(CheckpointError):
        ElasticClusterController(manager, SparePool(size=1), redundancy_floor=-1)


def test_failure_regroups_degraded_and_saves_stay_recoverable():
    job, engine, manager, controller = make_controller()
    states = checkpoint(job, manager)
    job.fail_nodes({1})
    report = controller.on_failure({1}, 100.0)
    assert report.version == 1
    assert not check_restored_states(job, states)
    assert controller.degraded and controller.can_checkpoint
    # 3 survivors of world 8, current m=2 -> shrink to (1, 2).
    assert (engine.config.k, engine.config.m) == (1, 2)
    assert engine.active_nodes == [0, 2, 3]
    assert manager.degraded
    # A degraded save must survive any m'=2 further losses.
    checkpoint(job, manager)
    assert check_degraded_recoverable(engine, engine.version) == []


def test_blocked_below_redundancy_floor():
    job, engine, manager, controller = make_controller(floor=2)
    checkpoint(job, manager)
    job.fail_nodes({1, 3})
    controller.on_failure({1, 3}, 50.0)
    # 2 survivors cannot keep m' >= 2: checkpointing refuses.
    assert controller.checkpointing_blocked
    assert not controller.can_checkpoint


def test_spare_join_repairs_back_to_full_shape():
    job, engine, manager, controller = make_controller()
    checkpoint(job, manager)
    job.fail_nodes({1})
    controller.on_failure({1}, 100.0)
    states = checkpoint(job, manager)
    version = engine.version
    joined = controller.poll_spares(1e9)
    assert joined == [1]
    assert not controller.degraded
    assert (engine.config.k, engine.config.m) == (2, 2)
    # The repaired version is fully redundant under its new placement...
    assert check_eccheck_redundancy(engine, version) == []
    # ...and the degraded window closed with a positive duration.
    assert not manager.degraded
    (ttfr,) = manager.time_to_full_redundancy()
    assert ttfr > 0
    # A full wipe-restart restore lands on the repaired version bit-exact.
    job.fail_nodes(set(range(4)))
    assert expected_outcome(engine, set())[1] == version
    report = manager.on_failure(set())
    assert report.version == version
    assert not check_restored_states(job, states)


def test_replacement_gets_fresh_node_id():
    job, engine, manager, controller = make_controller()
    checkpoint(job, manager)
    job.fail_nodes({2})
    controller.on_failure({2}, 10.0)
    controller.poll_spares(1e9)
    assert job.node_id_of(2) == 4  # ids 0-3 are taken; 2 is retired
    # One join, one replacement: the other ranks keep their machines.
    assert [job.node_id_of(r) for r in range(4)] == [0, 1, 4, 3]
    assert manager.stats.replacements == 1


def test_poll_spares_restocks_for_already_live_rank():
    job, engine, manager, controller = make_controller(pool_size=2)
    checkpoint(job, manager)
    job.fail_nodes({1})
    controller.on_failure({1}, 10.0)
    # Two requests end up pending for rank 1 (e.g. operator double-filed).
    controller.spare_pool.request(1, 10.0, controller.rng)
    before = controller.spare_pool.remaining
    joined = controller.poll_spares(1e9)
    assert joined == [1]
    # The duplicate went back to the pool instead of double-joining.
    assert controller.spare_pool.remaining == before + 1


def test_crashed_join_requeues_remaining_spares():
    """When the first join of a batch crashes mid-repair, the rest of the
    batch's provisioned machines must go back to the pending queue (they
    are still racked) and be admitted by the next poll — not lost, and
    not double-dispensed."""
    from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash

    job, engine, manager, controller = make_controller(pool_size=4)
    states = checkpoint(job, manager)
    version = engine.version
    job.fail_nodes({1, 3})
    controller.on_failure({1, 3}, 10.0)
    pool = controller.spare_pool
    assert len(pool.pending) == 2
    dispensed_before = pool.dispensed
    first = min(pool.pending, key=lambda r: r.ready_at).rank
    (second,) = {1, 3} - {first}

    injector = CrashInjector(CrashPlan(point="post_derive"))
    with pytest.raises(InjectedCrash):
        controller.poll_spares(1e9, repair_crash_injector=injector)

    # The first rank joined (its repair is the one that crashed); the
    # second rank's provisioned machine went back to the pending queue.
    assert first not in controller.membership.dead
    assert second in controller.membership.dead
    assert [r.rank for r in pool.pending] == [second]
    assert pool.dispensed == dispensed_before  # requeue, not re-dispense
    assert controller.repair_ledger is not None
    assert not controller.repair_ledger.committed

    # The next poll admits the requeued machine and the repair commits.
    assert controller.poll_spares(1e9) == [second]
    assert not controller.degraded
    assert not manager.degraded
    assert check_eccheck_redundancy(engine, version) == []
    job.fail_nodes(set(range(4)))
    report = manager.on_failure(set())
    assert report.version == version
    assert not check_restored_states(job, states)


def test_spare_refused_when_pool_exhausted():
    job, engine, manager, controller = make_controller(pool_size=0)
    checkpoint(job, manager)
    job.fail_nodes({1})
    controller.on_failure({1}, 10.0)
    # The request was refused: nothing pending, nothing to dispense.
    assert controller.spare_pool.pending == []
    assert controller.spare_pool.remaining == 0
    assert controller.poll_spares(1e9) == []
    # Operator intervention: a manual join still works.
    controller.on_spare_join(1, 500.0)
    assert not controller.degraded


def test_adaptation_reencodes_latest_version():
    job, engine, manager, controller = make_controller()
    # A clustered failure history pushes the target parity up to 3.
    controller.policy.repair_window_s = 300.0
    controller.policy.observe_failure(0.0)
    controller.policy.observe_failure(100.0)
    states = checkpoint(job, manager)
    adopted = controller.maybe_adapt(200.0)
    assert adopted == (1, 3)
    assert (controller.full_k, controller.full_m) == (1, 3)
    assert (engine.config.k, engine.config.m) == (1, 3)
    # The re-encode into the new shape is itself fully redundant and
    # restorable bit-exact.
    assert check_eccheck_redundancy(engine, 1) == []
    job.fail_nodes(set(range(4)))
    report = manager.on_failure(set())
    assert report.version == 1
    assert not check_restored_states(job, states)


def test_maybe_adapt_noop_while_degraded():
    job, engine, manager, controller = make_controller()
    controller.policy.repair_window_s = 300.0
    controller.policy.observe_failure(0.0)
    controller.policy.observe_failure(100.0)
    checkpoint(job, manager)
    job.fail_nodes({1})
    controller.on_failure({1}, 150.0)
    assert controller.maybe_adapt(200.0) is None
