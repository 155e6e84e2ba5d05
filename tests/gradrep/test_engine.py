"""Gradrep + hybrid engine behavior: anchor saves, per-iteration
replication over the trunk, replay-exact recovery, manager integration."""

import numpy as np
import pytest

from repro.errors import CheckpointError, RecoveryError
from repro.chaos.invariants import (
    check_redundancy,
    check_restored_states,
    expected_recovery,
)
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig
from repro.core.registry import build_engine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import tensor_items
from repro.tensors.tensor import GPU


def make_setup(name, interval=4, seed=13):
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
    manager = CheckpointManager(job, engine, interval=interval)
    return job, engine, manager


def run_iterations(job, manager, n, states=None):
    for _ in range(n):
        job.advance()
        if states is not None:
            states[job.iteration] = job.snapshot_states()
        manager.step()


@pytest.mark.parametrize("name", ["gradrep", "hybrid"])
def test_replicate_before_base_refuses(name):
    _, engine, _ = make_setup(name)
    assert not engine.can_replicate()
    with pytest.raises(CheckpointError):
        engine.replicate_iteration()


@pytest.mark.parametrize("name", ["gradrep", "hybrid"])
def test_manager_replicates_between_checkpoints(name):
    job, engine, manager = make_setup(name, interval=4)
    run_iterations(job, manager, 7)
    # Saves land at iterations 1 and 5; the other 5 steps replicate.
    # Each save rebases the log, so only entries 6, 7 remain in the tail.
    assert manager.stats.checkpoints == 2
    assert manager.stats.replications == 5
    assert engine.log.depth() == 2
    assert manager.stats.total_replicate_s > 0
    assert manager.stats.bytes_replicated > 0


@pytest.mark.parametrize("name", ["gradrep", "hybrid"])
def test_replication_rides_the_trunk_fraction(name):
    job, engine, manager = make_setup(name, interval=3)
    run_iterations(job, manager, 5)
    report = manager.stats.replicate_reports[-1]
    # Replication claims 1 of (3 + 1) weight units on the trunk.
    assert report.trunk_fraction == pytest.approx(0.25)
    assert report.log_depth == engine.log.depth()


@pytest.mark.parametrize("name", ["gradrep", "hybrid"])
def test_recovery_replays_to_the_logged_iteration(name):
    job, engine, manager = make_setup(name, interval=4)
    states = {}
    run_iterations(job, manager, 7, states)  # save @5, entries @6, @7
    at = job.iteration
    pred = expected_recovery(engine, {1})
    assert pred["replayed"] == 2
    report = manager.on_failure({1})
    assert report.replayed_iterations == 2
    assert job.iteration == at  # replay recovered every logged iteration
    assert manager.stats.iterations_lost == 0
    assert check_restored_states(job, states[job.iteration]) == []
    assert check_redundancy(engine, report.version, False) == []


@pytest.mark.parametrize("name", ["gradrep", "hybrid"])
def test_recovery_with_empty_tail_resumes_at_the_anchor(name):
    job, engine, manager = make_setup(name, interval=4)
    states = {}
    run_iterations(job, manager, 5, states)  # saves @1 and @5, no tail
    report = manager.on_failure({2})
    assert report.replayed_iterations == 0
    assert job.iteration == 5
    assert check_restored_states(job, states[5]) == []


@pytest.mark.parametrize("name", ["eccheck", "gradrep", "hybrid"])
@pytest.mark.parametrize("iterations", [5, 7], ids=["no_tail", "replayed_tail"])
def test_in_memory_restore_leaves_every_tensor_on_the_gpu(name, iterations):
    """One convention for all three engines: a restore puts job state back
    where training reads it, whichever leg (EC decode, anchor fetch, log
    replay) rebuilt the tensor."""
    job, engine, manager = make_setup(name, interval=4)
    run_iterations(job, manager, iterations)
    manager.on_failure({1})
    devices = {
        tensor.device
        for worker in range(job.world_size)
        for _, tensor in tensor_items(job.state_of(worker))
    }
    assert devices == {GPU}


@pytest.mark.parametrize("name", ["gradrep", "hybrid"])
def test_stream_continues_after_recovery(name):
    job, engine, manager = make_setup(name, interval=4)
    states = {}
    run_iterations(job, manager, 6, states)
    manager.on_failure({2})
    run_iterations(job, manager, 3, states)
    at = job.iteration
    report = manager.on_failure({3})
    assert job.iteration == at
    assert check_restored_states(job, states[at]) == []
    assert check_redundancy(engine, report.version, False) == []


def test_gradrep_refuses_when_home_and_buddy_both_fail():
    job, engine, manager = make_setup("gradrep", interval=3)
    run_iterations(job, manager, 3)
    # Node 0's anchor packets live on 0 (home) and 2 (cross-rack buddy).
    pred = expected_recovery(engine, {0, 2})
    assert pred["outcome"] == "refused"
    with pytest.raises(RecoveryError):
        manager.on_failure({0, 2})


def test_hybrid_survives_home_plus_buddy_via_erasure_code():
    """The hybrid's whole point: the EC base tolerates any m=2 node loss
    even when the anchor-replication pattern would refuse.  Losing a
    home+buddy pair also wipes both copies of every gradient entry those
    nodes held, so the tail is gone — recovery falls back to the base
    checkpoint alone, trading replay for survival."""
    job, engine, manager = make_setup("hybrid", interval=3)
    states = {}
    run_iterations(job, manager, 6, states)  # saves @1, @4; entries @5, @6
    pred = expected_recovery(engine, {0, 2})
    assert pred["outcome"] == "memory"
    assert pred["replayed"] == 0
    report = manager.on_failure({0, 2})
    assert report.replayed_iterations == 0
    assert job.iteration == 4
    assert manager.stats.iterations_lost == 2
    assert check_restored_states(job, states[4]) == []


def test_hybrid_recovery_time_includes_replay():
    job_a, _, manager_a = make_setup("hybrid", interval=4, seed=21)
    job_b, _, manager_b = make_setup("eccheck", interval=4, seed=21)
    states_a = {}
    run_iterations(job_a, manager_a, 6, states_a)
    run_iterations(job_b, manager_b, 6)
    report_a = manager_a.on_failure({1})
    report_b = manager_b.on_failure({1})
    assert report_a.version == report_b.version
    # Hybrid replays the logged tail on top of the same EC restore: it
    # must cost more than the bare restore but lose no iterations.
    assert report_a.recovery_time > report_b.recovery_time
    assert manager_a.stats.iterations_lost == 0
    assert manager_b.stats.iterations_lost == 1


def test_canonical_packets_stable_across_ec_restore():
    """EC restore can reorder state-dict keys; the stream packets must be
    a function of the values, or replayed deltas XOR against the wrong
    byte layout (regression for the canonical-packetisation bug)."""
    job, engine, manager = make_setup("hybrid", interval=4)
    run_iterations(job, manager, 4)
    base = {w: p.copy() for w, p in engine._stream_packets.items()}
    manager.on_failure({1})
    rebuilt = engine._build_packets()
    for worker, ckpt in rebuilt.items():
        assert np.array_equal(ckpt.packet.payload, base[worker]), worker


def test_save_report_carries_engine_name():
    for name in ("gradrep", "hybrid"):
        job, engine, manager = make_setup(name, interval=2)
        run_iterations(job, manager, 2)
        assert manager.stats.save_reports[-1].engine == name
