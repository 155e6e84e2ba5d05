"""The hot paths allocate without reference cycles.

Every object a save, a restore, a training step or a snapshot builds must
be freed by reference counting when the call returns.  A cycle (a nested
function that calls itself, a stored exception whose traceback reaches the
frame that stores it) keeps everything it reaches alive until the cyclic
collector runs; under the fleet's paused collector that is the episode's
peak memory, and with the collector on it moves the collector's passes
into whichever call allocates next.

Each check pauses the collector, runs the call once on a warmed-up
testbed and asserts that a full collection then finds nothing.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.chaos.campaign import ChaosConfig, run_episode
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_episode
from repro.chaos.harness import build_testbed
from repro.chaos.tier_campaign import TierChaosConfig, run_tier_episode
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.fleet.campaign import FleetConfig, run_fleet_episode
from repro.tensors.state_dict import flatten_state_dict, map_tensors, state_dicts_equal
from repro.tensors.tensor import SimTensor


@pytest.fixture
def paused_gc():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def cyclic_garbage(call) -> int:
    """How many unreachable objects a collection finds after ``call()``."""
    gc.collect()
    call()
    return gc.collect()


@pytest.fixture(scope="module")
def testbed():
    """A warmed-up 4x2 testbed whose every save also demotes a version."""
    job, engine = build_testbed("eccheck", "gpt2-h1024-L16", 5e-5, 0)
    policy = TierPolicy(memory_versions=1, disk_versions=2)
    manager = CheckpointManager(job, engine, interval=1, tier_policy=policy)
    for _ in range(3):
        job.advance()
        manager.step()
    job.advance(dirty_tensor_fraction=0.1)
    engine.save_incremental()
    engine.save_remote_backup()
    return job, engine, manager


def fail_and_restore(job, manager):
    job.fail_nodes({1})
    manager.on_failure({1})


def states_equal(job):
    reference = job.snapshot_states()
    return lambda: [state_dicts_equal(job.state_of(w), reference[w]) for w in reference]


HOT_PATHS = {
    "advance": lambda job, engine, manager: job.advance,
    "manager_step": lambda job, engine, manager: manager.step,
    "save_incremental": lambda job, engine, manager: engine.save_incremental,
    "restore": lambda job, engine, manager: lambda: fail_and_restore(job, manager),
    "snapshot_states": lambda job, engine, manager: job.snapshot_states,
    "save_remote_backup": lambda job, engine, manager: engine.save_remote_backup,
    "state_dicts_equal": lambda job, engine, manager: states_equal(job),
}


@pytest.mark.parametrize("name", list(HOT_PATHS))
def test_a_hot_path_leaves_no_cyclic_garbage(testbed, paused_gc, name):
    call = HOT_PATHS[name](*testbed)
    assert cyclic_garbage(call) == 0


@pytest.mark.parametrize(
    "run",
    [
        # Episode 0 of each ends in a refused restore: the stored
        # RecoveryError must not keep the episode's frames alive.
        lambda: run_episode("eccheck", 0, ChaosConfig(seed=17)),
        lambda: run_tier_episode(0, TierChaosConfig(seed=17)),
        lambda: run_elastic_episode(1, ElasticConfig(seed=17, max_rounds=2)),
    ],
    ids=["chaos", "tier", "elastic"],
)
def test_a_campaign_episode_leaves_no_cyclic_garbage(paused_gc, run):
    assert cyclic_garbage(run) == 0


def test_a_fleet_episode_end_collect_reclaims_nothing(paused_gc):
    collected: list[int] = []

    def on_gc(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        run_fleet_episode(0, FleetConfig(jobs=4, seed=0))
    finally:
        gc.callbacks.remove(on_gc)
    assert collected == [0]  # the episode's own collect, at its end


def test_a_map_tensors_copy_keeps_key_order_and_structure():
    tensor = SimTensor(np.arange(6, dtype=np.float32))
    rng = [1, 2, 3]
    state = {
        "z": {"b": tensor, "a": {"y": 1, "x": SimTensor(np.zeros(2, np.uint8))}},
        "rng": rng,
        "m": 3,
    }
    copy = map_tensors(state, lambda t: t.to(t.device))
    assert list(flatten_state_dict(copy)) == list(flatten_state_dict(state))
    assert list(copy) == ["z", "rng", "m"] and list(copy["z"]["a"]) == ["y", "x"]
    assert state_dicts_equal(copy, state)
    assert copy["z"]["b"] is not tensor and copy["rng"] is rng  # leaves are shared
    assert copy["z"] is not state["z"]
