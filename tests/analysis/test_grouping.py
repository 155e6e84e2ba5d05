"""Tests for the optimal-group-size planner and the rack-aware layouts."""

from itertools import combinations

import pytest

from repro.analysis.grouping import (
    plan_grouping,
    rack_aligned_groups,
    rack_failure_survivable,
    rack_transversal_groups,
)
from repro.errors import CheckpointError, ReproError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.state_dict import state_dicts_equal


# ---------------------------------------------------------------------------
# plan_grouping
# ---------------------------------------------------------------------------
def test_plan_meets_target_rate():
    plan = plan_grouping(num_nodes=32, p=0.05, target_rate=0.999)
    assert plan.cluster_recovery_rate >= 0.999
    assert plan.group_size * plan.num_groups == 32
    assert plan.k + plan.m == plan.group_size


def test_plan_prefers_cheapest_parity():
    """A loose target should be met with m=1 somewhere."""
    plan = plan_grouping(num_nodes=16, p=0.001, target_rate=0.99)
    assert plan.per_device_comm_units == 1


def test_plan_spends_more_parity_when_needed():
    cheap = plan_grouping(num_nodes=16, p=0.01, target_rate=0.9)
    strict = plan_grouping(num_nodes=16, p=0.1, target_rate=0.9999)
    assert strict.per_device_comm_units > cheap.per_device_comm_units


def test_plan_unreachable_target_raises():
    with pytest.raises(ReproError):
        plan_grouping(num_nodes=4, p=0.9, target_rate=0.999999)
    with pytest.raises(ReproError):
        plan_grouping(num_nodes=4, p=0.1, target_rate=0.0)


@pytest.mark.parametrize(
    "num_nodes, target, shape",
    [(8, 0.99, (2, 1, 1)), (16, 0.999, (4, 1, 3))],
    ids=["8-nodes", "16-nodes"],
)
def test_planned_group_recovers_from_every_m_node_failure(num_nodes, target, shape):
    """One planned group, run by the flat engine at the planned (k, m),
    restores every worker bit-exactly from any ``m`` lost nodes."""
    plan = plan_grouping(num_nodes=num_nodes, p=0.05, target_rate=target)
    assert (plan.group_size, plan.k, plan.m) == shape
    for failed in combinations(range(plan.group_size), plan.m):
        job = TrainingJob.create(
            "gpt2-h1024-L16",
            ClusterSpec(num_nodes=plan.group_size, gpus_per_node=1),
            strategy=ParallelismSpec(pipeline_parallel=plan.group_size),
            scale=1e-3,
            seed=5,
        )
        engine = ECCheckEngine(job, ECCheckConfig(k=plan.k, m=plan.m))
        engine.save()
        reference = job.snapshot_states()
        job.advance()
        job.fail_nodes(set(failed))
        engine.restore(set(failed))
        for worker in range(job.world_size):
            assert state_dicts_equal(job.state_of(worker), reference[worker]), (
                failed, worker,
            )


# ---------------------------------------------------------------------------
# Rack-aware group construction
# ---------------------------------------------------------------------------
def test_aligned_groups_follow_node_order():
    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    assert rack_aligned_groups(cluster, 2) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    with pytest.raises(CheckpointError):
        rack_aligned_groups(cluster, 3)


def test_transversal_groups_take_one_node_per_rack():
    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    groups = rack_transversal_groups(cluster, 2)
    assert groups == [[0, 4], [1, 5], [2, 6], [3, 7]]
    for nodes in groups:
        racks = {cluster.rack_of(n) for n in nodes}
        assert len(racks) == len(nodes)  # every member in a distinct rack


def test_transversal_requires_rack_structure_and_matching_size():
    with pytest.raises(CheckpointError):
        rack_transversal_groups(ClusterSpec(8, 1), 2)
    with pytest.raises(CheckpointError):
        rack_transversal_groups(ClusterSpec(8, 1, nodes_per_rack=4), 4)


def test_rack_failure_survivable_predicate():
    groups = [[0, 4], [1, 5]]
    assert rack_failure_survivable(groups, {0, 1}, m=1)
    assert not rack_failure_survivable(groups, {0, 4}, m=1)


def test_rack_aware_ablation_table_is_pinned():
    """The ablation's survival rates (seed 0, 4000 trials), exactly."""
    from repro.bench.experiments import ablation_rack_aware_grouping

    assert ablation_rack_aware_grouping().rows == [
        {"layout": "aligned", "survival_rate": 0.904},
        {"layout": "transversal", "survival_rate": 0.99025},
    ]
