"""Tests for the chaos campaign driver: determinism, reporting, and —
critically — that deliberately reverting a recovery-path fix makes the
campaign's invariants fail (the campaign would have caught the bug)."""

import json

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign, run_episode
from repro.chaos import invariants
from repro.checkpoint.base import CheckpointEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.checkpoint.job import TrainingJob
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def test_same_seed_is_bit_for_bit_deterministic():
    config = ChaosConfig(episodes=6, seed=3)
    first = run_campaign(config)
    second = run_campaign(config)
    assert first.to_dict() == second.to_dict()


def test_different_seeds_diverge():
    a = run_campaign(ChaosConfig(episodes=4, seed=1))
    b = run_campaign(ChaosConfig(episodes=4, seed=2))
    assert a.to_dict() != b.to_dict()


def test_engines_round_robin():
    report = run_campaign(ChaosConfig(episodes=4, seed=0))
    assert [e.engine for e in report.episodes] == [
        "eccheck", "base1", "base2", "base3"
    ]


def test_report_is_json_serializable_with_matrix():
    report = run_campaign(ChaosConfig(episodes=4, seed=5))
    payload = json.loads(report.to_json())
    assert payload["config"]["seed"] == 5
    assert payload["total_recovery_cycles"] == len(report.cycles)
    for row in payload["outcome_matrix"].values():
        assert set(row) <= {"memory", "backup", "refused", "engine_error"}
    assert "VIOLATION" not in report.render() or report.violations


def test_single_episode_records_cycles():
    config = ChaosConfig(episodes=1, seed=0)
    result = run_episode("eccheck", 0, config)
    assert result.engine == "eccheck"
    for cycle in result.cycles:
        assert cycle["outcome"] in {"memory", "backup", "refused", "engine_error"}
        assert cycle["expected"] in {"memory", "backup", "refused"}


# ---------------------------------------------------------------------------
# Revert-detection: undo a fix, the campaign must notice
# ---------------------------------------------------------------------------
def test_campaign_catches_reverted_torn_version_walkback(monkeypatch):
    """Reverting the commit rule (treat every version as committed: the
    commit-record reader reads a missing record as an empty one instead of
    calling the version torn) makes ECCheck try to restore torn versions —
    the campaign must record invariant violations."""
    records = ECCheckEngine._records
    monkeypatch.setattr(
        ECCheckEngine,
        "_records",
        lambda self, version, nodes, store=None: records(self, version, nodes, store)
        or [(b"", 0)] * self.job.world_size,
    )
    report = run_campaign(ChaosConfig(episodes=8, seed=0, engines=("eccheck",)))
    assert report.violations


def test_campaign_catches_reverted_remote_walkback(monkeypatch):
    """Reverting base1/base2's torn-remote walk-back (always trust the
    newest version counter) must be flagged."""
    monkeypatch.setattr(
        CheckpointEngine,
        "_latest_complete_remote_version",
        lambda self: self.version,
    )
    report = run_campaign(
        ChaosConfig(episodes=8, seed=0, engines=("base1", "base2"))
    )
    assert report.violations


# ---------------------------------------------------------------------------
# The oracle module on hand-built states
# ---------------------------------------------------------------------------
def make_engine(seed=23):
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=1e-3,
        seed=seed,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=2, m=2))


def test_oracle_matches_engine_on_torn_version():
    job, engine = make_engine()
    engine.save()
    job.advance()
    engine.save()
    # Tear v2: drop one data chunk's packets and digests everywhere.
    plan = engine.placement
    groups = len(plan.data_group[0])
    for kind, idx, node in [("data", j, plan.data_nodes[j]) for j in range(plan.k)] + [
        ("parity", i, plan.parity_nodes[i]) for i in range(plan.m)
    ][: plan.m + plan.k - 1]:
        for r in range(groups):
            engine.host.delete(node, ("chunk", 2, kind, idx, r))
    kind_, version = invariants.expected_outcome(engine, set())
    assert (kind_, version) == ("memory", 1)
    report = engine.restore(set())
    assert report.version == 1


def test_oracle_prefers_backup_when_memory_gone():
    job, engine = make_engine()
    engine.save_remote_backup()
    job.advance()
    engine.save()
    failed = set(range(4))  # every node: nothing survives in memory
    kind, version = invariants.expected_outcome(engine, failed)
    assert (kind, version) == ("backup", 1)


def test_oracle_refuses_when_nothing_recoverable():
    job, engine = make_engine()
    engine.save()
    kind, version = invariants.expected_outcome(engine, set(range(4)))
    assert kind == "refused"
