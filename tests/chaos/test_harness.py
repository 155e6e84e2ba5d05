"""The campaign kernel's parts, one at a time — and the one judge under
all five scenarios.

The judge's pure table lives in ``test_differential.py``; this suite
covers the bookkeeping around it (commit ledger, crash arming, the
report serializer) and closes with the mutation test that proves every
scenario really routes its recoveries through the shared judge: sabotage
``CheckpointManager.on_failure`` once, and all five campaigns must flag
it the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign
from repro.chaos.harness import (
    CampaignReport,
    CommitLedger,
    EpisodeRecord,
    build_testbed,
    crash_next_save,
)
from repro.chaos.hybrid_campaign import HybridChaosConfig, run_hybrid_campaign
from repro.chaos.injection import CrashPlan
from repro.chaos.tier_campaign import TierChaosConfig, run_tier_campaign
from repro.checkpoint.manager import CheckpointManager
from repro.fleet import FleetConfig, FleetReport, run_fleet_episode


def managed_testbed(**manager_kwargs):
    job, engine = build_testbed("eccheck", "gpt2-h1024-L16", 5e-5, seed=3)
    return job, engine, CheckpointManager(job, engine, interval=1, **manager_kwargs)


def save(job, manager) -> None:
    job.advance()
    manager.step()


# ---------------------------------------------------------------------------
# Commit ledger
# ---------------------------------------------------------------------------
class TestCommitLedger:
    def test_drain_records_each_commit_once_with_its_iteration(self):
        job, engine, manager = managed_testbed()
        ledger = CommitLedger(manager)
        save(job, manager)
        assert [r.version for r in ledger.drain()] == [1]
        assert ledger.drain() == []
        save(job, manager)
        ledger.drain()
        assert ledger.iteration == {1: 1, 2: 2}
        assert set(ledger.states) == {1, 2}
        # The snapshot is the committed bytes, not a live view of the job.
        job.advance()
        assert ledger.states[2][0]["iteration"] == 2

    def test_window_keeps_only_the_newest_versions(self):
        job, engine, manager = managed_testbed()
        ledger = CommitLedger(manager, window=2)
        for _ in range(4):
            save(job, manager)
            ledger.drain()
        assert sorted(ledger.states) == sorted(ledger.iteration) == [3, 4]

    def test_backups_are_versions_too_unless_told_otherwise(self):
        job, engine, manager = managed_testbed(remote_backup_every=1)
        both = CommitLedger(manager)
        saves_only = CommitLedger(manager, backups=False)
        save(job, manager)  # v1 = the save, v2 = its remote backup
        assert [r.version for r in both.drain()] == [1, 2]
        assert [r.version for r in saves_only.drain()] == [1]
        save(job, manager)  # v3 and v4: the backup in between stays skipped
        assert [r.version for r in both.drain()] == [3, 4]
        assert [r.version for r in saves_only.drain()] == [3]
        assert sorted(saves_only.iteration) == [1, 3]

    def test_snapshots_can_be_left_to_the_scenario(self):
        job, engine, manager = managed_testbed()
        ledger = CommitLedger(manager, snapshots=False)
        save(job, manager)
        ledger.drain()
        assert ledger.iteration == {1: 1} and ledger.states == {}

    def test_torn_set_is_the_scenarios_to_fill(self):
        job, engine, manager = managed_testbed()
        ledger = CommitLedger(manager)
        job.advance()
        plan = CrashPlan(point=engine.crash_points[0])
        assert crash_next_save(engine, plan, manager.step)
        ledger.torn.add(engine.version)
        assert ledger.drain() == []  # a torn version never commits
        assert ledger.torn == {1} and ledger.states == {}


# ---------------------------------------------------------------------------
# crash_next_save
# ---------------------------------------------------------------------------
class TestCrashNextSave:
    def test_fires_and_disarms(self):
        job, engine, manager = managed_testbed()
        job.advance()
        plan = CrashPlan(point=engine.crash_points[0])
        assert crash_next_save(engine, plan, manager.step) is True
        assert engine.crash_injector is None
        assert manager.stats.checkpoints == 0

    def test_plan_beyond_the_points_hits_completes_the_save(self):
        job, engine, manager = managed_testbed()
        job.advance()
        plan = CrashPlan(point=engine.crash_points[0], after=10_000)
        assert crash_next_save(engine, plan, manager.step) is False
        assert engine.crash_injector is None
        assert manager.stats.checkpoints == 1

    def test_foreign_exception_propagates_but_still_disarms(self):
        job, engine, manager = managed_testbed()

        def broken_step():
            raise KeyError("not an injected crash")

        with pytest.raises(KeyError):
            crash_next_save(
                engine, CrashPlan(point=engine.crash_points[0]), broken_step
            )
        assert engine.crash_injector is None


# ---------------------------------------------------------------------------
# The serializer
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DemoConfig:
    episodes: int = 2
    engines: tuple[str, ...] = ("a", "b")
    secret_knob: float = 0.5
    timeline: bool = True
    timeline_period_s: float = 30.0

    REPORTED: ClassVar[tuple[str, ...]] = ("episodes", "engines")


@dataclass
class DemoRecord(EpisodeRecord):
    extra: dict = field(default_factory=dict)


class DemoReport(CampaignReport):
    def summary(self) -> dict:
        return {"total": len(self.cycles)}

    def render_lines(self) -> list[str]:
        return [f"demo: {len(self.episodes)} episodes"]


class TestSerializer:
    def make(self, **record_kwargs) -> DemoReport:
        plain = DemoRecord(episode=0, cycles=[{"outcome": "memory"}])
        rich = DemoRecord(episode=1, violations=["boom"], **record_kwargs)
        return DemoReport(config=DemoConfig(), episodes=[plain, rich])

    def test_config_section_holds_exactly_the_reported_fields(self):
        config = self.make().to_dict()["config"]
        assert config == {"episodes": 2, "engines": ["a", "b"]}

    def test_none_sections_are_omitted_and_set_ones_kept(self):
        report = self.make(timeline={"samples": 1}, extra={"k": 1})
        plain, rich = report.to_dict()["episodes"]
        assert set(plain) == {"episode", "cycles", "violations", "extra"}
        assert set(rich) == set(plain) | {"timeline"}
        assert "engine" not in plain and "trace_summary" not in rich

    def test_summary_violations_and_render(self):
        report = self.make()
        payload = report.to_dict()
        assert payload["total"] == 1
        assert payload["violations"] == ["episode 1: boom"]
        assert report.render() == "demo: 2 episodes\nVIOLATION: episode 1: boom"

    def test_provenance_is_the_only_stamped_difference(self):
        report = self.make()
        bare = json.loads(report.to_json(provenance=False))
        stamped = json.loads(report.to_json())
        assert "provenance" not in bare
        assert stamped.pop("provenance")["git_sha"]
        assert stamped == bare == report.to_dict()


# ---------------------------------------------------------------------------
# One judge under five scenarios
# ---------------------------------------------------------------------------
def fleet_episode_with_a_recovery() -> FleetReport:
    # Episode 2 of this mix is the first in which a domain failure hits
    # a tenant (the wall-clock ledger pins the same episode).
    config = FleetConfig(jobs=8, seed=0)
    return FleetReport(config=config, episodes=[run_fleet_episode(2, config)])


SCENARIOS = [
    pytest.param(
        lambda: run_campaign(ChaosConfig(episodes=6, seed=0, engines=("eccheck",))),
        id="chaos",
    ),
    pytest.param(
        lambda: run_tier_campaign(TierChaosConfig(episodes=3, seed=0)), id="tier"
    ),
    pytest.param(
        lambda: run_elastic_campaign(ElasticConfig(episodes=2, seed=0)),
        id="elastic",
    ),
    pytest.param(
        lambda: run_hybrid_campaign(
            HybridChaosConfig(episodes=2, seed=0, engines=("eccheck",))
        ),
        id="hybrid",
    ),
    pytest.param(fleet_episode_with_a_recovery, id="fleet"),
]


def recovery_cycles(report) -> list[dict]:
    return [c for c in report.cycles if "expected" in c or "outcome" in c]


@pytest.mark.parametrize("run", SCENARIOS)
def test_a_leaking_recovery_is_an_engine_error_everywhere(run, monkeypatch):
    def leak(self, failed_nodes):
        raise ValueError("leaked from the engine")

    monkeypatch.setattr(CheckpointManager, "on_failure", leak)
    report = run()
    outcomes = {str(c.get("outcome", "")) for c in recovery_cycles(report)}
    assert any(o.startswith("engine_error") for o in outcomes), outcomes
    assert any(
        "recovery raised" in v and "leaked from the engine" in v
        for v in report.violations
    ), report.violations


@pytest.mark.parametrize("run", SCENARIOS)
def test_a_stale_version_is_an_oracle_disagreement_everywhere(run, monkeypatch):
    real = CheckpointManager.on_failure

    def stale(self, failed_nodes):
        report = real(self, failed_nodes)
        report.version -= 1
        return report

    monkeypatch.setattr(CheckpointManager, "on_failure", stale)
    report = run()
    assert any("oracle expected" in v for v in report.violations), report.violations
