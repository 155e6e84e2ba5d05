"""Tests for the elastic chaos campaign driver: determinism, reporting,
and revert-detection of the elastic recovery machinery."""

import json

from repro import obs
from repro.chaos.elastic_campaign import (
    ElasticConfig,
    run_elastic_campaign,
    run_elastic_episode,
)
from repro.chaos.injection import InjectedCrash
from repro.elastic.repair import REPAIR_CRASH_POINTS, RepairExecutor


def test_smoke_campaign_has_zero_violations():
    report = run_elastic_campaign(ElasticConfig(episodes=4, seed=0))
    assert report.violations == []
    assert report.cycles
    # Every episode must close with the oracle-checked final restore.
    matrix = report.outcome_matrix()
    assert matrix["final_restore"] == {"memory": 4}


def test_same_seed_is_bit_for_bit_deterministic():
    config = ElasticConfig(episodes=3, seed=11)
    first = run_elastic_campaign(config)
    second = run_elastic_campaign(config)
    assert first.to_dict() == second.to_dict()


def test_different_seeds_diverge():
    a = run_elastic_campaign(ElasticConfig(episodes=3, seed=1))
    b = run_elastic_campaign(ElasticConfig(episodes=3, seed=2))
    assert a.to_dict() != b.to_dict()


def test_report_is_json_serializable_with_provenance():
    report = run_elastic_campaign(ElasticConfig(episodes=2, seed=4))
    payload = json.loads(report.to_json())
    assert payload["config"]["seed"] == 4
    assert payload["total_cycles"] == len(report.cycles)
    assert "provenance" in payload
    assert "VIOLATION" not in report.render()


def test_traced_episode_attaches_reconciled_summary():
    result = run_elastic_episode(0, ElasticConfig(episodes=1, seed=0, trace=True))
    assert result.violations == []
    assert result.trace_summary is not None
    assert result.trace_summary["spans"] > 0


def test_traced_repair_crashes_are_counted_like_save_crashes(monkeypatch):
    """A repair crash fires through the engine's one crash hook: each
    injected crash, save or repair, is one ``crash_point_fired`` event
    naming its point."""
    raised = []
    init = InjectedCrash.__init__

    def counting_init(self, point, hits, context):
        raised.append(point)
        init(self, point, hits, context)

    monkeypatch.setattr(InjectedCrash, "__init__", counting_init)
    config = ElasticConfig(episodes=8, seed=0)
    fired = set()
    for index in (0, 7):  # a post_derive and a mid_stream repair crash
        raised.clear()
        with obs.use_tracer() as tracer:
            result = run_elastic_episode(index, config)
        events = [r for r in tracer.records() if r["type"] == "event"]
        assert not [e for e in events if e["name"] == "repair_crash_fired"]
        points = [
            e["fields"]["point"] for e in events if e["name"] == "crash_point_fired"
        ]
        assert points == raised
        repaired = {c["repair_crash"] for c in result.cycles if c.get("repair_crash")}
        assert repaired == set(points) & set(REPAIR_CRASH_POINTS)
        fired |= repaired
    assert fired == {"post_derive", "mid_stream"}


def test_episode_records_redundancy_ledger():
    result = run_elastic_episode(0, ElasticConfig(episodes=1, seed=6))
    for entry in result.redundancy_ledger:
        assert entry["degraded_seconds"] >= 0
        assert entry["full_at"] >= entry["degraded_at"]


# ---------------------------------------------------------------------------
# Revert-detection: undo an elastic fix, the campaign must notice
# ---------------------------------------------------------------------------
def test_campaign_catches_broken_repair_commit(monkeypatch):
    """A repair that 'commits' without streaming any packet leaves the
    repaired version unrestorable under its new placement — the final
    redundancy/restore invariants must flag it."""

    def no_op_run(self):
        ledger = self.ledger
        for index, _ in ledger.pending():
            ledger.mark_done(index)
        self.engine._layouts[ledger.version] = (ledger.target_plan, ledger.epoch)
        ledger.committed = True
        from repro.elastic.repair import RepairReport

        return RepairReport(
            version=ledger.version,
            generation=ledger.generation,
            items_total=len(ledger.items),
            items_repaired=0,
            derive_seconds=0.0,
            stream_seconds=0.0,
            commit_seconds=0.0,
            bytes_streamed=0,
        )

    monkeypatch.setattr(RepairExecutor, "run", no_op_run)
    report = run_elastic_campaign(ElasticConfig(episodes=6, seed=0))
    assert report.violations
