"""Tier-1 smoke campaign: a deterministic ~20-episode chaos run across all
four engines must finish with zero invariant violations.

This is the executable form of the PR's acceptance criterion; the full
``repro chaos --episodes 50 --seed 0`` run covers more of the outcome
matrix but asserts exactly the same invariants.
"""

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign


def test_smoke_campaign_has_zero_violations():
    report = run_campaign(ChaosConfig(episodes=20, seed=0))
    assert report.violations == [], "\n".join(report.violations)
    # The campaign must actually exercise recoveries, not vacuously pass.
    assert len(report.cycles) >= 10
    outcomes = {cycle["outcome"] for cycle in report.cycles}
    assert "memory" in outcomes
    assert "backup" in outcomes
    # Every engine took part.
    assert {e.engine for e in report.episodes} == {
        "eccheck", "base1", "base2", "base3"
    }
    # Crashes were injected and torn versions walked back, not avoided.
    assert any(cycle["crash_point"] for cycle in report.cycles)


@pytest.mark.tier2
def test_full_campaign_with_tracing_has_zero_violations():
    """The full 50-episode acceptance run, traced end to end."""
    report = run_campaign(ChaosConfig(episodes=50, seed=0, trace=True))
    assert report.violations == [], "\n".join(report.violations)
    for episode in report.episodes:
        summary = episode.trace_summary
        assert summary is not None
        assert summary["nesting_problems"] == []
        # Every cycle's injected crash surfaced as exactly one trace event.
        crashed = sum(1 for cycle in episode.cycles if cycle["crash_point"])
        assert summary["event_counts"].get("crash_point_fired", 0) == crashed
