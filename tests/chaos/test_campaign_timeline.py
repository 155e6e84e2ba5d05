"""Timeline sections for the chaos, tier, and elastic campaigns.

The manual-clock campaigns have no event loop, so their samplers ride a
derived clock (cumulative checkpoint/recovery time).  The contract is
the same as the fleet's: ``timeline=True`` adds exactly one new key per
episode and perturbs nothing else, and — where a redundancy ledger
exists (elastic) — the timeline's degraded integral reconciles with it.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign
from repro.chaos.tier_campaign import TierChaosConfig, run_tier_campaign

CAMPAIGNS = [
    pytest.param(
        lambda **kw: run_campaign(ChaosConfig(episodes=4, seed=3, **kw)),
        id="chaos",
    ),
    pytest.param(
        lambda **kw: run_tier_campaign(
            TierChaosConfig(episodes=4, seed=13, **kw)
        ),
        id="tier",
    ),
    pytest.param(
        lambda **kw: run_elastic_campaign(
            ElasticConfig(episodes=4, seed=3, **kw)
        ),
        id="elastic",
    ),
]


def _strip_timelines(report_dict: dict) -> list:
    return [e.pop("timeline", None) for e in report_dict["episodes"]]


@pytest.mark.parametrize("run", CAMPAIGNS)
def test_timeline_adds_one_key_and_changes_nothing_else(run):
    plain = run().to_dict()
    sampled_report = run(timeline=True, timeline_period_s=30.0)
    sampled = copy.deepcopy(sampled_report.to_dict())
    timelines = _strip_timelines(sampled)
    assert all(t is not None for t in timelines)
    assert json.dumps(sampled, sort_keys=True) == json.dumps(
        plain, sort_keys=True
    )
    # Config serialization must not leak the timeline switches either —
    # that is what keeps plain/sampled reports comparable.
    assert "timeline" not in sampled["config"]
    assert "timeline_period_s" not in sampled["config"]
    for timeline in timelines:
        assert timeline["samples"] >= 1
        assert timeline["period_s"] == 30.0
        assert timeline["fleet"]["t"] == sorted(timeline["fleet"]["t"])


@pytest.mark.parametrize("run", CAMPAIGNS)
def test_timeline_runs_are_deterministic(run):
    a = run(timeline=True).to_dict()
    b = run(timeline=True).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_chaos_timeline_notes_injected_events():
    report = run_campaign(
        ChaosConfig(episodes=6, seed=3, timeline=True)
    )
    kinds = {
        e["kind"]
        for episode in report.to_dict()["episodes"]
        for e in episode["timeline"].get("events", [])
    }
    # Seeded chaos at episodes=6/seed=3 injects failures; crash and
    # corruption events depend on the draw, failure does not.  A save
    # crash is the engine's ``crash_point_fired``, not a campaign note.
    assert "failure" in kinds
    assert kinds <= {"failure", "corruption", "crash_point_fired", "recovery"}


def test_elastic_timeline_reconciles_with_redundancy_ledger():
    report = run_elastic_campaign(
        ElasticConfig(episodes=4, seed=3, timeline=True)
    )
    assert report.violations == []
    checked = 0
    for episode in report.to_dict()["episodes"]:
        ledger = sum(
            entry["degraded_seconds"]
            for entry in episode["redundancy_ledger"]
        )
        integrated = episode["timeline"]["tenants"]["job"][
            "degraded_integral_closed_s"
        ]
        tol = max(abs(ledger), abs(integrated)) * 1e-9 + 1e-9
        assert abs(ledger - integrated) <= tol
        if ledger > 0:
            checked += 1
    assert checked, "no episode exercised a degraded window"


def test_elastic_report_json_is_provenance_stamped():
    report = run_elastic_campaign(ElasticConfig(episodes=1, seed=0))
    assert "provenance" not in report.to_dict()
    payload = json.loads(report.to_json(provenance=True))
    assert {"git_sha", "git_dirty", "timestamp_utc", "hostname",
            "python", "numpy"} <= set(payload["provenance"])
    assert "provenance" not in json.loads(report.to_json(provenance=False))
