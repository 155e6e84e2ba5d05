"""Fleet campaign telemetry: determinism, reconciliation, alerting.

Three report-level contracts from the telemetry PR:

1.  ``--timeline`` is pure observation — a sampled run's report is
    byte-identical to a plain run in every field except the added
    per-episode ``timeline`` block.
2.  The timeline's per-tenant degraded integral reconciles with the SLO
    ledger (``degraded_seconds``) at 1e-9, episode by episode.
3.  Under an injected correlated rack failure with no spares and a slow
    depot, the stock SLO rules demonstrably fire: the ``slow-repair``
    *violation* surfaces with a flight-recorder dump and the rack
    failure as its correlated event.

Plus the provenance satellite: ``FLEET_report.json`` is stamped while
``to_dict`` (the determinism surface) stays stamp-free.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.fleet import scheduler as fleet_scheduler
from repro.fleet.campaign import FleetConfig, run_fleet_campaign
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.obs.alerts import AlertEngine, default_fleet_rules
from repro.obs.timeseries import (
    TimeSeriesSampler,
    crosscheck_timeline,
    use_sampler,
)
from repro.sim.failures import DomainFailureEvent

SMOKE = dict(jobs=4, episodes=1, seed=11, duration_hours=2.0)


@pytest.fixture(scope="module")
def plain_and_sampled():
    plain = run_fleet_campaign(FleetConfig(**SMOKE))
    sampled = run_fleet_campaign(
        FleetConfig(**SMOKE, timeline=True, timeline_period_s=60.0)
    )
    return plain, sampled


def test_timeline_run_is_byte_identical_outside_timeline_section(
    plain_and_sampled,
):
    plain, sampled = plain_and_sampled
    sampled_dict = copy.deepcopy(sampled.to_dict())
    stripped = [
        e.pop("timeline", None) for e in sampled_dict["episodes"]
    ]
    assert all(t is not None for t in stripped), "timeline sections missing"
    assert json.dumps(sampled_dict, sort_keys=True) == json.dumps(
        plain.to_dict(), sort_keys=True
    )


def test_timeline_sections_have_samples_and_alert_block(plain_and_sampled):
    _, sampled = plain_and_sampled
    for episode in sampled.episodes:
        timeline = episode.timeline
        assert timeline["samples"] > 0
        assert timeline["period_s"] == 60.0
        assert timeline["fleet"]["t"], "no fleet samples"
        assert "alerts" in timeline
        assert set(timeline["tenants"]) == {
            t["name"] for t in episode.tenants
        }


def test_timeline_integral_reconciles_with_slo_ledger(plain_and_sampled):
    _, sampled = plain_and_sampled
    assert sampled.violations == []
    for episode in sampled.episodes:
        problems = crosscheck_timeline(episode.timeline, episode.tenants)
        assert problems == [], problems


def test_fleet_report_json_is_provenance_stamped(plain_and_sampled):
    plain, _ = plain_and_sampled
    assert "provenance" not in plain.to_dict()
    payload = json.loads(plain.to_json(provenance=True))
    stamp = payload["provenance"]
    assert {"git_sha", "git_dirty", "timestamp_utc", "hostname",
            "python", "numpy"} <= set(stamp)
    assert "timing" in payload
    # ... and opting out restores the deterministic document.
    bare = json.loads(plain.to_json(provenance=False))
    assert "provenance" not in bare and "timing" not in bare


def test_rack_failure_fires_slow_repair_violation_with_context(monkeypatch):
    """The acceptance scenario: rack0 takes two of the victim's ranks,
    the fleet has zero spares and a glacial depot (its median delay
    patched to 20000 s), so the degraded window ages past the 1h SLO and
    the ``slow-repair`` violation fires — carrying the flight recorder
    and the correlated rack event."""
    monkeypatch.setattr(fleet_scheduler, "DEPOT_MEDIAN_DELAY_S", 20000.0)
    spec = FleetSpec(
        num_slots=8, slots_per_rack=2, racks_per_switch=2,
        switches_per_power=2,
    )
    scheduler = FleetScheduler(
        spec,
        seed=(5,),
        spares=0,
        mtbf_hours=None,
    )
    sampler = TimeSeriesSampler(
        period_s=300.0,
        alert_engine=AlertEngine(default_fleet_rules()),
    )
    scheduler.attach_sampler(sampler)
    scheduler.submit(
        TenantSpec(
            name="victim", seed=7, iterations=60, iteration_s=120.0,
            scale=5e-5,
        )
    )
    event = DomainFailureEvent(time=0.0, kind="rack", index=0)
    scheduler.sim.schedule_at(600.0, lambda: scheduler._on_domain_event(event))
    with use_sampler(sampler):
        scheduler.run()
    sampler.finalize(scheduler.sim.now)

    fired = sampler.alerts.alerts
    by_rule = {}
    for alert in fired:
        by_rule.setdefault(alert["rule"], []).append(alert)

    assert "slow-repair" in by_rule, [a["rule"] for a in fired]
    (violation,) = by_rule["slow-repair"]
    assert violation["severity"] == "violation"
    assert violation["tenant"] == "victim"
    assert violation["value"] > 3600.0
    # Flight recorder: a real multi-column dump of the tenant series.
    recorder = violation["flight_recorder"]
    assert len(recorder["t"]) > 1
    assert "degraded" in recorder["series"]
    assert recorder["series"]["degraded"][-1] == 1.0
    # Correlated failure-domain context rides on the record.
    correlated = violation["correlated_event"]
    assert correlated["kind"] == "tenant_failure"
    assert correlated["tenant"] == "victim"
    assert correlated["cause"] == "rack0"
    assert correlated["ranks"] == [0, 1]
    # The degraded burn also trips its warning rule.
    assert any(
        a["rule"] == "degraded-burn-rate" and a["severity"] == "warning"
        for a in fired
    )
    assert sampler.alerts.violation_count() >= 1
    # The tenant survives (2 of 4 ranks lost, k=2 decode) and the
    # timeline still reconciles with its ledger.
    record = scheduler.slo_records["victim"]
    assert record["state"] == "completed"
    problems = crosscheck_timeline(sampler.timeline_dict(), [record])
    assert problems == [], problems
