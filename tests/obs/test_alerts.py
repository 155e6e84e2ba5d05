"""Unit tests for the online SLO alert engine.

These pin the rule grammar (validation errors are loud), the windowed
reductions (burn_rate in particular — it must be a true piecewise
integral, not a sample average), the edge-trigger/hysteresis contract,
and the context every alert record carries: triggering samples, a
flight-recorder dump, and the correlated sampler event.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.obs.alerts import AlertEngine, AlertRule, default_fleet_rules
from repro.obs.timeseries import TimeSeriesSampler


# ----------------------------------------------------------------------
# Rule validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"op": "=="},
        {"reduce": "median", "window_s": 10.0},
        {"severity": "page"},
        {"scope": "rack"},
        {"reduce": "mean", "window_s": 0.0},
        {"reduce": "burn_rate", "window_s": -5.0},
    ],
)
def test_bad_rules_raise_simulation_error(kwargs):
    base = dict(name="r", signal="x", threshold=1.0)
    with pytest.raises(SimulationError):
        AlertRule(**{**base, **kwargs})


def test_rule_to_dict_rounds_and_omits_empty_description():
    rule = AlertRule(name="r", signal="x", threshold=0.1 + 0.2)
    payload = rule.to_dict()
    assert payload["threshold"] == 0.3
    assert "description" not in payload


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _fleet_sampler(period_s=10.0):
    sampler = TimeSeriesSampler(period_s=period_s)
    return sampler


def test_burn_rate_is_a_piecewise_integral_not_a_sample_mean():
    # Signal: 1.0 on [0, 30), 0.0 on [30, 100].  Over the trailing
    # window [0, 100] the burn rate is exactly 0.3 — a naive mean of
    # the samples would depend on how many grid points each level got.
    state = SimpleNamespace(v=1.0)
    sampler = _fleet_sampler()
    sampler.register_probe("x", lambda t: state.v)
    sampler.sample(0.0, "baseline")
    sampler.advance(30.0)
    state.v = 0.0
    sampler.sample(30.0, "transition")
    sampler.advance(100.0)
    rule = AlertRule(
        name="burn",
        signal="x",
        reduce="burn_rate",
        window_s=100.0,
        threshold=0.25,
    )
    engine = AlertEngine([rule])
    engine.evaluate(sampler, 100.0, "grid")
    assert len(engine.alerts) == 1
    assert engine.alerts[0]["value"] == pytest.approx(0.3)


def test_windowed_reduces_and_missing_signal():
    state = SimpleNamespace(v=0.0)
    sampler = _fleet_sampler()
    sampler.register_probe("x", lambda t: state.v)
    for t, v in ((0.0, 5.0), (10.0, 1.0), (20.0, 3.0)):
        state.v = v
        sampler.sample(t, "grid")
    rules = [
        AlertRule(name="mx", signal="x", reduce="max", window_s=15.0,
                  threshold=2.5),
        AlertRule(name="mn", signal="x", reduce="min", window_s=15.0,
                  threshold=2.0, op="<"),
        AlertRule(name="me", signal="x", reduce="mean", window_s=15.0,
                  threshold=1.5),
        AlertRule(name="ghost", signal="nope", threshold=0.0),
    ]
    engine = AlertEngine(rules)
    engine.evaluate(sampler, 20.0, "grid")
    fired = {a["rule"]: a["value"] for a in engine.alerts}
    # Window [5, 20] retains samples at 10 and 20 -> max 3, min 1, mean 2.
    assert fired == {"mx": 3.0, "mn": 1.0, "me": 2.0}


def test_hysteresis_fires_once_per_breach_and_rearms():
    state = SimpleNamespace(v=0.0)
    sampler = _fleet_sampler()
    sampler.register_probe("x", lambda t: state.v)
    engine = AlertEngine([AlertRule(name="r", signal="x", threshold=1.0)])
    timeline = [
        (0.0, 2.0),   # breach -> fire
        (10.0, 2.5),  # still breaching -> suppressed
        (20.0, 0.5),  # clears -> re-arm
        (30.0, 3.0),  # breach again -> second fire
    ]
    for t, v in timeline:
        state.v = v
        sampler.sample(t, "grid")
        engine.evaluate(sampler, t, "grid")
    assert [a["t"] for a in engine.alerts] == [0.0, 30.0]


def test_tenant_scope_skips_closed_series_and_tags_records():
    sampler = _fleet_sampler()
    live = SimpleNamespace(bad=1.0)
    done = SimpleNamespace(bad=1.0)
    sampler.watch_tenant("live", live, {"bad": lambda t: live.bad}, t=0.0)
    sampler.watch_tenant("done", done, {"bad": lambda t: done.bad}, t=0.0)
    sampler.sample(0.0, "baseline")
    sampler.tenants["done"].close(0.0)
    engine = AlertEngine(
        [AlertRule(name="r", signal="bad", scope="tenant", threshold=0.5)]
    )
    engine.evaluate(sampler, 0.0, "grid")
    assert [a["tenant"] for a in engine.alerts] == ["live"]
    # Fleet-scope records, by contrast, omit the tenant key entirely.
    assert all("tenant" in a for a in engine.alerts)


def test_alert_record_carries_flight_recorder_and_correlated_event(monkeypatch):
    monkeypatch.setattr(AlertEngine, "recorder_depth", 3)
    state = SimpleNamespace(v=0.0)
    sampler = _fleet_sampler()
    sampler.register_probe("x", lambda t: state.v)
    sampler.register_probe("y", lambda t: 7.0)
    for t in (0.0, 10.0, 20.0, 30.0, 40.0):
        sampler.sample(t, "grid")
    sampler.note_event(35.0, "failure", ranks=[1, 2])
    sampler.note_event(60.0, "late")  # after firing time: not correlated
    state.v = 9.0
    sampler.sample(50.0, "grid")
    engine = AlertEngine([AlertRule(name="r", signal="x", threshold=1.0)])
    engine.evaluate(sampler, 50.0, "grid")
    (record,) = engine.alerts
    assert record["triggering_samples"][-1] == {"t": 50.0, "value": 9.0}
    rec = record["flight_recorder"]
    assert rec["t"] == [30.0, 40.0, 50.0]  # depth-bounded
    assert set(rec["series"]) == {"x", "y"}  # every column, not just x
    assert rec["series"]["y"] == [7.0, 7.0, 7.0]
    assert record["correlated_event"]["kind"] == "failure"
    assert record["correlated_event"]["t"] == 35.0


def test_max_alerts_cap_counts_drops(monkeypatch):
    monkeypatch.setattr(AlertEngine, "max_alerts", 2)
    state = SimpleNamespace(v=2.0)
    sampler = _fleet_sampler()
    sampler.register_probe("x", lambda t: state.v)
    rules = [
        AlertRule(name=f"r{i}", signal="x", threshold=1.0) for i in range(4)
    ]
    engine = AlertEngine(rules)
    sampler.sample(0.0, "grid")
    engine.evaluate(sampler, 0.0, "grid")
    assert len(engine.alerts) == 2
    assert engine.dropped == 2
    assert engine.to_dict()["dropped"] == 2


def test_to_dict_counts_by_severity():
    engine = AlertEngine([AlertRule(name="r", signal="x", threshold=1.0)])
    engine.alerts = [
        {"severity": "warning"},
        {"severity": "violation"},
        {"severity": "violation"},
    ]
    payload = engine.to_dict()
    assert payload["counts"] == {"total": 3, "violation": 2, "warning": 1}
    assert engine.violation_count() == 2
    assert payload["fired"] is engine.alerts


def test_default_fleet_rules_shape():
    rules = default_fleet_rules(duration_hours=8.0)
    by_name = {r.name: r for r in rules}
    assert set(by_name) == {
        "degraded-burn-rate",
        "slow-repair",
        "spare-starvation",
        "admission-backlog",
    }
    assert by_name["slow-repair"].severity == "violation"
    assert by_name["slow-repair"].scope == "tenant"
    assert by_name["degraded-burn-rate"].reduce == "burn_rate"
    assert by_name["spare-starvation"].scope == "fleet"
    # Windowed rules scale with campaign duration but keep a floor.
    assert by_name["degraded-burn-rate"].window_s == 3600.0
    assert default_fleet_rules(0.5)[0].window_s == 1800.0
