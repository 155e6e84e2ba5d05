"""The trace and the timeline hold the same facts.

Every point event goes through one recorder, ``obs.event``, which writes
the installed tracer and the active sampler alike.  So for any run with
both instruments on, the trace's ``event_counts`` (what ``repro
analyze`` counts) must equal the count of the timeline's events by kind
(what the dashboard marks) — for every campaign, the fleet included.
A fact written to one sink only, or recorded under two names, breaks
the equality.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import obs
from repro.chaos import hybrid_campaign
from repro.chaos.campaign import ChaosConfig, run_campaign
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign
from repro.chaos.hybrid_campaign import HybridChaosConfig, run_hybrid_campaign
from repro.chaos.tier_campaign import TierChaosConfig, run_tier_campaign
from repro.fleet import FleetConfig, run_fleet_campaign
from repro.fleet import campaign as fleet_campaign
from repro.obs.timeseries import ManualClock, TimeSeriesSampler, use_sampler
from repro.sim.events import Simulator

#: Records deleted because another record holds their fact: the root
#: save span (``checkpoint`` / ``remote_backup``), the redundancy ledger
#: (``fully_redundant``) and ``crash_point_fired`` (the two crash notes).
RESTATED = {"checkpoint", "remote_backup", "fully_redundant", "save_crash", "replicate_crash"}


def _timeline_counts(episode) -> Counter:
    assert "events_dropped" not in episode.timeline
    return Counter(e["kind"] for e in episode.timeline.get("events", []))


def _traced_pairs(report):
    return [(e.trace_summary["event_counts"], _timeline_counts(e)) for e in report.episodes]


def _hybrid_pairs():
    """The hybrid campaign always runs under its own tracer; keep it."""
    tracers = []
    run_episode = hybrid_campaign._run_episode_impl

    def spy(*args):
        tracers.append(args[4])
        return run_episode(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hybrid_campaign, "_run_episode_impl", spy)
        report = run_hybrid_campaign(HybridChaosConfig(episodes=3, seed=17, timeline=True))
    return [
        (obs.summarize(tracer)["event_counts"], _timeline_counts(episode))
        for tracer, episode in zip(tracers, report.episodes, strict=True)
    ]


def _fleet_pairs():
    """A fleet episode traced by a caller's tracer, as the ledger traces it.

    Node MTBF is patched down to 4 h so the short episode sees failures.
    """
    mtbf = {**fleet_campaign.MTBF_HOURS, "node": 4.0}
    with pytest.MonkeyPatch.context() as patch, obs.use_tracer() as tracer:
        patch.setattr(fleet_campaign, "MTBF_HOURS", mtbf)
        report = run_fleet_campaign(
            FleetConfig(
                jobs=4, episodes=1, seed=2, fleet_slots=16,
                duration_hours=2.0, timeline=True,
            )
        )
    (episode,) = report.to_dict()["episodes"]
    assert "metrics" not in episode
    return [(obs.summarize(tracer)["event_counts"], _timeline_counts(report.episodes[0]))]


RUNS = {
    "chaos": lambda: _traced_pairs(
        run_campaign(ChaosConfig(episodes=4, seed=17, trace=True, timeline=True))
    ),
    "tier": lambda: _traced_pairs(
        run_tier_campaign(TierChaosConfig(episodes=4, seed=17, trace=True, timeline=True))
    ),
    "elastic": lambda: _traced_pairs(
        run_elastic_campaign(ElasticConfig(episodes=3, seed=17, trace=True, timeline=True))
    ),
    "hybrid": _hybrid_pairs,
    "fleet": _fleet_pairs,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_and_timeline_count_the_same_events(name):
    pairs = RUNS[name]()
    for traced, timeline in pairs:
        assert traced == dict(timeline)
        assert not RESTATED & set(traced)
    assert any(traced for traced, _ in pairs), f"{name}: no run recorded an event"


def test_the_recorder_writes_the_installed_sinks_only():
    assert obs.event("failure", ranks=[1]) == {"kind": "failure", "ranks": [1]}
    with obs.use_tracer() as tracer:
        obs.event("failure", ranks=[0, 2], mode="rack")
    (record,) = tracer.events
    assert (record["name"], record["fields"]) == ("failure", {"ranks": [0, 2], "mode": "rack"})


def test_timeline_events_carry_the_samplers_sim_time():
    """A manual clock's last spend, or the attached simulator's now."""
    manual = TimeSeriesSampler(period_s=10.0)
    clock = ManualClock(manual)
    with use_sampler(manual):
        obs.event("failure", ranks=[1])
        clock.spend(12.5)
        obs.event("failure", ranks=[2])
    assert [(e["t"], e["ranks"]) for e in manual.events] == [(0.0, [1]), (12.5, [2])]

    sim = Simulator()
    looped = TimeSeriesSampler(period_s=10.0)
    looped.attach(sim)
    sim.schedule(7.0, lambda: obs.event("failure", ranks=[3]))
    with use_sampler(looped):
        sim.run()
        looped.finalize(sim.now)
        obs.event("failure", ranks=[4])
    assert [(e["t"], e["ranks"]) for e in looped.events] == [(7.0, [3]), (7.0, [4])]
