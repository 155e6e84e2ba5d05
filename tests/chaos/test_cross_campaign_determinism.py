"""Same-seed reruns of every campaign are byte-identical.

Each campaign promises its report is a pure function of (config, seed)
once provenance (and wall clocks) are excluded — the property the CI
artifact diffing, the perf-floor ratchet, and every "rerun to debug"
workflow rely on.  One suite pins it uniformly across the chaos, elastic,
tier, hybrid and fleet campaigns, so a nondeterminism regression in a
shared layer (rng derivation, dict ordering, event-loop tie-breaking)
fails loudly no matter which campaign it entered through.

The same payloads are also pinned *across commits*: ``GOLDEN`` holds the
sha-256 of each one as computed at the commit before the campaigns moved
onto the shared kernel (``chaos/harness.py``), so a refactor that shifts
one rng draw, one cycle field or one float of a derived clock fails here
instead of silently invalidating every committed report.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign
from repro.chaos.hybrid_campaign import HybridChaosConfig, run_hybrid_campaign
from repro.chaos.tier_campaign import TierChaosConfig, run_tier_campaign
from repro.fleet import FleetConfig, run_fleet_campaign

CASES = [
    pytest.param(
        lambda: run_campaign(ChaosConfig(episodes=4, seed=17)),
        id="chaos",
    ),
    pytest.param(
        lambda: run_elastic_campaign(ElasticConfig(episodes=4, seed=17)),
        id="elastic",
    ),
    pytest.param(
        lambda: run_tier_campaign(TierChaosConfig(episodes=4, seed=17)),
        id="tier",
    ),
    pytest.param(
        lambda: run_fleet_campaign(
            FleetConfig(jobs=4, episodes=1, seed=17, duration_hours=2.0)
        ),
        id="fleet",
    ),
    pytest.param(
        lambda: run_hybrid_campaign(HybridChaosConfig(episodes=3, seed=17)),
        id="hybrid",
    ),
]

#: The instrumented variants: the trace summary and the derived-clock
#: timeline are part of the byte contract too.
INSTRUMENTED = {
    "chaos-traced-timeline": lambda: run_campaign(
        ChaosConfig(episodes=4, seed=17, trace=True, timeline=True)
    ),
    "tier-traced-timeline": lambda: run_tier_campaign(
        TierChaosConfig(episodes=4, seed=17, trace=True, timeline=True)
    ),
}

#: sha-256 of ``to_json(provenance=False)``, computed at the parent of
#: the commit that introduced ``chaos/harness.py`` (PR 20).  A change that
#: is *meant* to alter a report regenerates its entry and says why: the
#: fleet entry lost its episode ``metrics`` section (the cycles hold every
#: fact it counted) and the two traced-timeline entries record each event
#: once, through one recorder, into both the trace and the timeline.
GOLDEN = {
    "chaos": "983fc0611fa2cb0b665aaaa24e015d2b5fb10e658c73a56af7037cae87e2a55f",
    "elastic": "0638eb9e76ad3560ae072d7ae979144b8b4fbb04918f9d816223b60b244a9efa",
    "tier": "a7183dabc5820b9ef6da09de61955276eb7ceee14ba846ab86af8ac58bf2cfee",
    "fleet": "306d35dde9e898403ff1691a66d0ce70a2da17a60045fb5c8aa71870777686ad",
    "hybrid": "ac76dbdf190c666d30fd718026bdb99325615b5ba333cdf5e44b14d691638a22",
    "chaos-traced-timeline": (
        "a2295413dcdbe09735463172e6ddae2395f6d9aaf984ac5dba92cb0f4cbd226c"
    ),
    "tier-traced-timeline": (
        "e413237e0dbd920af7b73343bd51cb7869b918995df5da048b4c427cd4828bae"
    ),
}
RUNNERS = {**{case.id: case.values[0] for case in CASES}, **INSTRUMENTED}


@pytest.mark.parametrize("runner", CASES)
def test_same_seed_rerun_is_byte_identical(runner):
    first = runner().to_json(provenance=False)
    second = runner().to_json(provenance=False)
    assert first == second


@pytest.mark.parametrize("runner", CASES)
def test_provenance_free_payload_has_no_environment_leaks(runner):
    """The comparable payload must not smuggle in host-dependent keys;
    anything wall-clock or machine-specific belongs under ``provenance``
    / ``timing`` in the stamped form only."""
    payload = json.loads(runner().to_json(provenance=False))
    leaked = {"provenance", "timing", "wall_s", "hostname"} & set(payload)
    assert not leaked
    for episode in payload.get("episodes", []):
        assert "wall_s" not in episode


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_the_cross_commit_golden(name, tmp_path):
    text = RUNNERS[name]().to_json(provenance=False)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != GOLDEN[name]:
        dump = tmp_path / f"{name}.json"
        dump.write_text(text)
        pytest.fail(
            f"{name} report drifted from the golden: sha-256 {digest}, "
            f"expected {GOLDEN[name]}; the payload is in {dump}"
        )
