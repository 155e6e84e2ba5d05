"""The committed campaign reports still reproduce.

``CHAOS_report.json`` and ``ELASTIC_report.json`` at the repo root are
cited as evidence (README, EXPERIMENTS.md); a report that no longer
matches what its recorded config produces is stale evidence.  Tier-2
reruns both configs and compares everything outside ``provenance``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign

ROOT = pathlib.Path(__file__).resolve().parents[2]

COMMITTED = [
    pytest.param(
        "CHAOS_report.json",
        lambda c: run_campaign(
            ChaosConfig(**{**c, "engines": tuple(c["engines"])})
        ),
        id="chaos",
    ),
    pytest.param(
        "ELASTIC_report.json",
        lambda c: run_elastic_campaign(ElasticConfig(**c)),
        id="elastic",
    ),
]


@pytest.mark.tier2
@pytest.mark.parametrize("name, rerun", COMMITTED)
def test_committed_report_reproduces_from_its_own_config(name, rerun, tmp_path):
    committed = json.loads((ROOT / name).read_text())
    committed.pop("provenance")
    fresh = json.loads(rerun(committed["config"]).to_json(provenance=False))
    if fresh != committed:
        dump = tmp_path / name
        dump.write_text(json.dumps(fresh, indent=2, sort_keys=True))
        changed = sorted(
            key
            for key in set(fresh) | set(committed)
            if fresh.get(key) != committed.get(key)
        )
        pytest.fail(
            f"{name} is stale: sections {changed} differ from a rerun of its "
            f"config (fresh payload in {dump}); regenerate it with the CLI"
        )
