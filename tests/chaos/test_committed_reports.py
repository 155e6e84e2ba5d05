"""The committed campaign reports still reproduce.

``CHAOS_report.json``, ``ELASTIC_report.json`` and ``FLEET_report.json``
at the repo root are cited as evidence (README, EXPERIMENTS.md); a report
that no longer matches what its recorded config produces is stale
evidence.  Each config is rebuilt from the init fields of its report's
``config`` section; every other reported value is a constant of the
config class, and must still equal the class's value (tier-1, no rerun).
Tier-2 reruns each config and compares the reproducible sections: all of
them outside ``provenance`` for the chaos and elastic reports; for the
fleet report everything but ``scaling`` and ``timing``, which are
wall-clock measurements (the 200-job rerun takes ~70 s on a 2-vCPU host).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.chaos.campaign import ChaosConfig, run_campaign
from repro.chaos.elastic_campaign import ElasticConfig, run_elastic_campaign
from repro.fleet.campaign import FleetConfig, run_fleet_campaign

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: ``report -> (config class, campaign runner, compared sections or None
#: for every section outside provenance)``.
COMMITTED = {
    "CHAOS_report.json": (ChaosConfig, run_campaign, None),
    "ELASTIC_report.json": (ElasticConfig, run_elastic_campaign, None),
    "FLEET_report.json": (
        FleetConfig,
        run_fleet_campaign,
        ("config", "aggregates", "episodes", "violations"),
    ),
}


def _id(name: str) -> str:
    return name.split("_")[0].lower()


def _committed(name: str) -> dict:
    report = json.loads((ROOT / name).read_text())
    report.pop("provenance")
    return report


def _init_fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls) if f.init}


def rebuild(cls, reported: dict):
    """The config a report's ``config`` section records."""
    fields = _init_fields(cls)
    return cls(
        **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in reported.items()
            if name in fields
        }
    )


@pytest.mark.parametrize("name", list(COMMITTED), ids=_id)
def test_committed_report_constants_match_the_config_class(name):
    cls, _, _ = COMMITTED[name]
    reported = _committed(name)["config"]
    fields = _init_fields(cls)
    assert set(reported) == set(cls.REPORTED)
    changed = {
        constant: (getattr(cls, constant), value)
        for constant, value in reported.items()
        if constant not in fields and getattr(cls, constant) != value
    }
    assert not changed, (
        f"{name}: {cls.__name__} constants (now, reported) differ: {changed}; "
        "regenerate the report with the CLI"
    )


@pytest.mark.tier2
@pytest.mark.parametrize("name", list(COMMITTED), ids=_id)
def test_committed_report_reproduces_from_its_own_config(name, tmp_path):
    cls, run, sections = COMMITTED[name]
    committed = _committed(name)
    fresh = json.loads(
        run(rebuild(cls, committed["config"])).to_json(provenance=False)
    )
    if sections is not None:
        committed = {key: committed[key] for key in sections}
        fresh = {key: fresh[key] for key in sections}
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
