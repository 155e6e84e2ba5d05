"""Smoke test of the perf ledger (outside tier-1 ``testpaths``).

    python -m pytest benchmarks/perf -q

Runs every workload at ``--smoke`` size (12 saves, 3 restores, 4-job
fleet) and checks the instrument itself: metric names, the
``absent_layers`` escape hatch and the correctness gate.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "ledger.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text(encoding="utf-8"))


def test_every_name_is_well_formed_and_reported_once(smoke_run):
    stdout, ledger = smoke_run
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    assert sorted(ledger["workloads"]) == sorted(workloads) == sorted(W.WORKLOADS)
    printed = [
        tuple(line.split()[:2]) for line in stdout.splitlines()
        if line.split() and line.split()[0] in workloads and "ABSENT" not in line
    ]
    assert len(printed) == len(set(printed)), "a metric was printed twice"
    for name in workloads:
        assert NAME.fullmatch(name)
        result = ledger["workloads"][name]
        assert result["absent_layers"] == {}
        assert result["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            reported = result[section]
            assert all(NAME.fullmatch(metric) for metric in reported)
            for metric in CONTRACT[section]:
                assert metric["name"] in reported, (name, metric["name"])
                assert (name, metric["name"]) in printed
                assert reported[metric["name"]]["unit"] == metric["unit"]
    assert ledger["problems"] == []


@layers.reports(*layers.probe_ec_schedule.metrics)
def probe_broken(ctx):
    import repro.layer_that_was_deleted  # noqa: F401


def test_broken_probe_lands_in_absent_layers():
    from repro import obs

    loop = W.CkptLoop(W.WORKLOADS["ckpt_small"], seed=0)
    metrics, absent = layers.run_probes(
        layers.ProbeContext(loop), obs.Tracer(), (probe_broken, layers.probe_gf)
    )
    (reason, gone), = absent.items()
    assert reason.startswith("probe_broken: ModuleNotFoundError")
    assert gone == ("ec.schedule_compile_ms",)
    assert "gf.mul_region_mib_s" in metrics


def test_driver_mode_excuses_the_metrics_of_an_absent_layer(monkeypatch, capsys):
    """A deleted layer costs its own metrics, not the run: ``--trace 1``
    stays correct and exits 0, and still gates every other metric."""
    import time

    import run

    probes = tuple(
        probe_broken if probe is layers.probe_ec_schedule else probe
        for probe in layers.PROBES
    )
    monkeypatch.setattr(layers, "PROBES", probes)
    monkeypatch.setattr(  # the child's work, in this process, where PROBES is patched
        run, "spawn_child",
        lambda spec: run.child_main(dict(spec, spawned_at=time.perf_counter())),
    )
    argv = ["--workload", "ckpt_small", "--trace", "1", "--smoke"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    assert "ec.schedule_compile_ms" not in result["metrics"]
    assert "gf.mul_region_mib_s" in result["metrics"]

    # A metric that is gone without its layer being absent still fails the run.
    monkeypatch.setattr(
        layers, "PROBES", tuple(p for p in probes if p is not probe_broken)
    )
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False


def test_corrupted_restore_counts_as_failed_op():
    from repro.core.integrity import corrupt_buffer

    loop = W.CkptLoop(W.WORKLOADS["ckpt_small"], seed=0)
    loop.save()
    loop.save()
    engine = loop.engine
    version, plan = engine.version, engine.placement
    # Rot more than m chunks of the newest version: it is unrecoverable,
    # so the restore walks back to an older one than the last committed.
    chunks = [("data", j, node) for j, node in enumerate(plan.data_nodes)]
    chunks += [("parity", 0, plan.parity_nodes[0])]
    assert len(chunks) > plan.m
    for kind, index, node in chunks:
        corrupt_buffer(engine.host.get(node, engine.chunk_key(version, kind, index, 0)))
    loop.restore(0)
    samples = loop.samples
    assert samples.failed == 1 and samples.attempted == 3
    assert "last committed" in samples.failures[0]
