"""Tests for the analyze-layer extension: repair/regroup phase totals
reconciled against the elastic controller's reports."""

import numpy as np
import pytest

from repro import obs
from repro.obs import analyze_trace, load_trace, render_analysis
from repro.obs.trace_io import reconcile_phases, write_jsonl
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.elastic import ElasticClusterController
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.spares import SparePool


@pytest.fixture()
def traced_elastic_run(tmp_path):
    """One failure -> degraded save -> spare join -> repair, traced."""
    with obs.use_tracer() as tracer:
        job = TrainingJob.create(
            model="gpt2-h1024-L16",
            cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
            strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
            scale=5e-4,
            seed=11,
        )
        engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2, encode_threads=2))
        manager = CheckpointManager(job, engine, interval=1)
        controller = ElasticClusterController(
            manager,
            SparePool(size=4, median_delay_s=60.0, sigma=0.3),
            rng=np.random.default_rng(5),
        )
        job.advance()
        manager.step()
        job.fail_nodes({1})
        controller.on_failure({1}, 20.0)
        job.advance()
        manager.step()
        repair = controller.on_spare_join(1, 1e9)
        assert repair is not None
        path = tmp_path / "elastic_trace.jsonl"
        write_jsonl(tracer, str(path), nodes=4)
    # One regroup at the failure, one at the join, each billed the plan.
    regroups = [{"regroup_plan": job.time_model.decompose_overhead_s}] * 2
    return load_trace(str(path)), [repair.breakdown()], regroups


def test_repair_and_regroup_totals_reconcile(traced_elastic_run):
    trace, repairs, regroups = traced_elastic_run
    sections, problems = reconcile_phases(
        trace.spans, {"repair": repairs, "regroup": regroups}
    )
    assert problems == []
    analysis = analyze_trace(trace)
    assert analysis.phase_totals["repair"] == sections["repair"]["traced"]
    assert analysis.phase_totals["regroup"] == sections["regroup"]["traced"]
    assert set(analysis.phase_totals["repair"]) == {
        "repair_derive",
        "repair_stream",
        "repair_commit",
    }
    assert analysis.phase_totals["repair"]["repair_stream"] > 0
    assert analysis.phase_totals["regroup"]["regroup_plan"] > 0
    rendered = render_analysis(analysis)
    assert "repair phases (sim):" in rendered
    assert "regroup phases (sim):" in rendered


def test_tampered_breakdown_is_flagged(traced_elastic_run):
    trace, breakdowns, _ = traced_elastic_run
    breakdowns[0]["repair_stream"] *= 1.5
    _, problems = reconcile_phases(trace.spans, {"repair": breakdowns})
    assert any(p.startswith("repair phase 'repair_stream'") for p in problems)


def test_non_elastic_trace_has_empty_elastic_sections(tmp_path):
    with obs.use_tracer() as tracer:
        job = TrainingJob.create(
            model="gpt2-h1024-L16",
            cluster=ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
            strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
            scale=5e-4,
            seed=2,
        )
        engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
        engine.save()
        path = tmp_path / "plain_trace.jsonl"
        write_jsonl(tracer, str(path), nodes=4)
    analysis = analyze_trace(load_trace(str(path)))
    assert "repair" not in analysis.phase_totals
    assert "regroup" not in analysis.phase_totals
    assert "repair phases (sim):" not in render_analysis(analysis)
