"""Tests for Fig. 4 / Fig. 11 breakdown helpers."""

import pytest

from repro.errors import ReproError
from repro.analysis.breakdown import normalise_breakdown, serialization_fraction
from repro.models.config import CheckpointSizeModel, get_model_config


def test_serialization_fraction_grows_with_bandwidth():
    """Fig. 4's observation: faster remote storage -> serialization becomes
    a LARGER share of checkpointing time."""
    size = CheckpointSizeModel().checkpoint_bytes(get_model_config("gpt2-1.6B"))
    fractions = [
        serialization_fraction(size, remote_gbps=bw, workers=4)[2]
        for bw in (1, 5, 10, 40, 100)
    ]
    assert fractions == sorted(fractions)
    assert 0 < fractions[0] < fractions[-1] < 1


def test_serialization_fraction_components_sum():
    serialize, transfer, fraction = serialization_fraction(10**9, 5.0)
    assert fraction == pytest.approx(serialize / (serialize + transfer))


def test_serialization_fraction_validation():
    with pytest.raises(ReproError):
        serialization_fraction(10**9, 0.0)
    with pytest.raises(ReproError):
        serialization_fraction(10**9, 5.0, workers=0)


def test_normalise_breakdown():
    shares = normalise_breakdown({"a": 1.0, "b": 3.0})
    assert shares == {"a": 0.25, "b": 0.75}
    with pytest.raises(ReproError):
        normalise_breakdown({})
    with pytest.raises(ReproError):
        normalise_breakdown({"a": 0.0})


def test_fig11_shape_step3_dominates():
    """Fig. 11: step 3 (encode/XOR/P2P) is the bulk of ECCheck save time,
    and steps 1-2 (the blocking parts) are small."""
    from repro.checkpoint.job import TrainingJob
    from repro.core.eccheck import ECCheckConfig, ECCheckEngine
    from repro.parallel.strategy import ParallelismSpec
    from repro.parallel.topology import ClusterSpec

    job = TrainingJob.create(
        "gpt2-h1024-L16", ClusterSpec(4, 4),
        ParallelismSpec(tensor_parallel=4, pipeline_parallel=4), scale=5e-4,
    )
    report = ECCheckEngine(job, ECCheckConfig(k=2, m=2)).save()
    steps = {
        key: report.breakdown[key]
        for key in (
            "step1_decompose_dtoh",
            "step2_metadata_broadcast",
            "step3_encode_xor_p2p",
        )
    }
    shares = normalise_breakdown(steps)
    assert shares["step3_encode_xor_p2p"] > 0.6
    assert shares["step2_metadata_broadcast"] < 0.05


def test_sum_breakdowns():
    from repro.analysis.breakdown import sum_breakdowns

    assert sum_breakdowns([]) == {}
    total = sum_breakdowns([{"a": 1.0, "b": 2.0}, {"a": 0.5, "c": 3.0}])
    assert total == {"a": 1.5, "b": 2.0, "c": 3.0}


@pytest.mark.parametrize("engine_name", ["eccheck", "base1", "base2", "base3"])
def test_breakdown_figures_agree_with_trace_analyzer(engine_name):
    """The figures' per-phase sim-seconds (summed report breakdowns) and the
    trace's per-kind phase totals must agree at 1e-9 for every engine --
    the reconciliation `repro trace` performs, and what `repro analyze`
    prints."""
    from tests.obs.conftest import run_traced_episode
    from repro.analysis.breakdown import sum_breakdowns
    from repro.obs.trace_io import Trace, reconcile_phases
    from repro.obs.critical_path import analyze_trace

    episode = run_traced_episode(engine_name, iterations=4, interval=2)
    trace = Trace(
        meta={"engine": engine_name, "interval": 2, "nodes": 4},
        spans=episode.spans,
        events=episode.events,
        metrics=episode.tracer.metrics.snapshot(),
    )
    sections, problems = reconcile_phases(
        trace.spans,
        {
            "save": episode.save_breakdowns,
            "restore": episode.restore_breakdowns,
        },
    )
    assert problems == []
    analysis = analyze_trace(trace)
    # Every traced phase total matches the engine-report aggregate exactly
    # within tolerance, both ways of slicing the same physics.
    for kind, breakdowns in (
        ("save", episode.save_breakdowns),
        ("restore", episode.restore_breakdowns),
    ):
        assert analysis.phase_totals[kind] == sections[kind]["traced"]
        expected = sum_breakdowns(breakdowns)
        assert sections[kind]["reported"] == expected
        for phase, traced in analysis.phase_totals[kind].items():
            assert traced == pytest.approx(expected[phase], rel=1e-9), (
                f"{engine_name}: {kind} phase {phase}"
            )
