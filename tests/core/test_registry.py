"""Engine registry: lookup and dispatch by name."""

import pytest

from repro.errors import CheckpointError
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig
from repro.core.registry import build_engine, engine_names
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def make_job(seed=5):
    return TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-4,
        seed=seed,
    )


def test_all_builtin_engines_are_registered():
    names = engine_names()
    for expected in ("eccheck", "base1", "base2", "base3", "gradrep", "hybrid"):
        assert expected in names


def test_unknown_engine_raises_with_the_known_names():
    with pytest.raises(CheckpointError, match="unknown engine"):
        build_engine("no-such-engine", make_job())


def test_build_engine_names_match_instances():
    job = make_job()
    config = ECCheckConfig(k=2, m=2, encode_threads=2)
    for name in ("eccheck", "gradrep", "hybrid"):
        engine = build_engine(name, job, config)
        assert engine.name == name
    # The hybrid wraps a real EC engine built from the same config.
    assert engine.inner.name == "eccheck"
    assert engine.inner.config is config
