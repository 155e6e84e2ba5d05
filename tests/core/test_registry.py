"""Engine registry: lookup and dispatch by name."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.errors import CheckpointError
from repro.chaos.invariants import _RULES
from repro.checkpoint.base import CheckpointEngine
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


def _concrete_engine_names() -> set[str]:
    """The name of every concrete CheckpointEngine subclass defined under
    ``repro``, found by importing each of the package's modules."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    names, pending = set(), [CheckpointEngine]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro.") and not inspect.isabstract(cls):
                names.add(cls.name)
    return names


def test_all_builtin_engines_are_registered():
    """An engine no campaign can build, or no oracle rule can judge, must
    not exist: each one has a registry builder and an oracle rule."""
    names = _concrete_engine_names()
    assert {"eccheck", "hybrid"} <= names
    assert names <= set(engine_names()), names - set(engine_names())
    assert names <= set(_RULES), names - set(_RULES)


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
