"""The engine's code is the XOR-minimised Cauchy generator.

Two properties, neither of which looks at a multiplication table: parity
chunk 0 of every version the engine writes is the plain XOR of its data
chunks (row 0 of the generator is all ones), and the code stays MDS —
any ``<= m`` lost chunks come back bit-exact — for every shape the
elastic controller can ask ``reconfigure`` for.
"""

import itertools
from functools import reduce

import numpy as np
import pytest

from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.protocol import decode_group_into, encode_group_into
from repro.elastic.policy import admissible_shapes
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec

#: The two testbeds the campaigns run: 4 nodes x 2 GPUs under (2, 2), and
#: 8 single-GPU nodes under (4, 4); world size 8 on both.
TESTBEDS = {
    4: (
        ClusterSpec(4, 2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        (2, 2),
    ),
    8: (ClusterSpec(8, 1), ParallelismSpec(pipeline_parallel=8), (4, 4)),
}


def make_engine(nodes, scale=5e-5, seed=0):
    cluster, strategy, (k, m) = TESTBEDS[nodes]
    job = TrainingJob.create(
        "gpt2-h1024-L16", cluster, strategy, scale=scale, seed=seed
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=k, m=m))


def assert_parity0_is_xor_of_data(engine, version):
    plan = engine.placement_of(version)
    for r in range(len(plan.data_group[0])):
        data = [
            engine.host.get(node, engine.chunk_key(version, "data", j, r))
            for j, node in enumerate(plan.data_nodes)
        ]
        parity0 = engine.host.get(
            plan.parity_nodes[0], engine.chunk_key(version, "parity", 0, r)
        )
        assert np.array_equal(parity0, reduce(np.bitwise_xor, data)), (version, r)


@pytest.mark.parametrize("nodes", sorted(TESTBEDS))
def test_parity0_is_the_xor_of_the_data_chunks(nodes):
    job, engine = make_engine(nodes)
    for incremental in (False, True, True, False, True):
        job.advance(dirty_tensor_fraction=0.1 if incremental else 1.0)
        report = engine.save_incremental() if incremental else engine.save()
        assert ("dirty_fraction" in report.breakdown) == incremental
        assert_parity0_is_xor_of_data(engine, report.version)
    # A restore that lost parity 0 rebuilds it as the same XOR.
    lost = {engine.placement.parity_nodes[0]}
    job.fail_nodes(lost)
    restored = engine.restore(lost)
    assert_parity0_is_xor_of_data(engine, restored.version)


def reconfigure_shapes(nodes):
    """Every (k, m) ``admissible_shapes`` can yield on a testbed: any
    active-node count, any redundancy floor."""
    job, engine = make_engine(nodes)
    shapes = {
        shape
        for n_active in range(1, nodes + 1)
        for shape in admissible_shapes(n_active, job.world_size, floor=0)
    }
    return engine, sorted(shapes)


@pytest.mark.parametrize("nodes", sorted(TESTBEDS))
def test_every_loss_pattern_decodes_for_every_reconfigure_shape(nodes):
    engine, shapes = reconfigure_shapes(nodes)
    assert (engine.placement.k, engine.placement.m) in shapes
    rng = np.random.default_rng(nodes)
    for k, m in shapes:
        code = engine.code_for(k, m)
        assert np.all(code.parity_matrix[:1] == 1)
        data = [rng.integers(0, 256, size=72, dtype=np.uint8) for _ in range(k)]
        parity = [np.empty(72, dtype=np.uint8) for _ in range(m)]
        encode_group_into(code, data, parity)
        chunks = dict(enumerate(data + parity))
        for count in range(m + 1):
            for erased in itertools.combinations(range(k + m), count):
                available = {c: v for c, v in chunks.items() if c not in erased}
                lost_data = [c for c in erased if c < k]
                decoded = [np.empty(72, dtype=np.uint8) for _ in lost_data]
                decode_group_into(code, available, lost_data, decoded)
                for j, got in zip(lost_data, decoded):
                    assert np.array_equal(got, data[j]), (k, m, erased)
                lost_parity = [c - k for c in erased if c >= k]
                rebuilt = [np.empty(72, dtype=np.uint8) for _ in lost_parity]
                encode_group_into(code, data, rebuilt, rows=lost_parity)
                for i, got in zip(lost_parity, rebuilt):
                    assert np.array_equal(got, parity[i]), (k, m, erased)


def test_reconfigured_engine_saves_and_restores_on_the_new_shape():
    """Through the engine itself: a save under each full-strength shape of
    the 4-node testbed ((1, 3) and (2, 2)) restores bit-exact after the
    loss of ``m`` nodes, data nodes first."""
    from repro.tensors.state_dict import state_dicts_equal

    job, engine = make_engine(4)
    for k, m in admissible_shapes(4, job.world_size, floor=1):
        plan = engine.reconfigure(k, m)
        job.advance()
        version = engine.save().version
        assert_parity0_is_xor_of_data(engine, version)
        committed = job.snapshot_states()
        lost = set((plan.data_nodes + plan.parity_nodes)[:m])
        job.advance()
        job.fail_nodes(lost)
        assert engine.restore(lost).version == version
        for worker, expected in committed.items():
            assert state_dicts_equal(job.state_of(worker), expected), (k, m, worker)
