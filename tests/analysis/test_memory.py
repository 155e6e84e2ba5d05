"""Host-memory redundancy of the engines' real stores (Fig. 15's premise).

Grouped replication with group size ``G`` stores ``G`` copies of each
node's data; ECCheck stores one chunk of ``W/k`` packets per node, i.e.
``n/k`` times a node's own share — at ``k = m = n/2`` the same ``2x``.
"""

import pytest

from repro.checkpoint.job import TrainingJob
from repro.checkpoint.replication import GeminiReplicationEngine
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


def test_fig15_premise_engines_use_identical_host_memory():
    """The executable version of the paper's 'identical redundancy
    conditions': at k = m = n/2 the real host stores of base3 and ECCheck
    hold (approximately) the same number of bytes per node.

    Pure tensor parallelism keeps every worker's shard identical, so
    ECCheck's equal-size packets carry no padding and the comparison is
    exact up to serialization/metadata overhead.  (With skewed pipeline
    shards the equal-packet design pads to the largest shard — a real
    memory cost of the scheme on unbalanced shardings.)
    """

    def make_job():
        return TrainingJob.create(
            "gpt2-h1024-L16",
            ClusterSpec(4, 2),
            ParallelismSpec(tensor_parallel=8),
            scale=1e-3,
            seed=71,
        )

    job3 = make_job()
    base3 = GeminiReplicationEngine(job3)
    base3.save()
    job_ec = make_job()
    eccheck = ECCheckEngine(job_ec, ECCheckConfig(k=2, m=2))
    eccheck.save()

    for node in range(4):
        rep_bytes = base3.host.node_bytes(node)
        ec_bytes = eccheck.host.node_bytes(node)
        assert ec_bytes == pytest.approx(rep_bytes, rel=0.25), node
    total_rep = sum(base3.host.node_bytes(n) for n in range(4))
    total_ec = sum(eccheck.host.node_bytes(n) for n in range(4))
    assert total_ec == pytest.approx(total_rep, rel=0.2)


def test_erasure_chunk_bytes_match_n_over_k_factor():
    """ECCheck's measured per-node chunk bytes equal (n/k) x the packet
    volume a node's own workers produce."""
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=1e-3,
        seed=73,
    )
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    engine.save()
    packet = None
    # Real packet size: read one stored chunk packet.
    node0 = engine.placement.data_nodes[0]
    packet = engine.host.get(node0, ("chunk", 1, "data", 0, 0)).nbytes
    groups = len(engine.placement.data_group[0])
    for node in range(4):
        chunk_bytes = sum(
            engine.host.get(node, key).nbytes
            for key in engine.host.keys(node)
            if isinstance(key, tuple) and key[0] == "chunk"
        )
        assert chunk_bytes == groups * packet  # one chunk = W/k packets
    own = job.cluster.gpus_per_node * packet
    factor = (groups * packet) / own
    assert factor == 4 / 2  # n / k
