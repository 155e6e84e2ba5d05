"""The network's memo of transfer bills (``ClusterNetwork.bill``).

A bill served from the memo must be indistinguishable from a fresh
``ClusterNetwork.simulate``: same numbers, lists the caller owns, never
stale after the fleet arbiter swaps the time model, and bounded.
"""

import dataclasses

import pytest

from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.gradrep.hybrid import HybridEngine
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.network import ClusterNetwork, TransferRequest

FIELDS = ("makespan", "flow_finish_times", "total_bytes", "request_finish_times")


def make_job(seed=3):
    return TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=5e-5,
        seed=seed,
    )


def audit(network):
    """Check every ``bill`` against a fresh simulation; count the misses.

    Returns ``(bills, simulations)``: one entry per ``bill`` call, and one
    per simulation a ``bill`` call ran (a hit runs none).
    """
    bills, simulations = [], []
    simulate, bill = network.simulate, network.bill

    def counting_simulate(requests):
        simulations.append(tuple(requests))
        return simulate(requests)

    def audited_bill(requests):
        got = bill(requests)
        fresh = ClusterNetwork(network.num_nodes, network.time_model).simulate(requests)
        for name in FIELDS:
            assert getattr(got, name) == getattr(fresh, name), name
        bills.append(tuple(requests))
        return got

    network.simulate, network.bill = counting_simulate, audited_bill
    return bills, simulations


def failure_patterns(placement):
    """The wall-clock ledger's four: both paper workflows, <= m nodes."""
    data, parity = placement.data_nodes, placement.parity_nodes
    return [set(parity[:1]), set(data[:1]), set(data[:2]), {data[0], parity[0]}]


def test_cached_bills_equal_a_fresh_simulation_field_by_field():
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    bills, simulations = audit(engine.network)
    for _ in range(2):  # the second round is served from the memo
        job.advance()
        engine.save()
        job.advance(dirty_tensor_fraction=0.1)
        assert "dirty_fraction" in engine.save_incremental().breakdown
        for failed in failure_patterns(engine.placement):
            job.advance()
            job.fail_nodes(failed)
            engine.restore(failed)
            job.advance()
            engine.save()
    assert len(bills) > len(simulations) > 0
    # Every distinct plan was simulated exactly once.
    assert len(simulations) == len(set(simulations)) == len(set(bills))


def test_a_returned_list_is_the_callers_to_mutate():
    network = ClusterNetwork(4)
    requests = [TransferRequest(0, 1, 1e6), TransferRequest(2, 1, 2e6)]
    first = network.bill(requests)
    want = dataclasses.asdict(first)
    first.flow_finish_times.clear()
    first.request_finish_times[0] = -1.0
    assert dataclasses.asdict(network.bill(requests)) == want


def test_a_replaced_time_model_is_never_served_a_stale_bill():
    """The fleet arbiter's move: ``engine.network.time_model = tm`` around
    a save, the previous model back after it."""
    job = make_job()
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    requests = [TransferRequest(0, 1, 1e9), TransferRequest(1, 2, 1e9)]
    full = engine.network.time_model
    shared = dataclasses.replace(full, inter_node_gbps=full.inter_node_gbps / 4)
    at_full = engine.network.bill(requests)
    engine.network.time_model = shared
    at_share = engine.network.bill(requests)
    assert at_share == ClusterNetwork(4, shared).simulate(requests)
    assert at_share.makespan == pytest.approx(4 * at_full.makespan)
    engine.network.time_model = full
    assert engine.network.bill(requests) == at_full
    # Through the engine: the same save plan, billed under each model.
    reports = []
    for tm in (full, shared, full):
        job.time_model = engine.network.time_model = tm
        job.advance()
        reports.append(engine.save().breakdown["step3_comm"])
    assert reports[0] == reports[2] < reports[1]


def test_the_memo_is_bounded():
    network = ClusterNetwork(4)
    capacity = ClusterNetwork.BILL_CACHE_SIZE
    simulations = []
    simulate = network.simulate
    network.simulate = lambda requests: simulations.append(1) or simulate(requests)
    plans = [[TransferRequest(0, 1, 1000 + n)] for n in range(capacity + 8)]
    for plan in plans:  # distinct delta shapes, more than the memo holds
        network.bill(plan)
    assert len(network._bills) == capacity
    assert len(simulations) == len(plans)
    network.bill(plans[-1])  # recent: still held
    assert len(simulations) == len(plans)
    network.bill(plans[0])  # oldest: evicted, simulated again
    assert len(simulations) == len(plans) + 1
    assert len(network._bills) == capacity


def test_hybrid_engine_shares_its_inner_engines_bills():
    job = make_job()
    hybrid = HybridEngine(job, ECCheckConfig(k=2, m=2))
    assert hybrid.network is hybrid.inner.network
    bills, simulations = audit(hybrid.network)
    job.advance()
    hybrid.save()
    job.advance()
    hybrid.inner.save()  # the same plan, through the other owner
    assert len(bills) == 2 and len(simulations) == 1
