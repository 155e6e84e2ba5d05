"""Tests for the max-min fair flow-level network simulator."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator
from repro.sim.network import (
    REMOTE,
    ClusterNetwork,
    Network,
    TimeModel,
    TransferRequest,
    gbps,
)


def test_gbps_conversion():
    assert gbps(8) == 1e9  # 8 Gbit/s == 1 GB/s


def build_net(links):
    sim = Simulator()
    net = Network(sim)
    for name, cap in links.items():
        net.add_link(name, cap)
    return sim, net


def test_single_flow_uses_full_capacity():
    sim, net = build_net({"l": 100.0})
    flow = net.start_flow(["l"], 1000.0)
    sim.run()
    assert flow.finish_time == pytest.approx(10.0)


def test_two_flows_share_fairly():
    sim, net = build_net({"l": 100.0})
    a = net.start_flow(["l"], 1000.0)
    b = net.start_flow(["l"], 1000.0)
    sim.run()
    # Each gets 50 B/s -> both finish at 20 s.
    assert a.finish_time == pytest.approx(20.0)
    assert b.finish_time == pytest.approx(20.0)


def test_short_flow_departure_speeds_up_survivor():
    sim, net = build_net({"l": 100.0})
    small = net.start_flow(["l"], 500.0)
    big = net.start_flow(["l"], 1500.0)
    sim.run()
    # Shared until t=10 (small done: 500 B at 50 B/s), then big alone:
    # big has 1000 B left at 100 B/s -> finishes at t=20.
    assert small.finish_time == pytest.approx(10.0)
    assert big.finish_time == pytest.approx(20.0)


def test_late_arrival_reallocates():
    sim, net = build_net({"l": 100.0})
    first = net.start_flow(["l"], 1000.0)
    second = []
    sim.schedule(5.0, lambda: second.append(net.start_flow(["l"], 250.0)))
    sim.run()
    # first alone 0-5s (500 B done), then shares at 50 B/s; second's 250 B
    # finish at t=10, after which first's remaining 250 B run at full rate:
    # 10 + 250/100 = 12.5 s.
    assert second[0].finish_time == pytest.approx(10.0)
    assert first.finish_time == pytest.approx(12.5)


def test_multi_link_flow_bottlenecked_by_slowest():
    sim, net = build_net({"fast": 1000.0, "slow": 10.0})
    flow = net.start_flow(["fast", "slow"], 100.0)
    sim.run()
    assert flow.finish_time == pytest.approx(10.0)


def test_max_min_fairness_across_links():
    """Flow A on link1 only; flow B crosses link1+link2 (link2 tiny).

    B is limited to link2's capacity; A should soak up the rest of link1
    (max-min), not be held to an equal share.
    """
    sim, net = build_net({"l1": 100.0, "l2": 10.0})
    a = net.start_flow(["l1"], 900.0)
    b = net.start_flow(["l1", "l2"], 100.0)
    sim.run()
    assert b.finish_time == pytest.approx(10.0)  # 100 B at 10 B/s
    assert a.finish_time == pytest.approx(10.0)  # 900 B at 90 B/s


def test_zero_byte_flow_completes_immediately():
    sim, net = build_net({"l": 10.0})
    done = []
    flow = net.start_flow(["l"], 0.0, on_complete=lambda f: done.append(f))
    assert flow.done
    assert done == [flow]


def test_completion_callback_fires():
    sim, net = build_net({"l": 10.0})
    done = []
    net.start_flow(["l"], 100.0, on_complete=lambda f: done.append(f.finish_time))
    sim.run()
    assert done == [pytest.approx(10.0)]


def test_unknown_link_rejected():
    sim, net = build_net({"l": 10.0})
    with pytest.raises(SimulationError):
        net.start_flow(["nope"], 10.0)
    with pytest.raises(SimulationError):
        net.start_flow([], 10.0)


def test_duplicate_or_bad_link_rejected():
    sim, net = build_net({"l": 10.0})
    with pytest.raises(SimulationError):
        net.add_link("l", 5.0)
    with pytest.raises(SimulationError):
        net.add_link("x", 0.0)


# ---------------------------------------------------------------------------
# ClusterNetwork
# ---------------------------------------------------------------------------
def test_cluster_route_shapes():
    cn = ClusterNetwork(num_nodes=2)
    assert cn.route(0, 1) == ["node0.tx", "node1.rx"]
    assert cn.route(1, REMOTE) == ["node1.tx", "remote.rx"]
    assert cn.route(REMOTE, 0) == ["remote.tx", "node0.rx"]
    assert cn.route(1, 1) == ["node1.nvlink"]
    with pytest.raises(SimulationError):
        cn.route(REMOTE, REMOTE)
    with pytest.raises(SimulationError):
        cn.route(0, 5)


def test_remote_aggregate_bandwidth_is_shared():
    """All nodes pushing to remote split the 5 Gbps aggregate: total time
    equals total bytes over aggregate bandwidth."""
    tm = TimeModel()
    cn = ClusterNetwork(num_nodes=4, time_model=tm)
    shard = 1e9  # 1 GB per node
    result = cn.bill(
        [TransferRequest(src=n, dst=REMOTE, nbytes=shard) for n in range(4)]
    )
    expected = 4 * shard / gbps(tm.remote_storage_gbps)
    assert result.makespan == pytest.approx(expected, rel=1e-6)


def test_inter_node_transfers_run_in_parallel():
    """Disjoint node pairs don't contend: time = bytes / NIC bandwidth."""
    tm = TimeModel()
    cn = ClusterNetwork(num_nodes=4, time_model=tm)
    nbytes = 5e9
    result = cn.bill(
        [
            TransferRequest(src=0, dst=1, nbytes=nbytes),
            TransferRequest(src=2, dst=3, nbytes=nbytes),
        ]
    )
    assert result.makespan == pytest.approx(nbytes / gbps(tm.inter_node_gbps))


def test_fan_in_contends_on_receiver_nic():
    tm = TimeModel()
    cn = ClusterNetwork(num_nodes=3, time_model=tm)
    nbytes = 1e9
    result = cn.bill(
        [
            TransferRequest(src=0, dst=2, nbytes=nbytes),
            TransferRequest(src=1, dst=2, nbytes=nbytes),
        ]
    )
    assert result.makespan == pytest.approx(2 * nbytes / gbps(tm.inter_node_gbps))


def test_start_delay_staggers_flows():
    tm = TimeModel()
    cn = ClusterNetwork(num_nodes=2, time_model=tm)
    result = cn.bill(
        [TransferRequest(src=0, dst=1, nbytes=1e9, start_delay=3.0)]
    )
    assert result.makespan == pytest.approx(3.0 + 1e9 / gbps(tm.inter_node_gbps))


def test_time_model_helpers():
    tm = TimeModel()
    assert tm.dtoh_time(gbps(tm.dtoh_gbps)) == pytest.approx(1.0)
    assert tm.serialize_time(gbps(tm.serialize_gbps)) == pytest.approx(1.0)
    assert tm.encode_time(gbps(tm.encode_gbps)) == pytest.approx(1.0)
    # Halving the threads halves effective throughput.
    assert tm.encode_time(gbps(tm.encode_gbps), threads=2) == pytest.approx(2.0)
    # More threads than the pool cap does not exceed peak throughput.
    assert tm.encode_time(gbps(tm.encode_gbps), threads=64) == pytest.approx(1.0)


def test_with_shared_bottleneck_scales_only_shared_resources():
    tm = TimeModel()
    shared = tm.with_shared_bottleneck(remote_share=0.25, inter_node_share=0.5)
    assert shared.remote_storage_gbps == pytest.approx(
        tm.remote_storage_gbps * 0.25
    )
    assert shared.inter_node_gbps == pytest.approx(tm.inter_node_gbps * 0.5)
    # Node-local resources are never shared across tenants.
    assert shared.dtoh_gbps == tm.dtoh_gbps
    assert shared.nvlink_gbps == tm.nvlink_gbps
    assert shared.disk_write_gbps == tm.disk_write_gbps
    assert shared.encode_gbps == tm.encode_gbps


def test_with_shared_bottleneck_full_share_is_identity():
    tm = TimeModel()
    assert tm.with_shared_bottleneck() is tm
    assert tm.with_shared_bottleneck(1.0, 1.0) is tm


def test_with_shared_bottleneck_rejects_bad_shares():
    tm = TimeModel()
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(SimulationError):
            tm.with_shared_bottleneck(remote_share=bad)
        with pytest.raises(SimulationError):
            tm.with_shared_bottleneck(inter_node_share=bad)
