"""Property-based tests (hypothesis) for the flow network and timeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Simulator
from repro.sim.network import (
    REMOTE,
    ClusterNetwork,
    Network,
    TimeModel,
    TransferRequest,
    gbps,
)
from repro.sim.timeline import (
    Interval,
    complement_intervals,
    merge_intervals,
    pipeline_schedule_timeline,
    total_duration,
)

flow_sizes = st.lists(
    st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=8,
)


@given(sizes=flow_sizes)
@settings(max_examples=60, deadline=None)
def test_single_link_fair_sharing_completion_bound(sizes):
    """On one shared link, the last completion equals total bytes over
    capacity (work conservation), and every flow needs at least its solo
    transfer time."""
    capacity = 100.0
    sim = Simulator()
    net = Network(sim)
    net.add_link("l", capacity)
    flows = [net.start_flow(["l"], s) for s in sizes]
    sim.run()
    makespan = max(f.finish_time for f in flows)
    assert makespan == pytest.approx(sum(sizes) / capacity, rel=1e-6)
    for flow, size in zip(flows, sizes):
        assert flow.finish_time >= size / capacity - 1e-9


@given(sizes=flow_sizes)
@settings(max_examples=40, deadline=None)
def test_smaller_flows_finish_no_later(sizes):
    """With equal start times on one link, completion order follows size."""
    sim = Simulator()
    net = Network(sim)
    net.add_link("l", 50.0)
    flows = [(s, net.start_flow(["l"], s)) for s in sizes]
    sim.run()
    ordered = sorted(flows, key=lambda p: p[0])
    times = [f.finish_time for _, f in ordered]
    # Equal-size flows can finish at times differing by float rounding, so
    # the order check needs a relative tolerance, not exact comparison.
    tol = 1e-9 * max(times)
    assert all(a <= b + tol for a, b in zip(times, times[1:]))


@given(
    extra=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    base=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_contention_never_speeds_a_flow_up(extra, base):
    def run(with_extra):
        sim = Simulator()
        net = Network(sim)
        net.add_link("l", 10.0)
        probe = net.start_flow(["l"], base)
        if with_extra:
            net.start_flow(["l"], extra)
        sim.run()
        return probe.finish_time

    assert run(True) >= run(False) - 1e-9


@given(
    shard=st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
    nodes=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_remote_uploads_bounded_by_aggregate_bandwidth(shard, nodes):
    tm = TimeModel()
    cn = ClusterNetwork(num_nodes=nodes, time_model=tm)
    result = cn.bill(
        [TransferRequest(src=n, dst=REMOTE, nbytes=shard) for n in range(nodes)]
    )
    lower = nodes * shard / gbps(tm.remote_storage_gbps)
    assert result.makespan == pytest.approx(lower, rel=1e-6)


# ---------------------------------------------------------------------------
# Timeline properties
# ---------------------------------------------------------------------------
timeline_cases = st.tuples(
    st.integers(min_value=1, max_value=6),      # stages
    st.integers(min_value=1, max_value=12),     # microbatches
    st.floats(min_value=0.01, max_value=1.0),   # forward time
    st.floats(min_value=0.0, max_value=5e8),    # activation bytes
)


@given(case=timeline_cases)
@settings(max_examples=60, deadline=None)
def test_busy_plus_idle_always_covers_iteration(case):
    stages, microbatches, forward, act_bytes = case
    tl = pipeline_schedule_timeline(stages, microbatches, forward, act_bytes)
    for stage in range(stages):
        busy = total_duration(tl.busy_intervals(stage))
        idle = total_duration(tl.idle_slots(stage))
        assert busy + idle == pytest.approx(tl.iteration_time, rel=1e-9)
        assert busy <= tl.iteration_time + 1e-9


@given(case=timeline_cases)
@settings(max_examples=60, deadline=None)
def test_iteration_time_lower_bound(case):
    """An iteration takes at least the busiest stage's pure compute."""
    stages, microbatches, forward, act_bytes = case
    tl = pipeline_schedule_timeline(stages, microbatches, forward, act_bytes)
    compute_floor = microbatches * (forward + 2.0 * forward)
    assert tl.iteration_time >= compute_floor - 1e-9


@given(
    intervals=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=10),
        ),
        max_size=12,
    )
)
@settings(max_examples=80, deadline=None)
def test_merge_complement_partition_window(intervals):
    """merge(X) and complement(X) partition the window exactly."""
    window = Interval(0.0, 120.0)
    xs = [Interval(a, a + d) for a, d in intervals]
    merged = merge_intervals(xs)
    gaps = complement_intervals(xs, window)
    assert total_duration(merged) + total_duration(gaps) == pytest.approx(
        window.duration, rel=1e-9
    )
    # Disjointness: no merged interval overlaps any gap.
    for m in merged:
        for g in gaps:
            assert not m.overlaps(g), (m, g)
