"""Tests for the training timeline and idle-slot extraction."""

import pytest

from repro.errors import SimulationError
from repro.sim.network import TimeModel, gbps
from repro.sim.timeline import (
    Interval,
    IterationTimeline,
    complement_intervals,
    merge_intervals,
    pipeline_schedule_timeline,
    total_duration,
)


# ---------------------------------------------------------------------------
# Interval utilities
# ---------------------------------------------------------------------------
def test_interval_validation():
    with pytest.raises(SimulationError):
        Interval(2.0, 1.0)
    assert Interval(1.0, 3.0).duration == 2.0


def test_interval_overlap():
    assert Interval(0, 2).overlaps(Interval(1, 3))
    assert not Interval(0, 1).overlaps(Interval(1, 2))  # half-open


def test_merge_intervals():
    merged = merge_intervals([Interval(3, 4), Interval(0, 1), Interval(1, 2)])
    assert merged == [Interval(0, 2), Interval(3, 4)]
    assert merge_intervals([]) == []


def test_complement_intervals():
    gaps = complement_intervals([Interval(1, 2), Interval(3, 4)], Interval(0, 5))
    assert gaps == [Interval(0, 1), Interval(2, 3), Interval(4, 5)]
    assert complement_intervals([], Interval(0, 2)) == [Interval(0, 2)]
    assert complement_intervals([Interval(0, 2)], Interval(0, 2)) == []


def test_complement_clips_to_window():
    gaps = complement_intervals([Interval(-1, 1), Interval(4, 9)], Interval(0, 5))
    assert gaps == [Interval(1, 4)]


def test_total_duration_merges_overlaps():
    assert total_duration([Interval(0, 2), Interval(1, 3)]) == 3.0


# ---------------------------------------------------------------------------
# Pipeline timeline
# ---------------------------------------------------------------------------
@pytest.fixture
def timeline():
    return pipeline_schedule_timeline(
        stages=4,
        microbatches=8,
        forward_time=0.05,
        activation_bytes=50e6,
        time_model=TimeModel(),
    )


def test_iteration_time_exceeds_pure_compute(timeline):
    # 8 microbatches x (fwd 0.05 + bwd 0.10) plus bubbles and comms.
    assert timeline.iteration_time > 8 * 0.15


def test_every_stage_has_idle_slots(timeline):
    """Pipeline bubbles leave network idle time on every stage's NIC."""
    for stage in range(4):
        idle = timeline.idle_slots(stage)
        assert total_duration(idle) > 0
        assert 0 < timeline.idle_fraction(stage) < 1


def test_busy_plus_idle_covers_iteration(timeline):
    for stage in range(4):
        busy = total_duration(timeline.busy_intervals(stage))
        idle = total_duration(timeline.idle_slots(stage))
        assert busy + idle == pytest.approx(timeline.iteration_time)


def test_interior_stages_are_busier(timeline):
    """Stages with two neighbours carry twice the boundary traffic."""
    edge_busy = total_duration(timeline.busy_intervals(0))
    interior_busy = total_duration(timeline.busy_intervals(1))
    assert interior_busy > edge_busy


def test_single_stage_has_no_network_traffic():
    tl = pipeline_schedule_timeline(
        stages=1, microbatches=4, forward_time=0.1, activation_bytes=1e6
    )
    assert tl.busy_intervals(0) == []
    assert tl.idle_fraction(0) == 1.0


def test_zero_activation_bytes_yields_fully_idle_network():
    tl = pipeline_schedule_timeline(
        stages=4, microbatches=4, forward_time=0.1, activation_bytes=0
    )
    assert all(tl.busy_intervals(s) == [] for s in range(4))


def test_more_microbatches_increase_iteration_time():
    short = pipeline_schedule_timeline(4, 4, 0.05, 10e6)
    long = pipeline_schedule_timeline(4, 16, 0.05, 10e6)
    assert long.iteration_time > short.iteration_time


def test_invalid_parameters_rejected():
    with pytest.raises(SimulationError):
        pipeline_schedule_timeline(0, 4, 0.1, 1e6)
    with pytest.raises(SimulationError):
        pipeline_schedule_timeline(4, 0, 0.1, 1e6)
    with pytest.raises(SimulationError):
        pipeline_schedule_timeline(4, 4, 0.0, 1e6)


def test_empty_timeline_idle():
    tl = IterationTimeline(iteration_time=1.0)
    assert tl.idle_fraction(0) == 1.0
    tl_zero = IterationTimeline(iteration_time=0.0)
    assert tl_zero.idle_fraction(0) == 0.0
