"""Tests for idle-slot communication scheduling."""

import pytest

from repro.errors import SchedulingError
from repro.core.scheduler import profile_idle_slots, schedule_checkpoint_comm
from repro.sim.timeline import IterationTimeline, pipeline_schedule_timeline


@pytest.fixture
def timeline():
    return pipeline_schedule_timeline(
        stages=4, microbatches=8, forward_time=0.05, activation_bytes=100e6
    )


@pytest.fixture
def profile(timeline):
    return profile_idle_slots(timeline)


def test_profile_reports_per_stage_idle(timeline, profile):
    assert profile.iteration_time == timeline.iteration_time
    assert set(profile.idle_seconds_per_stage) == {0, 1, 2, 3}
    for stage, seconds in profile.idle_seconds_per_stage.items():
        assert seconds > 0
        assert seconds < timeline.iteration_time


def test_profile_bottleneck_is_min(profile):
    assert profile.bottleneck_idle_seconds == min(
        profile.idle_seconds_per_stage.values()
    )


def test_profile_validation(timeline):
    with pytest.raises(SchedulingError):
        profile_idle_slots(timeline, profile_iterations=0)


def test_comm_fitting_in_idle_adds_nothing(profile):
    demand = {s: 0.5 * profile.idle_seconds_per_stage[s] for s in range(4)}
    result = schedule_checkpoint_comm(profile, demand, interval_iterations=1)
    assert result.fits_in_idle
    assert result.added_iteration_seconds == 0.0
    assert result.iterations_to_drain < 1


def test_comm_spread_over_interval(profile):
    """Traffic bigger than one iteration's idle time still hides if the
    checkpoint interval spans enough iterations."""
    demand = {s: 3.0 * profile.idle_seconds_per_stage[s] for s in range(4)}
    tight = schedule_checkpoint_comm(profile, demand, interval_iterations=1)
    relaxed = schedule_checkpoint_comm(profile, demand, interval_iterations=5)
    assert not tight.fits_in_idle
    assert tight.added_iteration_seconds > 0
    assert relaxed.fits_in_idle


def test_overflow_grows_with_frequency(profile):
    """Fig. 12's mechanism: higher checkpoint frequency -> more overflow."""
    demand = {s: 4.0 * profile.idle_seconds_per_stage[s] for s in range(4)}
    added = [
        schedule_checkpoint_comm(profile, demand, interval).added_iteration_seconds
        for interval in (1, 2, 4, 8)
    ]
    assert added[0] > added[1] > added[2]
    assert added[3] >= 0


def test_schedule_validation(profile):
    with pytest.raises(SchedulingError):
        schedule_checkpoint_comm(profile, {0: 1.0}, interval_iterations=0)
    with pytest.raises(SchedulingError):
        schedule_checkpoint_comm(profile, {99: 1.0}, interval_iterations=1)
    with pytest.raises(SchedulingError):
        schedule_checkpoint_comm(profile, {0: -1.0}, interval_iterations=1)


def test_empty_timeline_profile_defaults():
    profile = profile_idle_slots(IterationTimeline(iteration_time=2.0))
    assert profile.bottleneck_idle_seconds == 2.0
