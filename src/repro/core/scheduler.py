"""Idle-slot communication scheduling (paper Sec. IV-B3).

ECCheck profiles inter-node communication over the first training
iterations, then confines checkpoint traffic to the profiled idle periods
so it never contends with activation/gradient transfers.  The scheduler
answers the question Fig. 12 measures: *given a checkpoint frequency, how
much does checkpoint communication inflate the average iteration time?*
If the per-checkpoint traffic fits inside the idle capacity available
between checkpoints, the answer is zero; any overflow spills into training
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.sim.timeline import Interval, IterationTimeline, total_duration


@dataclass(frozen=True)
class IdleProfile:
    """Per-stage idle capacity measured from the training timeline."""

    iteration_time: float
    idle_seconds_per_stage: dict[int, float]
    slots_per_stage: dict[int, list[Interval]]

    @property
    def bottleneck_idle_seconds(self) -> float:
        """Idle seconds of the busiest stage — the binding constraint."""
        if not self.idle_seconds_per_stage:
            return self.iteration_time
        return min(self.idle_seconds_per_stage.values())


def profile_idle_slots(
    timeline: IterationTimeline, profile_iterations: int = 50
) -> IdleProfile:
    """Profile idle slots, as ECCheck does over its first 50 iterations.

    The timeline is deterministic per iteration, so profiling several
    iterations confirms stability rather than averaging noise; the
    argument is retained for interface fidelity with the paper.

    Raises:
        SchedulingError: if ``profile_iterations`` < 1.
    """
    if profile_iterations < 1:
        raise SchedulingError(
            f"profile_iterations must be >= 1, got {profile_iterations}"
        )
    stages = sorted(timeline.stage_busy) or [0]
    idle_seconds = {
        stage: total_duration(timeline.idle_slots(stage)) for stage in stages
    }
    slots = {stage: timeline.idle_slots(stage) for stage in stages}
    return IdleProfile(
        iteration_time=timeline.iteration_time,
        idle_seconds_per_stage=idle_seconds,
        slots_per_stage=slots,
    )


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of packing one checkpoint's communication into idle slots.

    Attributes:
        fits_in_idle: True when the whole transfer hides inside idle slots
            within the checkpoint interval.
        iterations_to_drain: iterations of idle capacity the traffic
            occupies.
        overflow_seconds: traffic seconds that did NOT fit in idle slots
            within the interval and therefore contend with training.
        added_iteration_seconds: average iteration-time inflation over the
            interval (``overflow / interval``).
    """

    fits_in_idle: bool
    iterations_to_drain: float
    overflow_seconds: float
    added_iteration_seconds: float


def schedule_checkpoint_comm(
    profile: IdleProfile,
    comm_seconds_per_stage: dict[int, float],
    interval_iterations: float,
) -> ScheduleResult:
    """Fit per-stage checkpoint communication into the idle profile.

    Args:
        profile: the idle-slot profile.
        comm_seconds_per_stage: NIC-busy seconds of checkpoint traffic each
            stage's node must move per checkpoint.
        interval_iterations: iterations between consecutive checkpoints
            (1 / checkpoint frequency).

    Raises:
        SchedulingError: for a non-positive interval or unknown stages.
    """
    if interval_iterations <= 0:
        raise SchedulingError(
            f"interval_iterations must be positive, got {interval_iterations}"
        )
    worst_drain = 0.0
    worst_overflow = 0.0
    for stage, needed in comm_seconds_per_stage.items():
        idle = profile.idle_seconds_per_stage.get(stage)
        if idle is None:
            raise SchedulingError(f"stage {stage} absent from idle profile")
        if needed < 0:
            raise SchedulingError(f"negative comm time for stage {stage}")
        if idle > 0:
            worst_drain = max(worst_drain, needed / idle)
        capacity = idle * interval_iterations
        worst_overflow = max(worst_overflow, needed - capacity)
    overflow = max(0.0, worst_overflow)
    return ScheduleResult(
        fits_in_idle=overflow == 0.0,
        iterations_to_drain=worst_drain,
        overflow_seconds=overflow,
        added_iteration_seconds=overflow / interval_iterations,
    )

