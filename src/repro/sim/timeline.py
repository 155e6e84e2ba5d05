"""Training iteration timeline and network idle-slot extraction.

ECCheck schedules checkpoint communication into the network idle periods of
distributed training (Sec. IV-B3 of the paper).  This module produces those
periods from a pipeline-parallel schedule: stage ``s`` computes forward and
backward passes per microbatch, shipping activations forward and gradients
backward across stage boundaries.  The gaps between those transfers — the
pipeline "bubbles" — are the idle slots.

The schedule here is GPipe-style (all forwards, then all backwards), which
produces the same qualitative bubble structure the paper exploits; tensor
parallelism stays on intra-node NVLink and therefore leaves the inter-node
NICs idle during TP collectives, which the model reflects by simply not
generating inter-node traffic for TP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.network import TimeModel, gbps


@dataclass(frozen=True)
class Interval:
    """A half-open time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SimulationError(f"interval ends before it starts: {self}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end


def merge_intervals(intervals: list[Interval]) -> list[Interval]:
    """Union of intervals as a sorted, disjoint list."""
    if not intervals:
        return []
    ordered = sorted(intervals, key=lambda i: i.start)
    merged = [ordered[0]]
    for interval in ordered[1:]:
        last = merged[-1]
        if interval.start <= last.end:
            merged[-1] = Interval(last.start, max(last.end, interval.end))
        else:
            merged.append(interval)
    return merged


def complement_intervals(
    intervals: list[Interval], window: Interval
) -> list[Interval]:
    """Gaps of ``window`` not covered by ``intervals``."""
    out: list[Interval] = []
    cursor = window.start
    for interval in merge_intervals(intervals):
        if interval.end <= window.start or interval.start >= window.end:
            continue
        if interval.start > cursor:
            out.append(Interval(cursor, min(interval.start, window.end)))
        cursor = max(cursor, interval.end)
    if cursor < window.end:
        out.append(Interval(cursor, window.end))
    return out


def total_duration(intervals: list[Interval]) -> float:
    """Summed length of a disjoint (or merged) interval list."""
    return sum(i.duration for i in merge_intervals(intervals))


def intersect_intervals(
    a: list[Interval], b: list[Interval]
) -> list[Interval]:
    """Pairwise intersection of two interval sets, merged and sorted.

    The returned list covers exactly the time present in *both* inputs —
    e.g. checkpoint traffic windows that collide with NIC-busy training
    windows.  Either input may be unmerged or unsorted.
    """
    left = merge_intervals(a)
    right = merge_intervals(b)
    out: list[Interval] = []
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i].start, right[j].start)
        end = min(left[i].end, right[j].end)
        if start < end:
            out.append(Interval(start, end))
        if left[i].end <= right[j].end:
            i += 1
        else:
            j += 1
    return out


@dataclass
class IterationTimeline:
    """Busy/idle structure of one training iteration.

    Attributes:
        iteration_time: end-to-end iteration duration in seconds.
        stage_busy: per pipeline stage, the merged intervals during which
            that stage's node NIC carries training traffic.
    """

    iteration_time: float
    stage_busy: dict[int, list[Interval]] = field(default_factory=dict)

    def busy_intervals(self, stage: int) -> list[Interval]:
        """Merged NIC-busy intervals of a stage's node."""
        return merge_intervals(self.stage_busy.get(stage, []))

    def idle_slots(self, stage: int) -> list[Interval]:
        """NIC-idle intervals of a stage's node within the iteration."""
        return complement_intervals(
            self.busy_intervals(stage), Interval(0.0, self.iteration_time)
        )

    def idle_fraction(self, stage: int) -> float:
        """Fraction of the iteration the stage's NIC sits idle."""
        if self.iteration_time <= 0:
            return 0.0
        return total_duration(self.idle_slots(stage)) / self.iteration_time


def pipeline_schedule_timeline(
    stages: int,
    microbatches: int,
    forward_time: float,
    activation_bytes: float,
    time_model: TimeModel | None = None,
    backward_factor: float = 2.0,
) -> IterationTimeline:
    """Build an iteration timeline for a pipeline-parallel job.

    Args:
        stages: pipeline depth (one stage per node, as in the paper).
        microbatches: microbatches per iteration.
        forward_time: forward compute time of one microbatch on one stage.
        activation_bytes: bytes shipped across one stage boundary per
            microbatch (gradients are modelled at the same size).
        time_model: bandwidth constants (defaults to the testbed model).
        backward_factor: backward/forward compute ratio (~2 in practice).

    Returns:
        An :class:`IterationTimeline` with per-stage NIC busy intervals.

    Raises:
        SimulationError: for non-positive shape parameters.
    """
    if stages < 1 or microbatches < 1:
        raise SimulationError("stages and microbatches must be >= 1")
    if forward_time <= 0:
        raise SimulationError("forward_time must be positive")
    tm = time_model or TimeModel()
    comm_time = activation_bytes / gbps(tm.inter_node_gbps)
    backward_time = backward_factor * forward_time

    # GPipe schedule: forwards in dependency order, then backwards.
    f_end = [[0.0] * microbatches for _ in range(stages)]
    stage_free = [0.0] * stages
    arrivals = [[0.0] * microbatches for _ in range(stages)]
    busy: dict[int, list[Interval]] = {s: [] for s in range(stages)}

    for m in range(microbatches):
        for s in range(stages):
            start = max(stage_free[s], arrivals[s][m])
            end = start + forward_time
            f_end[s][m] = end
            stage_free[s] = end
            if s + 1 < stages:
                arrivals[s + 1][m] = end + comm_time
                if comm_time > 0:
                    transfer = Interval(end, end + comm_time)
                    busy[s].append(transfer)
                    busy[s + 1].append(transfer)

    # Backwards: last stage first, reverse microbatch order.
    b_arrivals = [[0.0] * microbatches for _ in range(stages)]
    for m in range(microbatches):
        b_arrivals[stages - 1][m] = f_end[stages - 1][microbatches - 1]
    for m in reversed(range(microbatches)):
        for s in reversed(range(stages)):
            start = max(stage_free[s], b_arrivals[s][m])
            end = start + backward_time
            stage_free[s] = end
            if s > 0:
                b_arrivals[s - 1][m] = max(b_arrivals[s - 1][m], end + comm_time)
                if comm_time > 0:
                    transfer = Interval(end, end + comm_time)
                    busy[s].append(transfer)
                    busy[s - 1].append(transfer)

    iteration_time = max(stage_free)
    return IterationTimeline(
        iteration_time=iteration_time,
        stage_busy={s: merge_intervals(v) for s, v in busy.items()},
    )
