"""Checkpoint frequency selection and adaptive tuning.

The paper's base2 is "inspired by CheckFreq", whose core contribution is
*adaptive* checkpoint frequency: pick the highest frequency whose runtime
overhead stays within a budget, and keep adjusting from measurements.
This module provides the three standard policies:

* :func:`young_daly_interval` — the classic optimum balancing checkpoint
  cost against expected lost work, ``sqrt(2 * C * MTBF)``;
* :func:`overhead_bounded_interval` — CheckFreq's rule: the smallest
  interval whose per-iteration overhead is below a budget fraction;
* :class:`AdaptiveFrequencyTuner` — CheckFreq-style feedback control that
  widens the interval when measured overhead exceeds the budget and
  tightens it when there is headroom.

ECCheck's low stall makes these policies pick dramatically shorter
intervals than base1/base2 — the quantitative version of the paper's
"higher checkpointing frequency" claim, exercised in the goodput bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CheckpointError


def young_daly_interval(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young/Daly optimal checkpoint period in seconds.

    Args:
        checkpoint_cost_s: time one checkpoint costs the critical path.
        mtbf_s: mean time between failures of the whole system.

    Raises:
        CheckpointError: for non-positive inputs.
    """
    if checkpoint_cost_s <= 0:
        raise CheckpointError(
            f"checkpoint_cost_s must be positive, got {checkpoint_cost_s}"
        )
    if mtbf_s <= 0:
        raise CheckpointError(f"mtbf_s must be positive, got {mtbf_s}")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def overhead_bounded_interval(
    stall_s: float,
    checkpoint_time_s: float,
    iteration_s: float,
    overhead_budget: float = 0.035,
) -> int:
    """Smallest interval (in iterations) whose overhead fits the budget.

    Two constraints bound the interval from below:

    1. the per-iteration stall amortised over the interval must not exceed
       ``overhead_budget * iteration_s``;
    2. a new checkpoint cannot start before the previous one completed, so
       the interval must span at least ``checkpoint_time_s`` of training.

    Args:
        stall_s: training stall per checkpoint.
        checkpoint_time_s: end-to-end time per checkpoint.
        iteration_s: baseline iteration time.
        overhead_budget: allowed overhead fraction (CheckFreq uses ~3.5%).

    Raises:
        CheckpointError: for non-positive iteration time or budget.
    """
    if iteration_s <= 0:
        raise CheckpointError(f"iteration_s must be positive, got {iteration_s}")
    if overhead_budget <= 0:
        raise CheckpointError(
            f"overhead_budget must be positive, got {overhead_budget}"
        )
    if stall_s < 0 or checkpoint_time_s < 0:
        raise CheckpointError("stall and checkpoint time must be >= 0")
    by_overhead = stall_s / (overhead_budget * iteration_s)
    by_pipeline = checkpoint_time_s / iteration_s
    return max(1, math.ceil(max(by_overhead, by_pipeline)))


@dataclass
class AdaptiveFrequencyTuner:
    """CheckFreq-style feedback controller for the checkpoint interval.

    Call :meth:`observe` after each checkpointed span with the measured
    per-iteration overhead fraction; the interval widens multiplicatively
    when over budget and narrows additively — by a fixed
    ``additive_step`` iterations — when well under it (AIMD, so the
    interval converges without oscillating).

    Attributes:
        interval: current interval in iterations.
        overhead_budget: target overhead fraction.
        min_interval / max_interval: clamps.
        additive_step: iterations removed per under-budget observation.
    """

    interval: int
    overhead_budget: float = 0.035
    min_interval: int = 1
    max_interval: int = 10_000
    headroom: float = 0.5  # tighten when overhead < headroom * budget
    additive_step: int = 1

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise CheckpointError(f"interval must be >= 1, got {self.interval}")
        if not 0 < self.overhead_budget < 1:
            raise CheckpointError(
                f"overhead_budget must be in (0, 1), got {self.overhead_budget}"
            )
        if not 1 <= self.min_interval <= self.max_interval:
            raise CheckpointError("min_interval must be <= max_interval")
        if self.additive_step < 1:
            raise CheckpointError(
                f"additive_step must be >= 1, got {self.additive_step}"
            )

    def observe(self, measured_overhead_fraction: float) -> int:
        """Feed one measurement; returns the (possibly updated) interval.

        Raises:
            CheckpointError: for negative measurements.
        """
        if measured_overhead_fraction < 0:
            raise CheckpointError(
                f"overhead fraction must be >= 0, got {measured_overhead_fraction}"
            )
        if measured_overhead_fraction > self.overhead_budget:
            # Over budget: back off multiplicatively.
            scale = measured_overhead_fraction / self.overhead_budget
            self.interval = math.ceil(self.interval * min(scale, 2.0))
        elif measured_overhead_fraction < self.headroom * self.overhead_budget:
            # Comfortable headroom: checkpoint more often.  The narrow step
            # is *additive* (a fixed number of iterations, independent of
            # the current interval) — ``interval // 10`` here would make
            # both directions multiplicative and the controller MIMD,
            # which oscillates instead of converging.
            self.interval = self.interval - self.additive_step
        self.interval = max(self.min_interval, min(self.max_interval, self.interval))
        return self.interval
