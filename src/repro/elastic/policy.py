"""Redundancy policy: degraded-shape selection and adaptive (k, m).

Two decisions live here, both pure functions of observable state so the
controller stays a thin orchestrator:

* :func:`choose_degraded_shape` — after ``f`` unreplaced losses, which
  shrunk ``(k', m')`` should the survivors regroup to?  Parity is
  sacrificed before data capacity, but never below the configured
  *redundancy floor*; when no admissible shape exists, checkpointing
  must block until a spare arrives.
* :class:`RedundancyPolicy` — an online controller that estimates MTBF
  from the observed failure stream and recommends a full-strength
  ``(k, m)`` split: back off to more parity multiplicatively-fast when
  failures cluster, reclaim capacity additively-slow when the cluster
  stays quiet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import CheckpointError


def admissible_shapes(
    n_active: int, world_size: int, floor: int
) -> list[tuple[int, int]]:
    """All ``(k', m')`` with ``k' + m' = n_active``, ``m' >= floor``,
    ``k' >= 1`` and ``k'`` dividing the world size, best (largest m') first.
    """
    shapes = []
    for m in range(n_active - 1, floor - 1, -1):
        k = n_active - m
        if k >= 1 and world_size % k == 0:
            shapes.append((k, m))
    return shapes


def choose_degraded_shape(
    n_active: int,
    world_size: int,
    current_m: int,
    floor: int = 1,
) -> tuple[int, int] | None:
    """Pick the shrunk ``(k', m')`` for ``n_active`` survivors.

    Preference order: the largest ``m' <= current_m`` that still admits a
    valid ``k'`` (keep as much of the original protection as the node
    count allows, without inflating parity overhead beyond what was
    provisioned).  Returns ``None`` when no shape clears the floor —
    the signal to refuse degraded checkpointing.

    Raises:
        CheckpointError: for non-positive ``n_active``/``world_size`` or
            a negative floor.
    """
    if n_active < 1:
        raise CheckpointError(f"n_active must be >= 1, got {n_active}")
    if world_size < 1:
        raise CheckpointError(f"world_size must be >= 1, got {world_size}")
    if floor < 0:
        raise CheckpointError(f"redundancy floor must be >= 0, got {floor}")
    candidates = admissible_shapes(n_active, world_size, floor)
    under_provisioned = [(k, m) for k, m in candidates if m <= current_m]
    if under_provisioned:
        return under_provisioned[0]
    # Every admissible k forces MORE parity than provisioned (divisibility
    # gaps); taking extra protection still beats refusing to checkpoint.
    return candidates[0] if candidates else None


#: Lower clamp on the recommended parity count.
MIN_M = 1
#: Failures to see before trusting the MTBF estimate.
MIN_OBSERVATIONS = 2


@dataclass
class RedundancyPolicy:
    """MTBF-driven recommender for the full-strength ``(k, m)`` split.

    Call :meth:`observe_failure` for every failure event; :meth:`recommend`
    then proposes a split whose parity count covers the failures expected
    within one repair window (the time the cluster needs to return to full
    redundancy), clamped to ``[MIN_M, max_m]`` and to shapes where ``k``
    divides the world size.  Adjustment is AIMD-shaped: the recommendation
    can jump up by several parities at once, but steps down one at a time
    and only after a quiet period.

    Attributes:
        repair_window_s: assumed exposure window per failure (provisioning
            + repair time); more failures expected inside it -> more parity.
        max_m: upper clamp on the recommended parity count.
        failure_times: the observed failure stream (fed by
            :meth:`observe_failure`).
    """

    repair_window_s: float = 1800.0
    max_m: int = 8
    failure_times: list[float] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.repair_window_s <= 0:
            raise CheckpointError(
                f"repair_window_s must be positive, got {self.repair_window_s}"
            )
        if self.max_m < MIN_M:
            raise CheckpointError(f"max_m must be >= {MIN_M}, got {self.max_m}")

    def observe_failure(self, sim_time: float, count: int = 1) -> None:
        """Record ``count`` simultaneous failures at ``sim_time``.

        Raises:
            CheckpointError: for a time regression or non-positive count.
        """
        if count < 1:
            raise CheckpointError(f"count must be >= 1, got {count}")
        if self.failure_times and sim_time < self.failure_times[-1]:
            raise CheckpointError(
                f"failure time {sim_time} precedes last observation "
                f"{self.failure_times[-1]}"
            )
        self.failure_times.extend([float(sim_time)] * count)

    def mtbf_estimate(self) -> float | None:
        """Mean seconds between observed failures (None = too few data)."""
        if len(self.failure_times) < MIN_OBSERVATIONS:
            return None
        span = self.failure_times[-1] - self.failure_times[0]
        if span <= 0:
            return None
        return span / (len(self.failure_times) - 1)

    def recommend(
        self, n: int, current_m: int, world_size: int
    ) -> tuple[int, int] | None:
        """Full-strength ``(k, m)`` recommendation (None = keep current).

        The target parity is the expected failure count within one repair
        window (rounded up, floor 1): ``ceil(repair_window / MTBF)``.
        Moving up adopts the target immediately; moving down goes one
        step at a time so a single quiet stretch cannot strip protection.
        """
        if n < 2:
            return None
        mtbf = self.mtbf_estimate()
        if mtbf is None:
            return None
        expected = self.repair_window_s / mtbf
        target_m = max(MIN_M, min(self.max_m, math.ceil(expected)))
        if target_m > current_m:
            m = min(int(target_m), n - 1)
        elif target_m < current_m:
            m = current_m - 1
        else:
            return None
        # Snap to the nearest admissible shape at or below the move.
        for candidate_m in range(m, 0, -1):
            k = n - candidate_m
            if k >= 1 and world_size % k == 0:
                if (k, candidate_m) == (n - current_m, current_m):
                    return None
                return (k, candidate_m)
        return None
