"""Breakdown helpers for Figs. 4 and 11.

Fig. 4 decomposes a remote checkpoint's latency into serialization time
versus transfer ("other") time as remote bandwidth varies — the motivation
for the serialization-free protocol.  Fig. 11 decomposes ECCheck's save
time into its three steps; engines already report per-step seconds, so
here we only normalise.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.sim.network import TimeModel, gbps


def serialization_fraction(
    checkpoint_bytes: int,
    remote_gbps: float,
    time_model: TimeModel | None = None,
    workers: int = 1,
) -> tuple[float, float, float]:
    """Fig. 4's quantities for one configuration.

    Args:
        checkpoint_bytes: total checkpoint size.
        remote_gbps: aggregate bandwidth to remote storage.
        time_model: supplies the serialization throughput.
        workers: writers serializing concurrently (each handles an equal
            share, as in the 4-GPU setup of Fig. 4).

    Returns:
        ``(serialize_seconds, transfer_seconds, serialize_fraction)``.

    Raises:
        ReproError: for non-positive bandwidth or workers.
    """
    if remote_gbps <= 0:
        raise ReproError(f"remote_gbps must be positive, got {remote_gbps}")
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    tm = time_model or TimeModel()
    serialize = tm.serialize_time(checkpoint_bytes // workers)
    transfer = checkpoint_bytes / gbps(remote_gbps)
    return serialize, transfer, serialize / (serialize + transfer)


def sum_breakdowns(breakdowns: list[dict[str, float]]) -> dict[str, float]:
    """Phase-wise sum over several report breakdowns.

    The aggregate the trace crosscheck
    (:func:`repro.obs.trace_io.reconcile_phases`) reconciles against: for
    a run with N saves, the traced per-phase totals must equal this sum
    over the N ``SaveReport`` breakdowns.
    """
    total: dict[str, float] = {}
    for breakdown in breakdowns:
        for phase, seconds in breakdown.items():
            total[phase] = total.get(phase, 0.0) + float(seconds)
    return total


def normalise_breakdown(breakdown: dict[str, float]) -> dict[str, float]:
    """Per-step fractions of a report's breakdown (Fig. 11's bar shares).

    Only the top-level step entries (``step1_*``/``step2_*``/``step3_*`` or
    arbitrary keys) are normalised; callers pass the subset they plot.

    Raises:
        ReproError: if the breakdown is empty or sums to zero.
    """
    if not breakdown:
        raise ReproError("empty breakdown")
    total = sum(breakdown.values())
    if total <= 0:
        raise ReproError(f"breakdown sums to {total}")
    return {key: value / total for key, value in breakdown.items()}
