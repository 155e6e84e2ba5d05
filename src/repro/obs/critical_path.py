"""Trace analysis behind ``repro analyze``: where a traced run's time goes.

:func:`analyze_trace` reads one parsed :class:`~repro.obs.trace_io.Trace`
and nothing else:

1. **Simulated phase totals per span kind** (save, restore, replicate,
   tier, repair, regroup — whatever kinds the trace holds), via
   :func:`repro.obs.trace_io.phase_totals_by_kind`.  The trace alone
   carries no report breakdowns, so nothing is reconciled here: the
   1e-9 check against the reports runs where the reports live
   (:func:`repro.obs.trace_io.reconcile_phases`, called by ``repro
   trace`` and the hybrid and tier campaigns in traced mode).

2. **Wall-clock step attribution** of saves (:func:`save_step_wall`,
   step 3 split into its encode and transfer stage spans) and restores
   (:func:`restore_step_wall`), each closing with an ``(unattributed)``
   remainder so the rows sum to the enclosing wall time.

3. **Idle-slot placement** (:func:`idle_slot_report`).  Rebuilds the
   training iteration timeline the run's cluster shape implies
   (:func:`repro.sim.timeline.pipeline_schedule_timeline`), profiles its
   NIC idle slots, and fits the traced per-checkpoint inter-node volume
   (the ``p2p.bytes_inter_node`` counter) into them with
   :func:`repro.core.scheduler.schedule_checkpoint_comm`.  Reports how
   much checkpoint traffic lands in idle slots versus overflows into
   training time — and, for contrast, how much a naive scheduler that
   starts transfers at iteration start would collide with training
   comms (:func:`repro.sim.timeline.intersect_intervals`).

:func:`render_analysis` prints the bundle; :func:`phase_table` is the one
per-phase table both it and ``repro trace`` print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.analysis.breakdown import normalise_breakdown
from repro.errors import ReproError
from repro.obs.trace_io import Trace, phase_totals_by_kind
from repro.sim.network import TimeModel, gbps
from repro.sim.timeline import (
    Interval,
    intersect_intervals,
    pipeline_schedule_timeline,
    total_duration,
)

#: Display order of span kinds; kinds not listed follow, sorted.
KIND_ORDER = ("save", "restore", "repair", "regroup", "replicate", "tier")


def ordered_kinds(kinds: Iterable[str]) -> List[str]:
    """``kinds`` in :data:`KIND_ORDER`, unlisted kinds last."""
    rank = {kind: i for i, kind in enumerate(KIND_ORDER)}
    return sorted(kinds, key=lambda k: (rank.get(k, len(KIND_ORDER)), str(k)))


def phase_table(title: str, totals: Dict[str, float]) -> List[str]:
    """One titled table of per-phase seconds, their shares and the total."""
    lines = [title]
    if not totals:
        return lines + ["  (none)"]
    shares = (
        normalise_breakdown(totals)
        if sum(totals.values()) > 0
        else {p: 0.0 for p in totals}
    )
    for phase in sorted(totals):
        lines.append(f"  {phase:<28} {totals[phase]:>12.6f}s {shares[phase]:>6.1%}")
    lines.append(f"  {'total':<28} {sum(totals.values()):>12.6f}s")
    return lines


# ---------------------------------------------------------------------------
# Idle-slot placement of checkpoint communication
# ---------------------------------------------------------------------------
#: The training timeline the idle-slot analysis rebuilds: Fig. 12's GPipe
#: shape (stage count from the trace meta).
GPIPE_MICROBATCHES = 8
GPIPE_FORWARD_S = 0.35
GPIPE_ACTIVATION_BYTES = 200e6


@dataclass
class IdleSlotReport:
    """How traced checkpoint traffic fits the training network's idle slots."""

    iteration_time_s: float
    idle_fraction: float
    saves: int
    interval_iterations: float
    bytes_inter_node_per_save: float
    comm_seconds_per_save: float
    in_idle_seconds: float
    overflow_seconds: float
    in_idle_bytes: float
    collided_bytes: float
    naive_collision_seconds: float
    fits_in_idle: bool

    @property
    def in_idle_fraction(self) -> float:
        if self.comm_seconds_per_save <= 0:
            return 1.0
        return self.in_idle_seconds / self.comm_seconds_per_save


def idle_slot_report(trace: Trace) -> Optional[IdleSlotReport]:
    """Fit the traced P2P volume into the implied training idle slots.

    Uses the trace meta (node count, checkpoint interval) plus the
    ``p2p.bytes_inter_node`` counter; the training timeline comes from
    the same GPipe model Fig. 12 uses, with its default knobs.  Returns
    ``None`` when the trace carries no completed saves or no inter-node
    volume (nothing to schedule).
    """
    # Imported here, not at module scope: ``repro.core`` engines import
    # ``repro.obs`` for instrumentation, so a top-level import would make
    # ``repro.checkpoint.base`` -> obs -> core -> base a circular chain.
    from repro.core.scheduler import profile_idle_slots, schedule_checkpoint_comm

    saves = [
        s
        for s in trace.spans
        if (s.get("attrs") or {}).get("kind") == "save"
        and s.get("parent") is None
        and s.get("sim_s") is not None
    ]
    counters = (trace.metrics or {}).get("counters", {})
    total_bytes = float(counters.get("p2p.bytes_inter_node", 0.0))
    if not saves or total_bytes <= 0:
        return None
    tm = TimeModel()
    node_count = int(trace.meta.get("nodes", 4))
    timeline = pipeline_schedule_timeline(
        stages=node_count,
        microbatches=GPIPE_MICROBATCHES,
        forward_time=GPIPE_FORWARD_S,
        activation_bytes=GPIPE_ACTIVATION_BYTES,
        time_model=tm,
    )
    profile = profile_idle_slots(timeline)
    interval = float(trace.meta.get("interval", 1) or 1)

    per_save_bytes = total_bytes / len(saves)
    per_node_bytes = per_save_bytes / node_count
    comm_seconds = per_node_bytes / gbps(tm.inter_node_gbps)
    outcome = schedule_checkpoint_comm(
        profile,
        {stage: comm_seconds for stage in range(node_count)},
        interval,
    )
    in_idle_seconds = comm_seconds - outcome.overflow_seconds
    bandwidth = gbps(tm.inter_node_gbps)

    # Contrast: a scheduler that just starts the transfer at iteration
    # start overlaps the busiest stage's training comms head-on.
    naive_collision = max(
        total_duration(
            intersect_intervals(
                [Interval(0.0, min(comm_seconds, timeline.iteration_time))],
                timeline.busy_intervals(stage),
            )
        )
        for stage in range(node_count)
    )
    idle_fraction = (
        profile.bottleneck_idle_seconds / timeline.iteration_time
        if timeline.iteration_time > 0
        else 0.0
    )
    return IdleSlotReport(
        iteration_time_s=timeline.iteration_time,
        idle_fraction=idle_fraction,
        saves=len(saves),
        interval_iterations=interval,
        bytes_inter_node_per_save=per_save_bytes,
        comm_seconds_per_save=comm_seconds,
        in_idle_seconds=in_idle_seconds,
        overflow_seconds=outcome.overflow_seconds,
        in_idle_bytes=in_idle_seconds * bandwidth * node_count,
        collided_bytes=outcome.overflow_seconds * bandwidth * node_count,
        naive_collision_seconds=naive_collision,
        fits_in_idle=outcome.fits_in_idle,
    )


# ---------------------------------------------------------------------------
# Per-tier byte flow
# ---------------------------------------------------------------------------
#: Span attributes that carry tier traffic, in storage-hierarchy order.
TIER_BYTE_ATTRS = (
    "bytes_to_disk",
    "bytes_from_disk",
    "bytes_to_remote",
    "bytes_from_remote",
)


def tier_byte_flow(spans: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Sum per-tier byte traffic over span attributes.

    Demotion spans carry ``bytes_to_disk``, restore spans
    ``bytes_from_disk``/``bytes_from_remote``, backup saves
    ``bytes_to_remote`` — together the full byte ledger of the tier
    stack, derived purely from the trace.
    """
    flow = {attr: 0 for attr in TIER_BYTE_ATTRS}
    for span in spans:
        attrs = span.get("attrs") or {}
        for key in TIER_BYTE_ATTRS:
            value = attrs.get(key)
            if value:
                flow[key] += int(value)
    return flow


#: Spans of one engine save, the tier demotion a manager runs with it, and
#: the span the wall-clock ledger (``benchmarks/perf``) wraps around both.
SAVE_SPANS = ("eccheck.save", "eccheck.save_incremental")
DEMOTE_SPAN = "eccheck.demote"
SAVE_OP_SPAN = "op.save"
#: Step 3's stage spans (see ``repro.core.pipeline``) and their rows.
_STAGE_ROWS = {"pipeline.encode": "step3_encode", "pipeline.transfer": "step3_transfer"}


PADDING_METRICS = ("save.padding_share", "integrity.bytes_digested", "integrity.bytes_closed_form")
RESTORE_DIGEST_METRICS = ("restore.digests_crcd", "restore.digests_derived")


def save_step_wall(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Wall seconds per save step, summed over the trace.

    Rows: the engine's step spans by their ``attrs["phase"]``, with step 3
    split into its encode and transfer stage spans (``step3_encode``,
    ``step3_transfer``) and ``step3_other`` for what is left of it (all
    of a delta save's step 3, which has no stage spans); plus ``demote``.
    ``(unattributed)`` is the rest of the enclosing wall time, so the rows
    sum to it: the ``op.save`` span around a save or demotion where the
    trace has one (the ledger's), else the engine's own span.
    """
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}
    totals: Dict[str, float] = {}
    enclosing: Dict[int, float] = {}

    def add(row: str, wall: float) -> None:
        totals[row] = totals.get(row, 0.0) + wall

    for span in spans:
        parent = by_id.get(span.get("parent"), {})
        in_save = by_id.get(parent.get("parent"), {}).get("name") in SAVE_SPANS
        phase = (span.get("attrs") or {}).get("phase")
        wall = span["wall_s"] or 0.0
        if phase and parent.get("name") in SAVE_SPANS:
            add("step3_other" if phase.startswith("step3_") else phase, wall)
        elif span["name"] in _STAGE_ROWS and in_save:
            add(_STAGE_ROWS[span["name"]], wall)
            add("step3_other", -wall)
        elif span["name"] == DEMOTE_SPAN:
            add("demote", wall)
        if span["name"] in (*SAVE_SPANS, DEMOTE_SPAN):
            op = parent if parent.get("name") == SAVE_OP_SPAN else span
            enclosing[op["id"]] = op["wall_s"] or 0.0
    if totals:
        totals["(unattributed)"] = sum(enclosing.values()) - sum(totals.values())
    return totals


def restore_step_wall(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Wall seconds per ``eccheck.restore`` step, summed over the trace.

    The engine brackets a restore's steps (locate + verify, decode,
    install, rebuild redundancy) with wall-only child spans tagged
    ``attrs["step"]``; ``(unattributed)`` is the restore spans' wall time
    that no step covers, so the rows sum to the restores' wall time.
    """
    spans = list(spans)
    restores = {s["id"]: s for s in spans if s["name"] == "eccheck.restore"}
    totals: Dict[str, float] = {}
    for span in spans:
        step = (span.get("attrs") or {}).get("step")
        if step is not None and span.get("parent") in restores:
            totals[step] = totals.get(step, 0.0) + span["wall_s"]
    if totals:
        totals["(unattributed)"] = sum(
            s["wall_s"] for s in restores.values()
        ) - sum(totals.values())
    return totals


# ---------------------------------------------------------------------------
# Bundled analysis
# ---------------------------------------------------------------------------
@dataclass
class TraceAnalysis:
    """Everything ``repro analyze`` reports for one trace."""

    #: Simulated seconds per phase, per span kind present in the trace.
    phase_totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Wall seconds per save step (see :func:`save_step_wall`).
    save_step_wall: Dict[str, float] = field(default_factory=dict)
    #: The ``PADDING_METRICS`` gauges of the last traced ECCheck save.
    padding: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds per restore step (see :func:`restore_step_wall`).
    restore_step_wall: Dict[str, float] = field(default_factory=dict)
    #: The ``RESTORE_DIGEST_METRICS`` gauges of the last traced restore.
    restore_digests: Dict[str, float] = field(default_factory=dict)
    #: Per-tier byte traffic summed from span attributes.
    tier_byte_flow: Dict[str, int] = field(default_factory=dict)
    idle_slots: Optional[IdleSlotReport] = None


def analyze_trace(trace: Trace) -> TraceAnalysis:
    """Run every analysis over ``trace``.

    Raises:
        ReproError: if the trace holds no spans at all.
    """
    if not trace.spans:
        raise ReproError("trace contains no spans; nothing to analyze")
    gauges = trace.metrics.get("gauges", {})
    return TraceAnalysis(
        phase_totals=phase_totals_by_kind(trace.spans),
        padding={name: gauges[name] for name in PADDING_METRICS if name in gauges},
        restore_digests={n: gauges[n] for n in RESTORE_DIGEST_METRICS if n in gauges},
        save_step_wall=save_step_wall(trace.spans),
        restore_step_wall=restore_step_wall(trace.spans),
        tier_byte_flow=tier_byte_flow(trace.spans),
        idle_slots=idle_slot_report(trace),
    )


def render_analysis(analysis: TraceAnalysis) -> str:
    """ASCII report for ``repro analyze``."""
    totals = analysis.phase_totals
    lines: List[str] = []
    lines += phase_table("save phases (sim):", totals.get("save", {}))
    if totals.get("restore"):
        lines += phase_table("restore phases (sim):", totals["restore"])
    if analysis.save_step_wall:
        lines += phase_table("save steps (wall):", analysis.save_step_wall)
        if len(analysis.padding) == len(PADDING_METRICS):
            share, crcd, folded = (analysis.padding[name] for name in PADDING_METRICS)
            lines.append(
                f"  padding {share:.1%} of packet bytes; landing digests CRC'd "
                f"{crcd / 2**20:.2f} MiB, closed-form {folded / 2**20:.2f} MiB (last save)"
            )
    if analysis.restore_step_wall:
        lines += phase_table("restore steps (wall):", analysis.restore_step_wall)
        if len(analysis.restore_digests) == len(RESTORE_DIGEST_METRICS):
            crcd, derived = (analysis.restore_digests[n] for n in RESTORE_DIGEST_METRICS)
            lines.append(
                f"  digests of rebuilt chunk packets: {crcd:.0f} CRC'd, "
                f"{derived:.0f} derived by XOR algebra (last restore)"
            )
    for kind in ordered_kinds(set(totals) - {"save", "restore"}):
        lines += phase_table(f"{kind} phases (sim):", totals[kind])
    if any(analysis.tier_byte_flow.values()):
        lines.append("per-tier byte flow:")
        for key in TIER_BYTE_ATTRS:
            volume = analysis.tier_byte_flow.get(key, 0)
            if volume:
                lines.append(f"  {key:<28} {volume / 2**20:>12.1f} MiB")

    slot = analysis.idle_slots
    if slot is not None:
        lines.append("idle-slot placement (sim):")
        lines.append(
            f"  iteration {slot.iteration_time_s:.3f}s, "
            f"bottleneck idle {slot.idle_fraction:.1%}, "
            f"interval {slot.interval_iterations:g} iters"
        )
        lines.append(
            f"  per save: {slot.bytes_inter_node_per_save / 2**20:.1f} MiB "
            f"inter-node = {slot.comm_seconds_per_save:.4f}s NIC time/node"
        )
        lines.append(
            f"  in idle slots: {slot.in_idle_seconds:.4f}s "
            f"({slot.in_idle_fraction:.1%}, {slot.in_idle_bytes / 2**20:.1f} MiB); "
            f"overflow into training: {slot.overflow_seconds:.4f}s "
            f"({slot.collided_bytes / 2**20:.1f} MiB)"
        )
        lines.append(
            f"  naive (no idle-slot scheduling) collision: "
            f"{slot.naive_collision_seconds:.4f}s/save"
        )
        lines.append(
            "  fits in idle: " + ("yes" if slot.fits_in_idle else "NO")
        )
    return "\n".join(lines)
