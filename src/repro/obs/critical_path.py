"""Critical-path, utilization and idle-slot analysis over a trace.

PR 3's crosscheck proves the per-phase totals are *right*; this module
explains where they *go*.  Three analyses over one parsed
:class:`~repro.obs.trace_io.Trace`:

1. **Pipeline critical path** (:func:`pipeline_critical_path`).  The
   three ``PipelinedRunner`` stage spans form the paper's happens-before
   DAG per save: item ``i`` of a stage depends on item ``i`` of the
   previous stage and on item ``i-1`` of its own stage.  The longest
   wall-time chain through that DAG is what a *pipelined* execution of
   the measured stage work would be bound by — which stage binds the
   encode→XOR-reduce→P2P pipeline.  The runner executes the stages in
   line on one thread, so a save's real makespan is the serial sum and
   overlap efficiency (serial work over makespan) reads ≈ 1.0.

2. **Thread utilization** (:func:`thread_utilization`).  Per worker
   thread, the merged busy intervals of its leaf spans over the trace
   window, via the same interval algebra as
   :mod:`repro.sim.timeline` — how much of the run each thread that
   opened spans actually worked.

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

:func:`analyze_trace` bundles all three plus the per-phase sim totals
(cross-checked against :func:`repro.analysis.breakdown.sum_breakdowns`
aggregates when report breakdowns are supplied) into one plain-dict
report; :func:`render_analysis` prints it for ``repro analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.breakdown import normalise_breakdown
from repro.errors import ReproError
from repro.obs.trace_io import Trace, crosscheck_totals, phase_totals
from repro.sim.network import TimeModel, gbps
from repro.sim.timeline import (
    Interval,
    intersect_intervals,
    merge_intervals,
    pipeline_schedule_timeline,
    total_duration,
)

#: Stage-span names in pipeline order (see ``repro.core.pipeline``).
PIPELINE_STAGES = ("pipeline.encode", "pipeline.xor_reduce", "pipeline.transfer")


# ---------------------------------------------------------------------------
# 1. Pipeline critical path
# ---------------------------------------------------------------------------
@dataclass
class StageNode:
    """One stage execution of one item inside a pipelined save."""

    stage: int
    item: int
    wall_s: float
    span_id: int


@dataclass
class PipelineCriticalPath:
    """Critical path through one save's three-stage pipeline."""

    parent_id: int
    items: int
    critical_wall_s: float
    path: List[StageNode]
    stage_wall_totals: Dict[str, float]
    serial_wall_s: float
    makespan_wall_s: float

    @property
    def overlap_efficiency(self) -> float:
        """Serial stage work / real makespan: 1.0 = no overlap (the in-line
        runner reads just under it), 3.0 = three perfectly overlapped stages."""
        if self.makespan_wall_s <= 0:
            return 1.0
        return self.serial_wall_s / self.makespan_wall_s

    @property
    def bottleneck_stage(self) -> str:
        return max(self.stage_wall_totals, key=self.stage_wall_totals.get)


def _stage_groups(
    spans: Iterable[Dict[str, Any]],
) -> Dict[int, Dict[int, List[Dict[str, Any]]]]:
    """parent span id -> stage index -> stage spans in start order."""
    groups: Dict[int, Dict[int, List[Dict[str, Any]]]] = {}
    for span in spans:
        if span["name"] not in PIPELINE_STAGES:
            continue
        parent = span.get("parent")
        if parent is None:
            continue
        stage = PIPELINE_STAGES.index(span["name"])
        groups.setdefault(parent, {}).setdefault(stage, []).append(span)
    for stages in groups.values():
        for stage_spans in stages.values():
            stage_spans.sort(key=lambda s: s["start"])
    return groups


def pipeline_critical_path(
    spans: Iterable[Dict[str, Any]],
) -> List[PipelineCriticalPath]:
    """Critical path per pipelined save found in ``spans``.

    Items are matched across stages by start order (the runner takes
    items in sequence, so the i-th span of a stage processes the i-th
    item).  Saves whose stages processed different item counts (e.g.
    torn by an injected crash) are skipped.
    """
    reports: List[PipelineCriticalPath] = []
    for parent_id, stages in sorted(_stage_groups(spans).items()):
        if sorted(stages) != list(range(len(PIPELINE_STAGES))):
            continue
        counts = {len(v) for v in stages.values()}
        if len(counts) != 1:
            continue  # torn save: stages saw different item counts
        (items,) = counts
        if items == 0:
            continue
        wall = {
            (s, i): stages[s][i]["wall_s"] or 0.0
            for s in stages
            for i in range(items)
        }
        # Longest chain: dist[(s, i)] = wall + max(dist upstream).
        dist: Dict[Tuple[int, int], float] = {}
        prev: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        for i in range(items):
            for s in range(len(PIPELINE_STAGES)):
                best, best_node = 0.0, None
                for dep in ((s, i - 1), (s - 1, i)):
                    if dep in dist and dist[dep] > best:
                        best, best_node = dist[dep], dep
                dist[(s, i)] = best + wall[(s, i)]
                prev[(s, i)] = best_node
        end = max(dist, key=dist.get)
        path: List[StageNode] = []
        node: Optional[Tuple[int, int]] = end
        while node is not None:
            s, i = node
            path.append(
                StageNode(
                    stage=s,
                    item=i,
                    wall_s=wall[node],
                    span_id=stages[s][i]["id"],
                )
            )
            node = prev[node]
        path.reverse()
        all_spans = [span for stage_spans in stages.values() for span in stage_spans]
        starts = [s["start"] for s in all_spans]
        ends = [s["start"] + (s["wall_s"] or 0.0) for s in all_spans]
        reports.append(
            PipelineCriticalPath(
                parent_id=parent_id,
                items=items,
                critical_wall_s=dist[end],
                path=path,
                stage_wall_totals={
                    PIPELINE_STAGES[s]: sum(
                        sp["wall_s"] or 0.0 for sp in stages[s]
                    )
                    for s in stages
                },
                serial_wall_s=sum(wall.values()),
                makespan_wall_s=max(ends) - min(starts),
            )
        )
    return reports


# ---------------------------------------------------------------------------
# 2. Thread busy/idle utilization
# ---------------------------------------------------------------------------
def thread_utilization(
    spans: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Per-thread busy seconds and busy fraction of the trace window.

    Only leaf spans count as busy time (a parent span covering its
    children would double-count), merged with the interval algebra from
    :mod:`repro.sim.timeline`.
    """
    spans = list(spans)
    if not spans:
        return {}
    has_children = {s["parent"] for s in spans if s.get("parent") is not None}
    window_start = min(s["start"] for s in spans)
    window_end = max(s["start"] + (s["wall_s"] or 0.0) for s in spans)
    window = max(window_end - window_start, 0.0)
    busy: Dict[str, List[Interval]] = {}
    for span in spans:
        if span["id"] in has_children:
            continue
        thread = span.get("thread") or "MainThread"
        busy.setdefault(thread, []).append(
            Interval(span["start"], span["start"] + (span["wall_s"] or 0.0))
        )
    out: Dict[str, Dict[str, float]] = {}
    for thread, intervals in sorted(busy.items()):
        seconds = total_duration(merge_intervals(intervals))
        out[thread] = {
            "busy_s": seconds,
            "busy_fraction": seconds / window if window > 0 else 0.0,
            "spans": float(len(intervals)),
        }
    return out


# ---------------------------------------------------------------------------
# 3. Idle-slot placement of checkpoint communication
# ---------------------------------------------------------------------------
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


def idle_slot_report(
    trace: Trace,
    stages: Optional[int] = None,
    microbatches: int = 8,
    forward_time: float = 0.35,
    activation_bytes: float = 200e6,
    time_model: Optional[TimeModel] = None,
) -> Optional[IdleSlotReport]:
    """Fit the traced P2P volume into the implied training idle slots.

    Uses the trace meta (engine shape, checkpoint interval) plus the
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
    tm = time_model or TimeModel()
    node_count = stages if stages is not None else int(trace.meta.get("nodes", 4))
    timeline = pipeline_schedule_timeline(
        stages=node_count,
        microbatches=microbatches,
        forward_time=forward_time,
        activation_bytes=activation_bytes,
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
_STAGE_ROWS = {PIPELINE_STAGES[0]: "step3_encode", PIPELINE_STAGES[2]: "step3_transfer"}


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

    save_phase_totals: Dict[str, float] = field(default_factory=dict)
    restore_phase_totals: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds per save step (see :func:`save_step_wall`).
    save_step_wall: Dict[str, float] = field(default_factory=dict)
    #: The ``PADDING_METRICS`` gauges of the last traced ECCheck save.
    padding: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds per restore step (see :func:`restore_step_wall`).
    restore_step_wall: Dict[str, float] = field(default_factory=dict)
    #: The ``RESTORE_DIGEST_METRICS`` gauges of the last traced restore.
    restore_digests: Dict[str, float] = field(default_factory=dict)
    #: Elastic-membership spans: background repair (derive/stream/commit)
    #: and degraded regroups, empty for traces without an elastic run.
    repair_phase_totals: Dict[str, float] = field(default_factory=dict)
    regroup_phase_totals: Dict[str, float] = field(default_factory=dict)
    #: Tier-stack spans: memory -> disk demotions (kind="tier"), empty
    #: for traces without a tier policy.
    tier_phase_totals: Dict[str, float] = field(default_factory=dict)
    #: Per-tier byte traffic summed from span attributes.
    tier_byte_flow: Dict[str, int] = field(default_factory=dict)
    crosscheck_problems: List[str] = field(default_factory=list)
    critical_paths: List[PipelineCriticalPath] = field(default_factory=list)
    utilization: Dict[str, Dict[str, float]] = field(default_factory=dict)
    idle_slots: Optional[IdleSlotReport] = None


def analyze_trace(
    trace: Trace,
    save_breakdowns: Optional[List[Dict[str, float]]] = None,
    restore_breakdowns: Optional[List[Dict[str, float]]] = None,
    repair_breakdowns: Optional[List[Dict[str, float]]] = None,
    regroup_breakdowns: Optional[List[Dict[str, float]]] = None,
    tier_breakdowns: Optional[List[Dict[str, float]]] = None,
    rel_tol: float = 1e-9,
) -> TraceAnalysis:
    """Run every analysis; reconcile against report breakdowns if given.

    ``repair_breakdowns``/``regroup_breakdowns`` come from an elastic
    run's :class:`~repro.elastic.repair.RepairReport` breakdowns and the
    controller's ``regroup_reports``; ``tier_breakdowns`` from a tiered
    run's :class:`~repro.checkpoint.base.DemotionReport` breakdowns.
    Their sim totals must match the trace's matching phase spans to
    ``rel_tol``.

    Raises:
        ReproError: if the trace holds no spans at all.
    """
    if not trace.spans:
        raise ReproError("trace contains no spans; nothing to analyze")
    gauges = trace.metrics.get("gauges", {})
    analysis = TraceAnalysis(
        padding={name: gauges[name] for name in PADDING_METRICS if name in gauges},
        restore_digests={n: gauges[n] for n in RESTORE_DIGEST_METRICS if n in gauges},
        save_phase_totals=phase_totals(trace.spans, kind="save"),
        restore_phase_totals=phase_totals(trace.spans, kind="restore"),
        save_step_wall=save_step_wall(trace.spans),
        restore_step_wall=restore_step_wall(trace.spans),
        repair_phase_totals=phase_totals(trace.spans, kind="repair"),
        regroup_phase_totals=phase_totals(trace.spans, kind="regroup"),
        tier_phase_totals=phase_totals(trace.spans, kind="tier"),
        tier_byte_flow=tier_byte_flow(trace.spans),
        critical_paths=pipeline_critical_path(trace.spans),
        utilization=thread_utilization(trace.spans),
        idle_slots=idle_slot_report(trace),
    )
    for totals, breakdowns in (
        (analysis.save_phase_totals, save_breakdowns),
        (analysis.restore_phase_totals, restore_breakdowns),
        (analysis.repair_phase_totals, repair_breakdowns),
        (analysis.regroup_phase_totals, regroup_breakdowns),
        (analysis.tier_phase_totals, tier_breakdowns),
    ):
        if breakdowns is not None:
            analysis.crosscheck_problems += crosscheck_totals(
                totals, breakdowns, rel_tol
            )
    return analysis


def _phase_lines(title: str, totals: Dict[str, float]) -> List[str]:
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


def render_analysis(analysis: TraceAnalysis) -> str:
    """ASCII report for ``repro analyze``."""
    lines: List[str] = []
    lines += _phase_lines("save phases (sim):", analysis.save_phase_totals)
    if analysis.restore_phase_totals:
        lines += _phase_lines("restore phases (sim):", analysis.restore_phase_totals)
    if analysis.save_step_wall:
        lines += _phase_lines("save steps (wall):", analysis.save_step_wall)
        if len(analysis.padding) == len(PADDING_METRICS):
            share, crcd, folded = (analysis.padding[name] for name in PADDING_METRICS)
            lines.append(
                f"  padding {share:.1%} of packet bytes; landing digests CRC'd "
                f"{crcd / 2**20:.2f} MiB, closed-form {folded / 2**20:.2f} MiB (last save)"
            )
    if analysis.restore_step_wall:
        lines += _phase_lines("restore steps (wall):", analysis.restore_step_wall)
        if len(analysis.restore_digests) == len(RESTORE_DIGEST_METRICS):
            crcd, derived = (analysis.restore_digests[n] for n in RESTORE_DIGEST_METRICS)
            lines.append(
                f"  digests of rebuilt chunk packets: {crcd:.0f} CRC'd, "
                f"{derived:.0f} derived by XOR algebra (last restore)"
            )
    if analysis.repair_phase_totals:
        lines += _phase_lines("repair phases (sim):", analysis.repair_phase_totals)
    if analysis.regroup_phase_totals:
        lines += _phase_lines("regroup phases (sim):", analysis.regroup_phase_totals)
    if analysis.tier_phase_totals:
        lines += _phase_lines("tier phases (sim):", analysis.tier_phase_totals)
    if any(analysis.tier_byte_flow.values()):
        lines.append("per-tier byte flow:")
        for key in TIER_BYTE_ATTRS:
            volume = analysis.tier_byte_flow.get(key, 0)
            if volume:
                lines.append(f"  {key:<28} {volume / 2**20:>12.1f} MiB")

    if analysis.critical_paths:
        lines.append("pipeline critical paths (wall):")
        lines.append("  (stages run in line: overlap reads ~1.00x; critical = a pipelined run's bound)")
        for cp in analysis.critical_paths:
            chain = " -> ".join(
                f"{PIPELINE_STAGES[n.stage].split('.', 1)[1]}[{n.item}]"
                for n in cp.path
            )
            lines.append(
                f"  save span {cp.parent_id}: {cp.items} items, "
                f"critical {cp.critical_wall_s * 1e3:.3f}ms / "
                f"makespan {cp.makespan_wall_s * 1e3:.3f}ms, "
                f"overlap {cp.overlap_efficiency:.2f}x, "
                f"bottleneck {cp.bottleneck_stage}"
            )
            lines.append(f"    {chain}")

    if analysis.utilization:
        lines.append("thread utilization (wall):")
        for thread, stats in analysis.utilization.items():
            lines.append(
                f"  {thread:<24} busy {stats['busy_s'] * 1e3:>9.3f}ms "
                f"({stats['busy_fraction']:>6.1%} of window, "
                f"{int(stats['spans'])} spans)"
            )

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

    for problem in analysis.crosscheck_problems:
        lines.append(f"CROSSCHECK PROBLEM: {problem}")
    return "\n".join(lines)
