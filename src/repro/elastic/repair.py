"""Background redundancy repair: re-derive, stream, commit.

When a spare joins after a degraded stretch, the latest committed
checkpoint version must return to its full ``(k, m)`` layout.  The
repair planner diffs the *target* placement against what is actually
whole in host memory and emits a :class:`RepairLedger` of missing chunk
packets; the executor then

1. **derives** every worker packet from any ``k`` surviving chunks of
   the version's *source* placement (reading data chunks directly and
   decoding only when some are gone),
2. **streams** the target layout's missing packets to their nodes,
   marking each ledger item done only *after* the bytes (and digest)
   landed — so a crash mid-stream leaves a ledger whose ``done`` set is
   a sound lower bound and the repair resumes idempotently, and
3. **commits**: metadata is rebroadcast to every target node first, and
   the version is re-pointed at the target placement last — the flip is
   the commit record, mirroring the save flow's metadata-last rule.

Transfers are costed through the cluster network model and, when a
training timeline is supplied, packed into profiled idle slots exactly
like checkpoint traffic (paper Sec. IV-B3) so repair never contends
with activation/gradient exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import RecoveryError
from repro.core.placement import PlacementPlan
from repro.core.protocol import encode_group_into
from repro.core.scheduler import pack_into_slots, profile_idle_slots
from repro.sim.network import TransferRequest, gbps

#: Fault-injection hooks inside a repair run, in execution order.
REPAIR_CRASH_POINTS = ("post_derive", "mid_stream", "pre_commit")


@dataclass(frozen=True)
class RepairItem:
    """One chunk packet the target layout needs on ``node``."""

    node: int
    kind: str
    idx: int
    r: int


@dataclass
class RepairLedger:
    """Resumable record of one repair generation's remaining work.

    ``done`` only ever grows, and only after the corresponding packet is
    durable in host memory — marked implies present-and-digest-valid
    (the invariant :func:`repro.chaos.invariants.check_repair_ledger`
    re-derives from raw storage).  A crash between store and mark merely
    redoes one idempotent transfer on resume.
    """

    version: int
    generation: int
    target_plan: PlacementPlan
    items: list[RepairItem]
    #: Storage epoch the items stream under.  A layout-changing repair
    #: stages into its generation's epoch so the version's authoritative
    #: bytes stay whole until the commit flip; a same-layout repair fills
    #: gaps in the version's current epoch directly.
    epoch: int = 0
    done: set[int] = field(default_factory=set)
    committed: bool = False

    @property
    def complete(self) -> bool:
        return len(self.done) == len(self.items)

    def pending(self) -> list[tuple[int, RepairItem]]:
        """(index, item) pairs not yet marked done, in plan order."""
        return [(i, it) for i, it in enumerate(self.items) if i not in self.done]

    def done_items(self) -> list[RepairItem]:
        return [self.items[i] for i in sorted(self.done)]

    def mark_done(self, index: int) -> None:
        if not 0 <= index < len(self.items):
            raise RecoveryError(f"ledger index {index} out of range")
        self.done.add(index)

    def progress(self) -> dict:
        return {
            "version": self.version,
            "generation": self.generation,
            "total": len(self.items),
            "done": len(self.done),
            "committed": self.committed,
        }


def plan_repair(
    engine, version: int, target_plan: PlacementPlan, generation: int = 0
) -> RepairLedger:
    """Diff the target layout against host memory; ledger the gaps.

    Every (node, kind, idx, r) packet the target placement expects that
    is missing or digest-corrupt becomes a ledger item.  When the repair
    *changes* layout, the storage diff is unsafe: chunk keys carry no
    layout identity, so a stale packet of the old shape can sit under the
    exact key the target expects, digest-valid but encoding different
    bytes.  Layout-changing repairs therefore ledger every target packet
    unconditionally and stream into a fresh staging epoch (the
    generation); resume-after-crash dedup comes from the ledger's
    ``done`` set (the controller reuses the ledger across a crash), not
    from re-diffing storage.
    """
    groups = range(len(target_plan.data_group[0]))
    relayout = target_plan != engine.placement_of(version)
    epoch = generation if relayout else engine.epoch_of(version)
    nodes = range(engine.job.cluster.num_nodes)
    whole = {}
    if not relayout:
        whole = engine._survey(version, nodes, records=engine._records(version, nodes))
    placed = [("data", j, node) for j, node in enumerate(target_plan.data_nodes)]
    placed += [("parity", i, node) for i, node in enumerate(target_plan.parity_nodes)]
    items = [
        RepairItem(node=node, kind=kind, idx=idx, r=r)
        for cid, (kind, idx, node) in enumerate(placed)
        if cid not in whole
        for r in groups
    ]
    return RepairLedger(
        version=version,
        generation=generation,
        target_plan=target_plan,
        items=items,
        epoch=epoch,
    )


@dataclass
class RepairReport:
    """Outcome and costed timing of one repair run."""

    version: int
    generation: int
    items_total: int
    items_repaired: int
    derive_seconds: float
    stream_seconds: float
    commit_seconds: float
    bytes_streamed: int
    #: (iteration, Interval) idle-slot assignments when a timeline was
    #: supplied; empty means the transfer was costed unscheduled.
    slot_assignments: list = field(default_factory=list)

    @property
    def repair_seconds(self) -> float:
        return self.derive_seconds + self.stream_seconds + self.commit_seconds

    def breakdown(self) -> dict:
        return {
            "repair_derive": self.derive_seconds,
            "repair_stream": self.stream_seconds,
            "repair_commit": self.commit_seconds,
        }


class RepairExecutor:
    """Runs one repair generation against an ECCheck engine.

    Args:
        engine: the :class:`~repro.core.eccheck.ECCheckEngine`.
        ledger: the generation's work list (see :func:`plan_repair`).
        crash_injector: optional
            :class:`~repro.chaos.injection.CrashInjector` armed on
            :data:`REPAIR_CRASH_POINTS`; raises mid-run like a real
            process crash, leaving the ledger partially marked.
    """

    crash_points = REPAIR_CRASH_POINTS

    def __init__(self, engine, ledger: RepairLedger, crash_injector=None):
        self.engine = engine
        self.ledger = ledger
        self.crash_injector = crash_injector

    def _fire(self, point: str, **context) -> None:
        if self.crash_injector is not None:
            try:
                self.crash_injector(point, **context)
            except BaseException:
                tracer = obs.get_tracer()
                if tracer.enabled:
                    tracer.event("repair_crash_fired", point=point, **context)
                raise

    # ------------------------------------------------------------------
    def run(self, timeline=None) -> RepairReport:
        """Execute derive -> stream -> commit; returns the costed report.

        Raises:
            RecoveryError: when the version's commit record is incomplete
                or fewer than ``k`` source chunks survive.
            InjectedCrash: propagated from an armed crash injector.
        """
        ledger = self.ledger
        version = ledger.version
        tracer = obs.get_tracer()
        with tracer.span(
            "elastic.repair",
            kind="repair",
            version=version,
            generation=ledger.generation,
        ) as span:
            report = self._run_impl(timeline)
            span.add_sim(report.repair_seconds)
            obs.record_phases(tracer, span, report.breakdown(), kind="repair")
            if tracer.enabled:
                tracer.metrics.counter("elastic.repairs_committed").inc()
                tracer.metrics.gauge("elastic.repair_items").set(
                    report.items_repaired
                )
        return report

    def _run_impl(self, timeline) -> RepairReport:
        engine = self.engine
        ledger = self.ledger
        version = ledger.version
        target = ledger.target_plan
        source_epoch = engine.epoch_of(version)
        tm = engine.job.time_model
        logical_packet = engine.logical_packet_bytes()
        # One commit record for the whole run: derive, encode, stream and
        # commit read the same lengths and rebroadcast the same blobs.
        records = engine._records(version, range(engine.job.cluster.num_nodes))
        if records is None:
            raise RecoveryError(
                f"v{version} has no complete commit record to repair from"
            )

        # --- derive: every worker's packet from any k source chunks. ---
        packets, decoded_groups, source_holder = self._derive_worker_packets(
            version, records
        )
        self._fire("post_derive", version=version, generation=ledger.generation)
        derive_seconds = 0.0
        if decoded_groups:
            derive_seconds = tm.encode_time(
                engine.placement_of(version).k * logical_packet * decoded_groups,
                threads=engine.config.encode_threads,
            )

        # --- compute the target layout's missing parity rows: one fused
        # pass per group, straight into the buffers that are stored. ----
        pending = ledger.pending()
        code = engine.code_for(target.k, target.m)
        rows_of: dict[int, list[int]] = {}
        for _, item in pending:
            if item.kind == "parity":
                rows_of.setdefault(item.r, []).append(item.idx)
        parity_of: dict[tuple[int, int], np.ndarray] = {}
        for r, rows in rows_of.items():
            group = [packets[target.data_group[j][r]] for j in range(target.k)]
            rebuilt = [np.empty_like(group[0]) for _ in rows]
            encode_group_into(
                code, group, rebuilt, rows=rows,
                lengths=[records[g[r]][1] for g in target.data_group],
            )
            parity_of.update({(r, i): buf for i, buf in zip(rows, rebuilt)})

        # --- stream: store each missing packet, then mark it done. ----
        requests: list[TransferRequest] = []
        bytes_streamed = 0
        for index, item in pending:
            if item.kind == "data":
                # A copy: the packet may be a source chunk read in place.
                payload = packets[target.data_group[item.idx][item.r]].copy()
            else:
                payload = parity_of[item.r, item.idx]
            engine._store_chunk_packet(
                item.node,
                version,
                item.kind,
                item.idx,
                item.r,
                payload,
                epoch=ledger.epoch,
                live=engine.live_bytes(target, records, item.kind, item.idx, item.r),
            )
            # The crash window sits between store and mark: a hit here
            # leaves the packet durable but unmarked — safe to redo.
            self._fire(
                "mid_stream",
                version=version,
                generation=ledger.generation,
                item=(item.node, item.kind, item.idx, item.r),
            )
            ledger.mark_done(index)
            requests.append(
                TransferRequest(
                    src=source_holder, dst=item.node, nbytes=logical_packet
                )
            )
            if source_holder != item.node:
                bytes_streamed += logical_packet
        stream_seconds = (
            engine.network.simulate(requests).makespan if requests else 0.0
        )

        # --- schedule the stream into profiled idle slots. ------------
        assignments: list = []
        if timeline is not None and stream_seconds > 0:
            profile = profile_idle_slots(timeline)
            stage = min(profile.slots_per_stage) if profile.slots_per_stage else 0
            assignments = pack_into_slots(
                profile.slots_per_stage.get(stage, []), stream_seconds
            )

        # --- commit: metadata everywhere first, placement flip last. --
        self._fire("pre_commit", version=version, generation=ledger.generation)
        target_nodes = sorted(set(target.data_nodes) | set(target.parity_nodes))
        engine._put_records(version, records, target_nodes)
        meta_bytes = sum(len(blob) for blob, _ in records)
        commit_seconds = (
            meta_bytes * max(0, len(target_nodes) - 1)
            / gbps(tm.inter_node_gbps)
        )
        engine.set_placement_of(version, target, epoch=ledger.epoch)
        ledger.committed = True
        # The superseded epoch's chunks are dead weight; collect them
        # now that the flip committed (a crash before this point leaves
        # the source epoch whole for restore, a crash after merely
        # leaks garbage).
        if source_epoch != engine.epoch_of(version):
            engine._move(version, engine.host, epoch=source_epoch)
        return RepairReport(
            version=version,
            generation=ledger.generation,
            items_total=len(ledger.items),
            items_repaired=len(pending),
            derive_seconds=derive_seconds,
            stream_seconds=stream_seconds,
            commit_seconds=commit_seconds,
            bytes_streamed=bytes_streamed,
            slot_assignments=assignments,
        )

    # ------------------------------------------------------------------
    def _derive_worker_packets(
        self, version: int, records: list[tuple]
    ) -> tuple[dict, int, int]:
        """All worker packets of ``version``: (packets, groups decoded, a
        rank holding source chunks — the stream's nominal origin).

        Reads data chunks in place where whole; decodes only the lost
        ones of each source group from any ``k`` chunks otherwise.

        Raises:
            RecoveryError: when fewer than ``k`` chunks survive.
        """
        engine = self.engine
        plan = engine.placement_of(version)
        nodes = range(engine.job.cluster.num_nodes)
        available = engine._survey(version, nodes, records=records)
        if len(available) < plan.k:
            raise RecoveryError(
                f"repair of v{version} needs {plan.k} chunks, "
                f"only {len(available)} survive"
            )
        packets = {
            plan.data_group[j][r]: packet
            for (j, r), packet in engine._data_packets(
                version, plan, available, records
            ).items()
        }
        decoded = 0 if all(j in available for j in range(plan.k)) else len(plan.data_group[0])
        return packets, decoded, available[min(available)]
