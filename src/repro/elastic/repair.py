"""Background redundancy repair: re-derive, stream, commit.

When a spare joins after a degraded stretch, the latest committed
checkpoint version must return to its full ``(k, m)`` layout.  The
repair planner diffs the *target* placement against what is actually
whole in host memory and emits a :class:`RepairLedger` of missing chunk
packets; the executor then

1. **derives** every worker packet from any ``k`` surviving chunks of
   the version's *source* placement — the engine's ``decodable`` and
   ``data_packets``, exactly as a restore collects them (data chunks read
   in place, only lost ones decoded),
2. **streams** the target layout's missing packets to their nodes
   through the engine's ``put_back``, the routine a restore's step 4
   stores its rebuilt chunks with (one fused re-encode per group,
   derived digests where algebra allows), marking each ledger item done
   only *after* the bytes (and digest) landed — so a crash mid-stream
   leaves a ledger whose ``done`` set is a sound lower bound and the
   repair resumes idempotently, and
3. **commits** through the engine's ``commit_repair``: metadata is
   rebroadcast to every target node first, and the version is re-pointed
   at the target placement last — the flip is the commit record,
   mirroring the save flow's metadata-last rule.

A stored version is read and written only through those public engine
methods, and the three crash points fire through the engine's crash
hook, so a traced run counts them as it counts a save's.  Transfers are
costed through the cluster network model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import RecoveryError
from repro.core.placement import PlacementPlan
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
    is missing or digest-corrupt becomes a ledger item (every one, when
    the version is not decodable — the executor refuses it).  When the repair
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
    whole = {}
    if not relayout:
        found = engine.decodable(version, range(engine.job.cluster.num_nodes))
        whole = found[1] if found else {}
    items = [
        RepairItem(node=node, kind=kind, idx=idx, r=r)
        for cid, (kind, idx, node) in enumerate(target_plan.chunks)
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
            :data:`REPAIR_CRASH_POINTS` and consulted through the engine's
            crash hook; raises mid-run like a real process crash, leaving
            the ledger partially marked.
    """

    crash_points = REPAIR_CRASH_POINTS

    def __init__(self, engine, ledger: RepairLedger, crash_injector=None):
        self.engine = engine
        self.ledger = ledger
        self.crash_injector = crash_injector

    # ------------------------------------------------------------------
    def run(self) -> RepairReport:
        """Execute derive -> stream -> commit; returns the costed report.

        Raises:
            RecoveryError: when the version is not decodable: its commit
                record is incomplete or fewer than ``k`` chunks survive.
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
            report = self._run_impl()
            span.add_sim(report.repair_seconds)
            obs.record_phases(tracer, span, report.breakdown(), kind="repair")
            if tracer.enabled:
                tracer.metrics.gauge("elastic.repair_items").set(
                    report.items_repaired
                )
        return report

    def _run_impl(self) -> RepairReport:
        engine = self.engine
        ledger = self.ledger
        version = ledger.version
        target = ledger.target_plan
        tm = engine.job.time_model
        logical_packet = engine.logical_packet_bytes()
        context = {"version": version, "generation": ledger.generation}

        # --- derive: every worker's packet from any k source chunks. ---
        # One commit record for the whole run: derive, encode, stream and
        # commit read the same lengths and rebroadcast the same blobs.
        found = engine.decodable(version, range(engine.job.cluster.num_nodes))
        if found is None:
            raise RecoveryError(
                f"v{version} is not decodable: it needs a complete commit "
                f"record and {engine.placement_of(version).k} whole chunks"
            )
        records, whole = found
        packets = engine.data_packets(version, whole, records)
        engine.fire("post_derive", self.crash_injector, **context)
        source = engine.placement_of(version)
        derive_seconds = 0.0
        if any(j not in whole for j in range(source.k)):
            derive_seconds = tm.encode_time(
                source.k * logical_packet * len(source.data_group[0]),
                threads=engine.config.encode_threads,
            )

        # --- stream: store each missing packet, then mark it done. ----
        pending = ledger.pending()
        source_holder = whole[min(whole)]  # the stream's nominal origin
        requests: list[TransferRequest] = []

        def landed(n: int) -> None:
            index, item = pending[n]
            # The crash window sits between store and mark: a hit here
            # leaves the packet durable but unmarked — safe to redo.
            engine.fire(
                "mid_stream", self.crash_injector,
                **context, item=(item.node, item.kind, item.idx, item.r),
            )
            ledger.mark_done(index)
            requests.append(
                TransferRequest(src=source_holder, dst=item.node, nbytes=logical_packet)
            )

        wanted = [
            (item.idx + (target.k if item.kind == "parity" else 0), item.r)
            for _, item in pending
        ]
        engine.put_back(version, packets, target, wanted, ledger.epoch, whole, records, landed)
        bytes_streamed = logical_packet * sum(q.src != q.dst for q in requests)
        stream_seconds = (
            engine.network.bill(requests).makespan if requests else 0.0
        )

        # --- commit: metadata everywhere first, placement flip last. --
        engine.fire("pre_commit", self.crash_injector, **context)
        engine.commit_repair(version, target, ledger.epoch, records)
        ledger.committed = True
        target_nodes = len({*target.data_nodes, *target.parity_nodes})
        meta_bytes = sum(len(blob) for blob, _ in records)
        commit_seconds = (
            meta_bytes * max(0, target_nodes - 1) / gbps(tm.inter_node_gbps)
        )
        return RepairReport(
            version=version,
            generation=ledger.generation,
            items_total=len(ledger.items),
            items_repaired=len(pending),
            derive_seconds=derive_seconds,
            stream_seconds=stream_seconds,
            commit_seconds=commit_seconds,
            bytes_streamed=bytes_streamed,
        )
