"""The ECCheck engine's saves: full (Fig. 5), delta and remote backup.

A full save decomposes every worker's state (step 1), encodes, XOR-reduces
and places the chunk packets (step 3), then commits the version by
broadcasting its metadata (step 2, executed last: the commit record).  A
delta save patches the previous version's chunks where state changed; the
remote backup is the low-frequency step 4.  :meth:`Saves._commit` writes
the commit record and bills every in-memory save the same way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro import obs
from repro.checkpoint.base import SaveReport
from repro.core.incremental import tracked_delta
from repro.core.integrity import chunk_digest, live_prefix, patch_digest
from repro.core.pipeline import (
    STAGE_TRANSFER,
    PipelinedRunner,
    pipeline_makespan,
    serial_makespan,
)
from repro.core.protocol import (
    derived_digest,
    encode_group_into,
    packet_size_for,
    packetise,
    xor_rows,
)
from repro.errors import CheckpointError
from repro.sim.network import TransferRequest, gbps
from repro.sim.timeline import Interval, merge_intervals
from repro.tensors.serialization import Decomposition, decompose_state_dict

#: Size of one data/encoding buffer (64 MB in the paper's settings); sets
#: the pipelining granularity of step 3.
BUFFER_BYTES = 64 * 2**20


#: Phase of each save step's span (Fig. 5 numbers them; step 2 runs last).
PHASES = {1: "step1_decompose_dtoh", 2: "step2_metadata_broadcast", 3: "step3_encode_xor_p2p"}


def _step_span(tracer, step: int, version: int):
    return tracer.span(
        f"eccheck.save.step{step}", kind="save", phase=PHASES[step], version=version
    )


class DeltaBase(NamedTuple):
    """The version the next delta save XORs against: its packets, and what
    step 1's walk of each worker recorded (byte views and write stamps)."""

    version: int
    packets: dict[int, np.ndarray]
    walks: list[Decomposition]


class Saves:
    """The save half of :class:`~repro.core.eccheck.ECCheckEngine`."""

    #: Last committed in-memory version and the packets step 1 built for
    #: it (stored data chunks are copies); None after a failure or a
    #: regroup, when the next delta save falls back to a full one.
    _delta_base: DeltaBase | None = None
    #: One packet-sized row per worker that a delta save XORs its delta
    #: into; zero between saves.
    _delta_scratch: np.ndarray | None = None
    #: worker -> layout cache of :func:`decompose_state_dict`.
    _dtype_names: dict[int, list]

    def _traced_save(self, name: str, body, dtoh: bool = False) -> SaveReport | None:
        """Run ``body(version, tracer)`` for version ``self.version + 1``
        under the save's root span; a report it returns is billed to the
        span and its inter-node (with ``dtoh``, also its DtoH) bytes counted."""
        tracer = obs.get_tracer()
        with tracer.span(name, kind="save", version=self.version + 1) as span:
            report = body(self.version + 1, tracer)
            if report is not None:
                span.add_sim(report.checkpoint_time)
                if tracer.enabled:
                    tracer.metrics.counter("p2p.bytes_inter_node").inc(
                        report.bytes_inter_node
                    )
                    if dtoh:
                        tracer.metrics.counter("save.bytes_dtoh").inc(report.bytes_dtoh)
        return report

    def save(self) -> SaveReport:
        return self._traced_save("eccheck.save", self._save_full, dtoh=True)

    def _save_full(self, version: int, tracer) -> SaveReport:
        plan = self.placement
        self.version = version
        # Recorded at save *start* so even a torn version maps to the
        # placement its partial chunks were written under.
        self._layouts[version] = (plan, 0)

        # --- Step 1: decompose state_dicts, offload tensor data (DtoH). ---
        with _step_span(tracer, 1, version) as step1_span:
            walks = self._walk_workers()
            packet_size = packet_size_for(
                [d.tensor_bytes for d in walks], self.config.packet_alignment
            )
            checkpoints = {w: packetise(w, d, packet_size) for w, d in enumerate(walks)}

        lengths = [wc.packet.original_length for wc in checkpoints.values()]
        if tracer.enabled:
            # What the landing digests CRC / fold in (gauges: counters enter traced reports).
            groups, metrics = self.reduction_plan.groups, tracer.metrics
            reach = [live_prefix(packet_size, n) for n in lengths]
            crcd_parities = plan.m - len(xor_rows(self.code))  # the rest are derived
            crcd = sum(reach) + crcd_parities * sum(max(reach[w] for w in g.workers) for g in groups)
            stored = (len(reach) + plan.m * len(groups)) * packet_size
            metrics.gauge("save.padding_share").set(1 - sum(lengths) / (len(reach) * packet_size))
            metrics.gauge("integrity.bytes_digested").set(crcd)
            metrics.gauge("integrity.bytes_closed_form").set(stored - crcd)

        # --- Step 3: encode -> XOR reduction -> P2P. ---
        # Runs *before* the metadata broadcast: metadata is the commit
        # record, so all chunk placement must already be durable-in-RAM
        # when it lands (see :mod:`repro.core.eccheck` on crash consistency).
        # The byte work walks the stages of Sec. IV-C group by group, in
        # line: a group's parity packets are encoded, then they and its
        # data packets land on their nodes, then the next group starts.
        # (Overlap between stages lives in the *timing formula*, which is
        # all the ``use_pipelining`` flag switches.)
        def stage_encode(group):
            packets = [checkpoints[w].packet.payload for w in group.workers]
            parity_packets = [np.empty_like(packets[0]) for _ in group.targets]
            encode_group_into(
                self.code, packets, parity_packets,
                lengths=[lengths[w] for w in group.workers],
            )
            return group, parity_packets

        def stage_xor_reduce(item):
            # Already reduced: the m parity buffers were the accumulators.
            # The stage stays for its span and the post_xor crash point.
            return item

        def stage_transfer(item):
            group, parity_packets = item
            r = group.index
            # Landing digests: a data chunk's is its source packet's, taken
            # before the copy lands; an all-ones parity row's is derived.
            sources = [checkpoints[members[r]].packet for members in plan.data_group]
            known = {j: chunk_digest(p.payload, p.original_length) for j, p in enumerate(sources)}
            # P2P: the reduced parity packets move to their parity nodes,
            # this group's data packets settle onto their data nodes.
            for i, parity_node in enumerate(plan.parity_nodes):
                self.fire("mid_p2p", version=version, group=r, kind="parity", chunk=i)
                self._store_chunk_packet(
                    parity_node, version, "parity", i, r, parity_packets[i],
                    digest=derived_digest(self.code, known, plan.k + i, packet_size),
                    live=max(lengths[w] for w in group.workers),
                )
            for j, source in enumerate(sources):
                self.fire("mid_p2p", version=version, group=r, kind="data", chunk=j)
                self._store_chunk_packet(
                    plan.data_nodes[j], version, "data", j, r,
                    source.payload.copy(), digest=known[j],
                )
            return r

        def stage_hook(stage, item):
            point = ("post_encode", "post_xor", "post_transfer")[stage]
            group = item if stage == STAGE_TRANSFER else item[0].index
            self.fire(point, version=version, group=group)

        with _step_span(tracer, 3, version) as step3_span:
            PipelinedRunner(
                stage_encode, stage_xor_reduce, stage_transfer, item_hook=stage_hook
            ).run(list(self.reduction_plan.groups))

        # Step 1's packets become the delta base (stored data chunks are
        # copies of them).
        return self._commit(
            version,
            [(wc.metadata_blob, wc.packet.original_length) for wc in checkpoints.values()],
            lambda: DeltaBase(
                version,
                {w: wc.packet.payload for w, wc in checkpoints.items()},
                [walk.tracking() for walk in walks],
            ),
            step1_span, step3_span, tracer,
        )

    def _commit(
        self, version: int, records: list[tuple[bytes, int]], rebase, step1_span,
        step3_span, tracer, dirty_fractions: list[float] | None = None,
    ) -> SaveReport:
        """Step 2 and the books: commit ``version``, bill the save, report it.

        Fig. 5 numbers the metadata broadcast step 2, but it executes last
        as the commit record: ``restore`` only trusts versions with
        complete metadata.  Each worker's ``(metadata blob, payload
        length)`` record lands on every active node; only then does
        ``rebase()`` return the next delta base.  A delta save passes each
        worker's ``dirty_fractions``: the share of its packet it encodes
        and ships.
        """
        tm = self.job.time_model
        cfg = self.config
        plan = self.placement
        with _step_span(tracer, 2, version) as step2_span:
            self.fire("pre_metadata_broadcast", version=version)
            self._put_records(version, records, self.active_nodes, "mid_metadata_broadcast")
        meta_bytes = sum(len(blob) for blob, _ in records)
        step2 = meta_bytes * (len(self.active_nodes) - 1) / gbps(tm.inter_node_gbps)

        self._delta_base = rebase()
        self._chunk_versions.add(version)

        # DtoH moves the full shard even for a delta (the snapshot is
        # unavoidable); encoding/communication scale with the dirty share.
        step1 = (
            max(tm.dtoh_time(self.job.logical_shard_bytes(w)) for w in range(len(records)))
            + tm.decompose_overhead_s
        )
        logical_packet = self.logical_packet_bytes()
        breakdown = {}
        shipped = [logical_packet] * len(records)
        if dirty_fractions is not None:
            breakdown["dirty_fraction"] = max(dirty_fractions)
            shipped = [int(share * logical_packet) for share in dirty_fractions]
        requests: list[TransferRequest] = []
        for group in self.reduction_plan.groups:
            for i, target in enumerate(group.targets):
                # Senders ship their encoded packet to the reduction
                # target, which forwards the reduced one to its parity node.
                target_node = self.node_hosting(target)
                requests += [
                    TransferRequest(self.node_hosting(w), target_node, shipped[w])
                    for w in group.workers
                    if w != target
                ]
                if target_node != plan.parity_nodes[i]:
                    biggest = max(shipped[w] for w in group.workers)
                    requests.append(
                        TransferRequest(target_node, plan.parity_nodes[i], biggest)
                    )
            for j, members in enumerate(plan.data_group):
                src = self.node_hosting(members[group.index])
                if src != plan.data_nodes[j]:
                    requests.append(
                        TransferRequest(src, plan.data_nodes[j], shipped[members[group.index]])
                    )
        comm_makespan = self.network.bill(requests).makespan
        encode_total = tm.encode_time(cfg.m * max(shipped), threads=cfg.encode_threads)
        # XOR compute at reduction targets: each target XORs k-1 packets,
        # m times per reduction group it serves.
        xor_total = tm.memcpy_time((plan.k - 1) * max(shipped)) * cfg.m
        step3 = self._step3_time(encode_total, xor_total, comm_makespan, logical_packet)

        # Phase sims attach only now that the save is complete: a crash
        # anywhere above leaves the step spans without simulated time, so
        # trace phase totals reconcile with *completed* SaveReports.
        step1_span.add_sim(step1)
        step2_span.add_sim(step2)
        step3_span.add_sim(step3)

        return SaveReport(
            engine=self.name,
            version=version,
            stall_time=step1,
            checkpoint_time=step1 + step2 + step3,
            breakdown={
                "step1_decompose_dtoh": step1,
                "step2_metadata_broadcast": step2,
                "step3_encode_xor_p2p": step3,
                "step3_encode_compute": encode_total,
                "step3_comm": comm_makespan,
                **breakdown,
            },
            bytes_dtoh=self.job.total_logical_bytes(),
            bytes_inter_node=sum(q.nbytes for q in requests if q.src != q.dst),
        )

    def _walk_workers(self, since: list[Decomposition] | None = None) -> list[Decomposition]:
        """Step 1's one walk of every worker's state: views of its tensor
        bytes, its rows and write stamps (and, ``since`` a delta base's
        walks, the tensors that changed)."""
        return [
            decompose_state_dict(
                self.job.state_of(w),
                offload_to_cpu=False,
                dtype_names=self._dtype_names[w],
                since=None if since is None else since[w],
            )
            for w in range(self.job.world_size)
        ]

    def _step3_time(
        self, encode_total: float, xor_total: float, comm_makespan: float, logical_packet: int
    ) -> float:
        """Makespan of step 3 with/without pipelined buffer execution."""
        buffers = max(1, -(-logical_packet // BUFFER_BYTES))
        stage_times = [
            encode_total / buffers,
            xor_total / buffers,
            comm_makespan / buffers,
        ]
        if self.config.use_pipelining:
            return pipeline_makespan(stage_times, buffers)
        return serial_makespan(stage_times, buffers)

    # ------------------------------------------------------------------
    # Incremental (delta) checkpointing — an extension built on the
    # code's linearity; see repro.core.incremental.
    # ------------------------------------------------------------------
    def save_incremental(self, block_size: int = 64 * 1024) -> SaveReport:
        """Checkpoint by patching the previous version's chunks where state changed.

        Byte work runs on the dirty ranges only (64 KiB granularity, see
        :mod:`repro.core.incremental`): each new chunk is a copy of the
        base's with ``encode(delta)`` (parity) or the delta (data) XORed
        into those ranges, and its digest is derived from the base's
        (:func:`~repro.core.integrity.patch_digest`).  ``block_size`` is
        the *accounting* granularity behind ``dirty_fraction`` and the
        simulated bytes.

        Falls back to a full :meth:`save` when there is no delta base, the
        packet size changed, or any chunk, digest or metadata record of
        the base is *absent* from host memory (a refused recovery, an
        eviction or a demotion can wipe it out from under the
        bookkeeping).  A base chunk that has *rotted* is not detected
        here: its successor inherits the rot and a digest that does not
        match it, so every reader treats it as the erasure it is.

        Raises:
            CheckpointError: on a non-positive ``block_size`` (nothing is
                mutated).
        """
        if block_size < 1:
            raise CheckpointError(f"block_size must be >= 1, got {block_size}")
        # The delta base is the last version whose *chunks* live in host
        # memory — not ``self.version``, which an interleaved remote backup
        # (chunkless) may have advanced past it.
        base = self._delta_base
        if base is None or self._whole(base.version, verify=False) is None:
            return self.save()
        report = self._traced_save(
            "eccheck.save_incremental",
            lambda version, tracer: self._save_delta(version, base, block_size, tracer),
        )
        # None: the packet size changed, so there is nothing to XOR against.
        return report if report is not None else self.save()

    def _save_delta(
        self, version: int, base: DeltaBase, block_size: int, tracer
    ) -> SaveReport | None:
        """The delta save proper; None (nothing mutated) if packets resized.

        Byte work touches only the bytes step 1's walk finds changed since
        the base (the tensors written since, or, where the sizes moved,
        the whole payload and the old tail): their delta lands in
        ``_delta_scratch``, which is zero again when this returns or
        raises.
        """
        plan = self.placement
        tracked: dict[int, list[tuple[int, int]]] = {}
        scratch = self._delta_scratch
        try:
            # Step 1 equivalent: walk, then XOR the changed tensors.
            with _step_span(tracer, 1, version) as step1_span:
                walks = self._walk_workers(since=base.walks)
                packet_size = base.packets[0].nbytes
                lengths = [walk.tensor_bytes for walk in walks]
                if packet_size_for(lengths, self.config.packet_alignment) != packet_size:
                    return None
                if scratch is None or scratch.shape != (len(walks), packet_size):
                    scratch = self._delta_scratch = np.zeros(
                        (len(walks), packet_size), dtype=np.uint8
                    )
                summaries = []
                for w, walk in enumerate(walks):
                    tracked[w], summary = tracked_delta(
                        base.packets[w], walk.changed, scratch[w], block_size
                    )
                    summaries.append(summary)
                live = [  # old, new and so their delta are zero past the longer payload
                    max(old.tensor_bytes, new.tensor_bytes) for old, new in zip(base.walks, walks)
                ]
            self.version = version
            self._layouts[version] = (plan, 0)
            step3_span = self._patch_chunks(version, base.version, scratch, summaries, live, tracer)

            def rebase() -> DeltaBase:
                # The records have landed: the base packets become this
                # version's, patched in place where they changed.
                for w, ranges in tracked.items():
                    for start, end in ranges:
                        base.packets[w][start:end] ^= scratch[w, start:end]
                return DeltaBase(version, base.packets, [walk.tracking() for walk in walks])

            # Step 2 equivalent: the metadata rebroadcast (iteration
            # counters changed) commits the delta version.
            return self._commit(
                version,
                [(walk.metadata_blob(), walk.tensor_bytes) for walk in walks],
                rebase, step1_span, step3_span, tracer,
                dirty_fractions=[s.dirty_fraction for s in summaries],
            )
        finally:
            for w, ranges in tracked.items():
                for start, end in ranges:
                    scratch[w, start:end] = 0

    def _patch_chunks(
        self, version: int, base_version: int, deltas: np.ndarray, summaries: list,
        live: list[int], tracer,
    ):
        """Step 3 of a delta save; returns its span.

        Per reduction group, encode the union of its workers' dirty ranges
        and XOR the pieces into copies of the base's parity packets, then
        XOR each worker's own ranges into a copy of its data packet;
        digests follow by the same small-write rule.  The base is never
        written.  As in the full save, chunk placement precedes the
        metadata commit.
        """
        plan = self.placement
        packet_size = deltas.shape[1]

        def patched(node: int, kind: str, idx: int, r: int) -> list:
            """[a copy of the base's chunk packet, its stored digest]."""
            return [
                self.host.get(node, self.chunk_key(base_version, kind, idx, r)).copy(),
                self.host.get(node, self.digest_key(base_version, kind, idx, r)),
            ]

        def xor_in(chunk: list, start: int, piece: np.ndarray) -> None:
            chunk[0][start : start + piece.size] ^= piece
            chunk[1] = patch_digest(chunk[1], packet_size, start, piece)

        def store(node: int, kind: str, idx: int, r: int, chunk: list) -> None:
            self.fire("mid_p2p", version=version, group=r, kind=kind, chunk=idx)
            self._store_chunk_packet(node, version, kind, idx, r, *chunk)

        with _step_span(tracer, 3, version) as step3_span:
            for group in self.reduction_plan.groups:
                r = group.index
                runs = merge_intervals(
                    [Interval(*run) for w in group.workers for run in summaries[w].dirty_runs]
                )
                parities = [
                    patched(node, "parity", i, r)
                    for i, node in enumerate(plan.parity_nodes)
                ]
                # One scratch per parity row, as long as the longest run.
                scratch = np.empty(
                    (plan.m, max((run.duration for run in runs), default=0)),
                    dtype=np.uint8,
                )
                for run in runs:
                    pieces = list(scratch[:, : run.duration])
                    encode_group_into(
                        self.code,
                        [deltas[w, run.start : run.end] for w in group.workers],
                        pieces,
                        lengths=[
                            min(max(live[w] - run.start, 0), run.duration)
                            for w in group.workers
                        ],
                    )
                    for parity, piece in zip(parities, pieces):
                        xor_in(parity, run.start, piece)
                for i, node in enumerate(plan.parity_nodes):
                    store(node, "parity", i, r, parities[i])
                for j, members in enumerate(plan.data_group):
                    data = patched(plan.data_nodes[j], "data", j, r)
                    for start, end in summaries[members[r]].dirty_runs:
                        xor_in(data, start, deltas[members[r], start:end])
                    store(plan.data_nodes[j], "data", j, r, data)
        return step3_span

    # ------------------------------------------------------------------
    # Step 4: low-frequency remote backup for catastrophic failures.
    # ------------------------------------------------------------------
    def save_remote_backup(self) -> SaveReport:
        """Persist the current state to remote storage (Fig. 5, step 4).

        Runs at low frequency and entirely off the training critical path;
        it is also the fallback ``restore`` uses when more than ``m`` nodes
        fail simultaneously.
        """
        version = self.version = self.version + 1
        tm = self.job.time_model
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.backup", kind="save", version=version
        ) as span:
            serialize = max(
                tm.serialize_time(self.job.logical_shard_bytes(w))
                for w in range(self.job.world_size)
            )
            transfer, total = self._persist_all_to_remote(version)
            report = SaveReport(
                engine=self.name,
                version=version,
                stall_time=0.0,
                checkpoint_time=serialize + transfer,
                breakdown={"serialize": serialize, "transfer_remote": transfer},
                bytes_to_remote=total,
            )
            span.add_sim(report.checkpoint_time)
            span.set(bytes_to_remote=total)
            obs.record_phases(tracer, span, report.breakdown, kind="save")
        return report
