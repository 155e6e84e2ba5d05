"""The ECCheck engine's restore (Fig. 7): the newest-first walk over the
tiers, the install, and both recovery workflows' bills.
"""

from __future__ import annotations

from repro import obs
from repro.checkpoint.base import RecoveryReport
from repro.core.placement import PlacementPlan
from repro.core.protocol import restore_state_dict
from repro.errors import RecoveryError
from repro.sim.network import TransferRequest
from repro.tensors.tensor import GPU


class Restores:
    """The restore half of :class:`~repro.core.eccheck.ECCheckEngine`."""

    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.restore", kind="restore", failed=sorted(failed_nodes)
        ) as span:
            report = self._restore_impl(failed_nodes)
            # Everything this call verified or wrote is whole; what the
            # failure wiped shows by presence (see prune_memory_index).
            self.prune_memory_index(verify=False)
            span.set(version=report.version, tier=report.tier)
            if report.bytes_from_disk:
                span.set(bytes_from_disk=report.bytes_from_disk)
            if report.bytes_from_remote:
                span.set(bytes_from_remote=report.bytes_from_remote)
            span.add_sim(report.recovery_time)
            obs.record_phases(tracer, span, report.breakdown, kind="restore")
            if tracer.enabled:
                tracer.metrics.counter("restore.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
        return report

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        self.on_failure(failed_nodes)
        # After any failure the delta base is unreliable; the next
        # incremental save falls back to a full one, and the demotion
        # guard no longer pins a possibly wiped version.
        self._delta_base = None
        latest = self.latest_version()
        surviving = [
            node for node in range(self.job.cluster.num_nodes)
            if node not in failed_nodes
        ]

        # A save interrupted by the crash may have left a torn version
        # behind; walk back to the newest version restorable from *any*
        # tier, exactly as a restart would: in-memory chunks first (>= k
        # whole chunks plus a complete commit record on the survivors),
        # then the local-disk tier (which survives memory loss — including
        # a full cluster power-cycle, where ``surviving`` is empty).  Each
        # candidate is judged against the placement *it* was saved under —
        # elastic regroups mean adjacent versions can have different
        # layouts.  Demotion only ever moves versions older than everything
        # still in memory, so checking memory before disk per candidate
        # preserves strict newest-first order across tiers.  The record
        # that admits a version is the one every later step reads.
        version = records = None
        from_disk = False
        chunk_available: dict[int, int] = {}
        promote_s = 0.0
        promote_bytes = 0
        recovery_failed = failed_nodes
        with obs.get_tracer().span("eccheck.restore.step1", step="step1_locate_verify"):
            for candidate in range(latest, 0, -1):
                found = self.decodable(candidate, surviving)
                if found is not None:
                    version, (records, chunk_available) = candidate, found
                    break
                records = self._whole(candidate, self.disk)
                if records is not None:
                    version, from_disk = candidate, True
                    break
            if from_disk:
                # Promotion re-materialises the whole version in host
                # memory (failed nodes have rebooted with empty RAM but
                # live disks), after which recovery proceeds as if
                # nothing was lost.
                promote_s, promote_bytes = self._promote_version(version, records)
                every = range(self.job.cluster.num_nodes)
                chunk_available = self._survey(version, every, records=records)
                recovery_failed = set()
        if version is None:
            if self._latest_complete_remote_version() is None:
                m = self.placement_of(latest).m
                loss = (
                    f"failures {sorted(failed_nodes)} exceed m = {m}"
                    if len(failed_nodes) > m
                    else "no version in memory or on disk is decodable"
                )
                raise RecoveryError(
                    f"{self.name}: {loss}, and no complete remote checkpoint to restore"
                )
            return self._restore_newest_remote("load_remote_backup")

        report = self._recover(version, recovery_failed, chunk_available, records)
        if from_disk:
            report.recovery_time += promote_s
            report.breakdown["promote_disk_read"] = promote_s
            report.bytes_from_disk = promote_bytes
            report.tier = "disk"
        return report

    def _recover(
        self, version: int, failed_nodes: set[int], chunk_available: dict[int, int],
        records: list[tuple],
    ) -> RecoveryReport:
        """Both recovery workflows of Fig. 7: one byte path, two bills.

        Bytes: collect every data packet (decoding the lost ones), install,
        put back what was lost.  Time: billed as the paper runs it —
        workflow 1 when every data chunk is intact (data nodes re-send),
        workflow 2 otherwise.  A data chunk may be unavailable because its
        node failed OR its packets failed digest verification (silent
        corruption); either way it is an erasure.  The placement
        ``version`` was saved under picks the (k, m) code, not necessarily
        the live one.  ``records`` is the commit record that admitted the
        version: decode, install and rebuild all read it.
        """
        tm = self.job.time_model
        plan = self.placement_of(version)
        surviving = [
            n for n in range(self.job.cluster.num_nodes) if n not in failed_nodes
        ]
        tracer = obs.get_tracer()
        with tracer.span("eccheck.restore.step2", step="step2_decode"):
            packets = self.data_packets(version, chunk_available, records)
        # Install: every worker gets its state back, one copy per tensor out
        # of its packet (often a stored chunk) onto the GPU, and replacement
        # nodes get the metadata they lost.  All or nothing: a record's
        # length also steered its group's decode, so no state is replaced
        # until every worker's is rebuilt.
        with tracer.span("eccheck.restore.step3", step="step3_install"):
            states = [
                restore_state_dict(blob, packets[w][:length], GPU)
                for w, (blob, length) in enumerate(records)
            ]
            for worker, state in enumerate(states):
                self.job.state_dicts[worker] = state
            self._put_records(version, records, failed_nodes)
        # Background: put back exactly the chunks that were lost, so the
        # original fault-tolerance capacity returns: each lost data chunk,
        # then each group's lost parity rows.  The re-encode is billed as
        # one pass per group however many parities were lost.
        groups = len(plan.data_group[0])
        lost_parities = [i for i in range(plan.m) if plan.k + i not in chunk_available]
        wanted = [(j, r) for j in range(plan.k) if j not in chunk_available for r in range(groups)]
        wanted += [(plan.k + i, r) for r in range(groups) for i in lost_parities]
        with tracer.span("eccheck.restore.step4", step="step4_rebuild_redundancy"):
            crcd, derived = self.put_back(
                version, packets, plan, wanted, self.epoch_of(version), chunk_available, records
            )
        if tracer.enabled:  # gauges of the last restore: counters enter traced reports
            tracer.metrics.gauge("restore.digests_crcd").set(crcd)
            tracer.metrics.gauge("restore.digests_derived").set(derived)

        logical_packet = self.logical_packet_bytes()
        if all(j in chunk_available for j in range(plan.k)):
            breakdown, bytes_inter, redo_requests = self._bill_resend(
                plan, lost_parities, logical_packet
            )
        else:
            breakdown, bytes_inter, redo_requests = self._bill_decode(
                plan, failed_nodes, surviving, chunk_available, lost_parities, logical_packet
            )
        breakdown["htod"] = max(
            tm.htod_time(self.job.logical_shard_bytes(w))
            for w in range(self.job.world_size)
        )
        redundancy = self.network.bill(redo_requests).makespan
        if lost_parities:
            redundancy += tm.encode_time(
                logical_packet * groups, threads=self.config.encode_threads
            )
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=sum(breakdown.values()),
            breakdown=breakdown,
            bytes_inter_node=bytes_inter,
            restore_redundancy_time=redundancy,
        )

    def _bill_resend(
        self, plan: PlacementPlan, lost_parities: list[int], logical_packet: int
    ) -> tuple[dict[str, float], int, list[TransferRequest]]:
        """Workflow 1 (Fig. 7 precondition inverted): data chunks intact.

        Data nodes send every worker its packet; each streams its chunk
        through the encoder pipeline to every replacement parity node.
        Returns ``(breakdown, inter-node bytes, background requests)``.
        """
        groups = len(plan.data_group[0])
        data_node_of = {
            w: node for node, members in zip(plan.data_nodes, plan.data_group) for w in members
        }
        requests: list[TransferRequest] = []
        bytes_inter = 0
        for worker in range(self.job.world_size):
            data_node, dst = data_node_of[worker], self.node_hosting(worker)
            requests.append(
                TransferRequest(src=data_node, dst=dst, nbytes=logical_packet)
            )
            if data_node != dst:
                bytes_inter += logical_packet
        redo_requests = [
            TransferRequest(
                src=plan.data_nodes[j],
                dst=plan.parity_nodes[i],
                nbytes=logical_packet * groups // plan.k,
            )
            for i in lost_parities
            for j in range(plan.k)
        ]
        transfer = self.network.bill(requests).makespan
        return {"fetch_packets": transfer}, bytes_inter, redo_requests

    def _bill_decode(
        self, plan: PlacementPlan, failed_nodes: set[int], surviving: list[int],
        chunk_available: dict[int, int], lost_parities: list[int], logical_packet: int,
    ) -> tuple[dict[str, float], int, list[TransferRequest]]:
        """Workflow 2 (Fig. 7): data chunks lost; decode from any k chunks.

        Every reduction group gathers k chunks (data preferred, to
        minimise decode work) on a decode node — round-robin across the
        survivors, as the paper spreads it — which scatters the packets.
        Returns ``(breakdown, inter-node bytes, background requests)``.
        """
        groups = len(plan.data_group[0])
        chosen = sorted(chunk_available, key=lambda c: (c >= plan.k, c))[: plan.k]
        gather_requests: list[TransferRequest] = []
        scatter_requests: list[TransferRequest] = []
        bytes_inter = 0
        for r in range(groups):
            decode_node = surviving[r % len(surviving)]
            for node in (chunk_available[cid] for cid in chosen):
                gather_requests.append(
                    TransferRequest(src=node, dst=decode_node, nbytes=logical_packet)
                )
                if node != decode_node:
                    bytes_inter += logical_packet
            for j in range(plan.k):
                dst = self.node_hosting(plan.data_group[j][r])
                scatter_requests.append(
                    TransferRequest(src=decode_node, dst=dst, nbytes=logical_packet)
                )
                if decode_node != dst:
                    bytes_inter += logical_packet
        redo_requests = [
            TransferRequest(
                src=surviving[j % len(surviving)],
                dst=data_node,
                nbytes=logical_packet * groups,
            )
            for j, data_node in enumerate(plan.data_nodes)
            if data_node in failed_nodes
        ] + [
            TransferRequest(
                src=surviving[i % len(surviving)],
                dst=plan.parity_nodes[i],
                nbytes=logical_packet * groups,
            )
            for i in lost_parities
        ]
        breakdown = {
            "gather_chunks": self.network.bill(gather_requests).makespan,
            "decode": self.job.time_model.encode_time(
                plan.k * logical_packet * groups / max(1, len(surviving)),
                threads=self.config.encode_threads,
            ),
            "scatter_packets": self.network.bill(scatter_requests).makespan,
        }
        return breakdown, bytes_inter, redo_requests
