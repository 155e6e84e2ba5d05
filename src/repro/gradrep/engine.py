"""The ``gradrep`` engine: per-iteration gradient replication.

Checkmate-style protection (PAPERS.md): periodic **anchor** snapshots
replicated to a cross-rack buddy node, plus a per-iteration gradient log
(see :mod:`repro.gradrep.gradlog`) riding the collective traffic's trunk
through a :class:`~repro.sim.network.PiggybackChannel`.  Recovery is
temporal: restore the newest committed anchor, then replay the log tail
— the engine that loses *iterations at most one deep* instead of a whole
checkpoint interval, at the price of paying replication bandwidth every
single iteration.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.checkpoint.base import (
    CheckpointEngine,
    RecoveryReport,
    ReplicationReport,
    SaveReport,
)
from repro.checkpoint.job import TrainingJob
from repro.core.incremental import packet_delta
from repro.core.integrity import chunk_digest
from repro.core.protocol import (
    build_worker_checkpoint,
    packet_size_for,
    restore_state_dict,
)
from repro.errors import CheckpointError, RecoveryError
from repro.gradrep.gradlog import GradientLog, ReplicaStore
from repro.sim.network import PiggybackChannel, TransferRequest, gbps
from repro.tensors.tensor import GPU


def _canonical_state_dict(state_dict):
    """Recursively key-sort a state dict (tensors shared, not copied).

    Packet layout follows dict *insertion* order, and a restore can hand
    back an equal-valued dict in a different order (e.g. optimizer
    entries first) — XOR deltas against a re-packetised base would then
    misapply.  Sorting makes the gradrep packet layout a function of the
    state's *values*, so any byte-equal state re-packetises identically.
    """
    if isinstance(state_dict, dict):
        return {
            key: _canonical_state_dict(state_dict[key])
            for key in sorted(state_dict, key=repr)
        }
    return state_dict


#: Packet alignment of the replicated packets.
PACKET_ALIGNMENT = 64
#: Dirty-block granularity fed to
#: :func:`~repro.core.incremental.packet_delta`.
DELTA_BLOCK_SIZE = 64 * 1024
#: Weights shaping the piggyback share of the cross-rack trunk (see
#: :class:`~repro.sim.network.PiggybackChannel`).
COLLECTIVE_WEIGHT = 3.0
REPLICATION_WEIGHT = 1.0


class GradRepEngine(CheckpointEngine):
    """Anchor replication + gradient-log tail, all in host memory."""

    name = "gradrep"

    crash_points = (
        "post_snapshot_packets",
        "mid_anchor_replicate",
        "pre_anchor_commit",
        "mid_anchor_broadcast",
        "pre_grad_store",
        "mid_grad_replicate",
        "pre_grad_commit",
        "mid_grad_broadcast",
    )

    def __init__(self, job: TrainingJob):
        super().__init__(job)
        self.piggyback = PiggybackChannel(
            job.time_model,
            collective_weight=COLLECTIVE_WEIGHT,
            replication_weight=REPLICATION_WEIGHT,
        )
        self.log = GradientLog(self.host, job, fire=self.fire)
        self.anchors = ReplicaStore(self.host, job, ("apkt", "adig", "ameta"), "anchor")
        #: Last replicated packet bytes per writer — the XOR base of the
        #: next delta.  Cleared by restore/reconfigure; an empty dict
        #: means the next replicate must wait for a fresh anchor.
        self._stream_packets: dict[int, np.ndarray] = {}
        self._packet_size: int | None = None

    # ------------------------------------------------------------------
    def _current_packet_size(self) -> int:
        if self._packet_size is None:
            from repro.tensors.state_dict import tensor_items

            self._packet_size = packet_size_for(
                [
                    sum(t.nbytes for _, t in tensor_items(self.job.state_of(w)))
                    for w in range(self.job.world_size)
                ],
                alignment=PACKET_ALIGNMENT,
            )
        return self._packet_size

    def _build_packets(self) -> dict[int, "object"]:
        """Packetise every writer's live state at the common size."""
        size = self._current_packet_size()
        return {
            worker: build_worker_checkpoint(
                worker, _canonical_state_dict(self.job.state_of(worker)), size
            )
            for worker in range(self.job.world_size)
        }

    # ------------------------------------------------------------------
    # Anchor save: full packets replicated home + buddy, commit last.
    # ------------------------------------------------------------------
    def _save_impl(self) -> SaveReport:
        self.version += 1
        version = self.version
        tm = self.job.time_model
        checkpoints = self._build_packets()
        digests: dict[int, int] = {}
        dtoh_times = [0.0]
        bytes_dtoh = 0
        for worker, ckpt in checkpoints.items():
            logical = self.job.logical_shard_bytes(worker)
            bytes_dtoh += logical
            dtoh_times.append(tm.dtoh_time(logical))
            packet = ckpt.packet
            digests[worker] = chunk_digest(packet.payload, packet.original_length)
            home, _ = self.anchors.replicas(worker)
            self.anchors.put(
                home, version, worker, packet.payload, digests[worker], ckpt.metadata_blob
            )
        stall = max(dtoh_times)
        self.fire("post_snapshot_packets", version=version)

        # Buddy replication rides the shared trunk (piggyback pricing).
        trunk_bytes = 0
        for worker, ckpt in checkpoints.items():
            _, buddy = self.anchors.replicas(worker)
            self.fire("mid_anchor_replicate", version=version, worker=worker, dst=buddy)
            # An independent copy: bit rot on one anchor replica must
            # not be visible on the other.
            self.anchors.put(
                buddy, version, worker,
                ckpt.packet.payload.copy(), digests[worker], ckpt.metadata_blob,
            )
            trunk_bytes += self.job.logical_shard_bytes(worker)
        slice_ = self.piggyback.transfer(trunk_bytes)

        # Commit record broadcast — byte work first, metadata last.
        meta_bytes = sum(len(c.metadata_blob) for c in checkpoints.values())
        record = {"iteration": int(self.job.iteration)}
        self.fire("pre_anchor_commit", version=version)
        for node in range(self.job.cluster.num_nodes):
            self.fire("mid_anchor_broadcast", version=version, dst=node)
            self.anchors.put_commit(node, version, record)
        commit_time = self._trunk_time(meta_bytes * self.job.cluster.num_nodes)

        # The anchor supersedes the old tail and re-bases the stream.
        self.log.rebase(version, self.job.iteration)
        self._stream_packets = {
            worker: ckpt.packet.payload.copy()
            for worker, ckpt in checkpoints.items()
        }
        return SaveReport(
            engine=self.name,
            version=version,
            stall_time=stall,
            checkpoint_time=stall + slice_.seconds + commit_time,
            breakdown={
                "snapshot_dtoh": stall,
                "anchor_piggyback": slice_.seconds,
                "anchor_commit": commit_time,
            },
            bytes_dtoh=bytes_dtoh,
            bytes_inter_node=trunk_bytes,
        )

    # ------------------------------------------------------------------
    # Per-iteration replication: XOR delta home + buddy, commit last.
    # ------------------------------------------------------------------
    def replicate_iteration(self) -> ReplicationReport:
        tracer = obs.get_tracer()
        with tracer.span(
            f"{self.name}.replicate",
            kind="replicate",
            iteration=self.job.iteration,
        ) as span:
            report = self._replicate_impl()
            span.add_sim(report.replicate_time)
            obs.record_phases(tracer, span, report.breakdown, kind="replicate")
            if tracer.enabled:
                tracer.metrics.counter("gradrep.bytes_replicated").inc(
                    report.bytes_replicated
                )
                tracer.metrics.gauge("gradrep.log_depth").set(report.log_depth)
        return report

    def _replicate_impl(self) -> ReplicationReport:
        if not self._stream_packets or self.log.base_version is None:
            raise CheckpointError(
                f"{self.name}: no committed base to replicate against — "
                f"save an anchor first"
            )
        tm = self.job.time_model
        checkpoints = self._build_packets()
        deltas: dict[int, np.ndarray] = {}
        metadata: dict[int, bytes] = {}
        worker_logical: dict[int, int] = {}
        dtoh_times = [0.0]
        for worker, ckpt in checkpoints.items():
            old = self._stream_packets[worker]
            new = ckpt.packet.payload
            if old.nbytes != new.nbytes:
                raise CheckpointError(
                    f"packet size changed mid-stream for worker {worker}: "
                    f"{old.nbytes} -> {new.nbytes}"
                )
            delta, summary = packet_delta(
                old, new, block_size=DELTA_BLOCK_SIZE
            )
            deltas[worker] = delta
            metadata[worker] = ckpt.metadata_blob
            logical_dirty = int(
                round(
                    summary.dirty_fraction
                    * self.job.logical_shard_bytes(worker)
                )
            )
            worker_logical[worker] = logical_dirty
            dtoh_times.append(tm.dtoh_time(logical_dirty))
        dtoh = max(dtoh_times)
        trunk_bytes = sum(worker_logical.values())
        slice_ = self.piggyback.transfer(trunk_bytes)
        seq = self.log.append(
            self.job.iteration,
            deltas,
            metadata,
            packet_size=self._current_packet_size(),
            worker_logical=worker_logical,
        )
        meta_bytes = sum(len(m) for m in metadata.values())
        commit_time = self._trunk_time(meta_bytes * self.job.cluster.num_nodes)
        for worker, ckpt in checkpoints.items():
            self._stream_packets[worker] = ckpt.packet.payload.copy()
        return ReplicationReport(
            engine=self.name,
            seq=seq,
            iteration=self.job.iteration,
            base_version=self.log.base_version,
            replicate_time=dtoh + slice_.seconds + commit_time,
            breakdown={
                "replicate_dtoh": dtoh,
                "replicate_piggyback": slice_.seconds,
                "replicate_commit": commit_time,
            },
            bytes_replicated=trunk_bytes,
            log_depth=self.log.depth(),
            trunk_fraction=slice_.fraction,
        )

    def log_depth(self) -> int:
        return self.log.depth()

    def can_replicate(self) -> bool:
        """True when a committed base exists to delta against.

        False right after construction or after a restore that dropped
        the stream — the manager then skips replication until the next
        save re-bases it.
        """
        return bool(self._stream_packets) and self.log.base_version is not None

    def _trunk_time(self, nbytes: int) -> float:
        """Seconds for ``nbytes`` over the full inter-node trunk."""
        return nbytes / gbps(self.job.time_model.inter_node_gbps)

    # ------------------------------------------------------------------
    # Recovery: newest committed anchor + bounded replay.
    # ------------------------------------------------------------------
    #: Whether an empty replay still installs the bases it was handed
    #: (gradrep's bases are anchor packets nothing else has installed).
    installs_bases = True

    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        tracer = obs.get_tracer()
        with tracer.span(
            f"{self.name}.restore", kind="restore", failed=sorted(failed_nodes)
        ) as span:
            report = self._restore_impl(failed_nodes)
            span.set(
                version=report.version,
                replayed=report.replayed_iterations,
            )
            span.add_sim(report.recovery_time)
            obs.record_phases(tracer, span, report.breakdown, kind="restore")
        return report

    def _replay_tail(
        self,
        version: int,
        bases: dict[int, tuple[np.ndarray, bytes]],
        failed_nodes: set[int],
    ) -> tuple[list[tuple[int, dict]], set[int]]:
        """Replay the committed tail onto each writer's base.

        ``bases`` maps every writer to the ``(payload, metadata)`` of the
        restored base ``version``.  Only a tail based on exactly that
        version replays.  The replayed state is installed (a restored
        base alone only when :attr:`installs_bases`), the dead suffix is
        pruned, the kept entries are re-replicated onto the wiped ranks
        and the stream re-seeds on the replayed packets.  Returns the
        tail and the writers that fetched some delta from their buddy.
        """
        live = [n for n in range(self.job.cluster.num_nodes) if n not in failed_nodes]
        tail = (
            self.log.replayable_tail(version, live)
            if self.log.base_version == version
            else []
        )
        install = bool(tail) or self.installs_bases
        payloads: dict[int, np.ndarray] = {}
        fetched: set[int] = set()
        for worker, (base, base_meta) in bases.items():
            payload, meta, buddy_fetches = self.log.replay_packet(
                base, worker, tail, live
            )
            payloads[worker] = payload
            if buddy_fetches:
                fetched.add(worker)
            if install:
                self.job.state_dicts[worker] = restore_state_dict(
                    meta if meta is not None else base_meta, payload, GPU
                )
        self.log.prune_to([seq for seq, _ in tail])
        self.log.restore_redundancy(set(failed_nodes))
        self._stream_packets = {
            worker: payload.copy() for worker, payload in payloads.items()
        }
        return tail, fetched

    @staticmethod
    def _replay_shares(tail: list[tuple[int, dict]], worker: int) -> list[int]:
        """Full-scale dirty bytes of ``worker``'s delta in each tail entry."""
        return [int(r["worker_logical"].get(worker, 0)) for _, r in tail]

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        self.on_failure(failed_nodes)
        self._stream_packets = {}
        latest = self.latest_version()
        tm = self.job.time_model
        live = [n for n in range(self.job.cluster.num_nodes) if n not in failed_nodes]
        if not live:
            raise RecoveryError(f"{self.name}: every node failed")
        for version in range(latest, 0, -1):
            record = self.anchors.committed(version, live)
            if record is not None and self.anchors.intact(version, live):
                break
        else:
            raise RecoveryError(
                f"{self.name}: no committed anchor survives failures "
                f"{sorted(failed_nodes)}"
            )
        anchor_iteration = int(record["iteration"])

        requests = []
        bytes_inter_node = 0
        htod_times = [0.0]
        bases: dict[int, tuple[np.ndarray, bytes]] = {}
        for worker in range(self.job.world_size):
            home, _ = self.anchors.replicas(worker)
            logical = self.job.logical_shard_bytes(worker)
            htod_times.append(tm.htod_time(logical))
            payload, meta, source = self.anchors.read(version, worker, live)
            if source != home:
                # The anchor copy crosses back over the trunk.
                requests.append(
                    TransferRequest(src=source, dst=home, nbytes=logical)
                )
                bytes_inter_node += logical
            bases[worker] = (payload, meta)
        tail, fetched = self._replay_tail(version, bases, failed_nodes)

        replay_requests = []
        replay_bytes = 0
        for worker in range(self.job.world_size):
            home, buddy = self.anchors.replicas(worker)
            shares = self._replay_shares(tail, worker)
            if worker in fetched and home in failed_nodes:
                for share in shares:
                    if share:
                        replay_requests.append(
                            TransferRequest(src=buddy, dst=home, nbytes=share)
                        )
                        bytes_inter_node += share
            replay_bytes += sum(shares)

        fetch = self.network.bill(requests).makespan if requests else 0.0
        replay_fetch = (
            self.network.bill(replay_requests).makespan
            if replay_requests
            else 0.0
        )
        replay_apply = tm.memcpy_time(replay_bytes) if replay_bytes else 0.0
        htod = max(htod_times)
        resume_iteration = (
            int(tail[-1][1]["iteration"]) if tail else anchor_iteration
        )

        # Background redundancy: the log tail was re-replicated by the
        # replay; the anchor comes back onto its wiped or rotten copies.
        self.log.base_version = version
        self.log.base_iteration = anchor_iteration
        self.anchors.rereplicate(version, set(failed_nodes))
        redo_bytes = sum(
            self.job.logical_shard_bytes(w)
            for w in range(self.job.world_size)
            if any(n in failed_nodes for n in self.anchors.replicas(w))
        )
        redo_time = self._trunk_time(redo_bytes) if redo_bytes else 0.0
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=fetch + replay_fetch + replay_apply + htod,
            breakdown={
                "fetch_packets": fetch,
                "replay_fetch": replay_fetch,
                "replay_apply": replay_apply,
                "htod": htod,
            },
            bytes_inter_node=bytes_inter_node,
            restore_redundancy_time=redo_time,
            replayed_iterations=len(tail),
            resume_iteration=resume_iteration,
        )
