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

from dataclasses import dataclass

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
from repro.core.integrity import chunk_digest, verify_chunk
from repro.core.protocol import (
    build_worker_checkpoint,
    packet_size_for,
    restore_state_dict,
)
from repro.errors import CheckpointError, RecoveryError
from repro.gradrep.gradlog import GradientLog
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


@dataclass(frozen=True)
class GradRepConfig:
    """Knobs of the gradient-replication engine.

    ``collective_weight`` / ``replication_weight`` shape the piggyback
    share of the cross-rack trunk (see
    :class:`~repro.sim.network.PiggybackChannel`); ``delta_block_size``
    is the dirty-block granularity fed to
    :func:`~repro.core.incremental.packet_delta`.
    """

    packet_alignment: int = 64
    delta_block_size: int = 64 * 1024
    collective_weight: float = 3.0
    replication_weight: float = 1.0


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

    def __init__(self, job: TrainingJob, config: GradRepConfig | None = None):
        super().__init__(job)
        self.config = config or GradRepConfig()
        self.piggyback = PiggybackChannel(
            job.time_model,
            collective_weight=self.config.collective_weight,
            replication_weight=self.config.replication_weight,
        )
        self.log = GradientLog(self.host, job, fire=self.fire)
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
                    for w in self.job.writers
                ],
                alignment=self.config.packet_alignment,
            )
        return self._packet_size

    def _build_packets(self) -> dict[int, "object"]:
        """Packetise every writer's live state at the common size."""
        size = self._current_packet_size()
        return {
            worker: build_worker_checkpoint(
                worker, _canonical_state_dict(self.job.state_of(worker)), size
            )
            for worker in self.job.writers
        }

    def anchor_key(self, version: int, kind: str, worker: int) -> tuple:
        return (kind, version, worker)

    # ------------------------------------------------------------------
    # Anchor save: full packets replicated home + buddy, commit last.
    # ------------------------------------------------------------------
    def save(self) -> SaveReport:
        tracer = obs.get_tracer()
        with tracer.span(
            f"{self.name}.save", kind="save", version=self.version + 1
        ) as span:
            report = self._save_impl()
            span.add_sim(report.checkpoint_time)
            obs.record_phases(tracer, span, report.breakdown, kind="save")
            if tracer.enabled:
                tracer.metrics.counter("p2p.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
        return report

    def _save_impl(self) -> SaveReport:
        self.version += 1
        version = self.version
        tm = self.job.time_model
        checkpoints = self._build_packets()
        dtoh_times = [0.0]
        bytes_dtoh = 0
        for worker, ckpt in checkpoints.items():
            logical = self.job.logical_shard_bytes(worker)
            bytes_dtoh += logical
            dtoh_times.append(tm.dtoh_time(logical))
            home = self.log.home_of(worker)
            self.host.put(
                home, self.anchor_key(version, "apkt", worker),
                ckpt.packet.payload,
            )
            self.host.put(
                home, self.anchor_key(version, "adig", worker),
                chunk_digest(ckpt.packet.payload, ckpt.packet.original_length),
            )
            self.host.put(
                home, self.anchor_key(version, "ameta", worker),
                ckpt.metadata_blob,
            )
        stall = max(dtoh_times)
        self.fire("post_snapshot_packets", version=version)

        # Buddy replication rides the shared trunk (piggyback pricing).
        trunk_bytes = 0
        for worker, ckpt in checkpoints.items():
            home = self.log.home_of(worker)
            buddy = self.log.buddy_node(home)
            self.fire(
                "mid_anchor_replicate", version=version, worker=worker,
                dst=buddy,
            )
            for kind, value in (
                # An independent copy: bit rot on one anchor replica
                # must not be visible on the other.
                ("apkt", ckpt.packet.payload.copy()),
                ("adig", chunk_digest(ckpt.packet.payload, ckpt.packet.original_length)),
                ("ameta", ckpt.metadata_blob),
            ):
                self.host.put(buddy, self.anchor_key(version, kind, worker), value)
            trunk_bytes += self.job.logical_shard_bytes(worker)
        slice_ = self.piggyback.transfer(trunk_bytes)

        # Commit record broadcast — byte work first, metadata last.
        meta_bytes = sum(len(c.metadata_blob) for c in checkpoints.values())
        record = {"iteration": int(self.job.iteration)}
        self.fire("pre_anchor_commit", version=version)
        for node in range(self.job.cluster.num_nodes):
            self.fire("mid_anchor_broadcast", version=version, dst=node)
            self.host.put(node, ("anchor", version), dict(record))
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
                old, new, block_size=self.config.delta_block_size
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
    def _anchor_recoverable(self, version: int, live_nodes: list[int]) -> bool:
        live = set(live_nodes)
        for node in live_nodes:
            if not self.host.contains(node, ("anchor", version)):
                return False
        for worker in self.job.writers:
            home = self.log.home_of(worker)
            if not any(
                self._anchor_verified(node, version, worker)
                for node in (home, self.log.buddy_node(home))
                if node in live
            ):
                return False
        return True

    def _anchor_verified(self, node: int, version: int, worker: int) -> bool:
        if not all(
            self.host.contains(node, self.anchor_key(version, kind, worker))
            for kind in ("apkt", "adig", "ameta")
        ):
            return False
        return verify_chunk(
            self.host.get(node, self.anchor_key(version, "apkt", worker)),
            self.host.get(node, self.anchor_key(version, "adig", worker)),
        )

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

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        self.on_failure(failed_nodes)
        self._stream_packets = {}
        latest = self.latest_version()
        tm = self.job.time_model
        live = [
            n
            for n in range(self.job.cluster.num_nodes)
            if n not in failed_nodes
        ]
        if not live:
            raise RecoveryError(f"{self.name}: every node failed")
        version = next(
            (
                v
                for v in range(latest, 0, -1)
                if self._anchor_recoverable(v, live)
            ),
            None,
        )
        if version is None:
            raise RecoveryError(
                f"{self.name}: no committed anchor survives failures "
                f"{sorted(failed_nodes)}"
            )
        anchor_iteration = int(
            self.host.get(live[0], ("anchor", version))["iteration"]
        )

        # Replay applies only to the tail based on this exact anchor.
        tail = (
            self.log.replayable_tail(version, live)
            if self.log.base_version == version
            else []
        )

        requests = []
        replay_requests = []
        bytes_inter_node = 0
        htod_times = [0.0]
        replay_bytes = 0
        final_payloads: dict[int, np.ndarray] = {}
        for worker in self.job.writers:
            home = self.log.home_of(worker)
            buddy = self.log.buddy_node(home)
            logical = self.job.logical_shard_bytes(worker)
            htod_times.append(tm.htod_time(logical))
            source = next(
                n
                for n in (home, buddy)
                if n in set(live) and self._anchor_verified(n, version, worker)
            )
            base_payload = self.host.get(
                source, self.anchor_key(version, "apkt", worker)
            )
            base_meta = self.host.get(
                source, self.anchor_key(version, "ameta", worker)
            )
            if source != home:
                # The anchor copy crosses back over the trunk.
                requests.append(
                    TransferRequest(src=source, dst=home, nbytes=logical)
                )
                bytes_inter_node += logical
                # Re-populate the wiped home so redundancy holds again.
                for kind in ("apkt", "adig", "ameta"):
                    value = self.host.get(
                        source, self.anchor_key(version, kind, worker)
                    )
                    if kind == "apkt":
                        value = value.copy()
                    self.host.put(
                        home, self.anchor_key(version, kind, worker), value
                    )
            payload, meta, buddy_fetches = self.log.replay_packet(
                base_payload, worker, tail, live
            )
            if buddy_fetches:
                for seq, record in tail:
                    share = int(record["worker_logical"].get(worker, 0))
                    if share and home in failed_nodes:
                        replay_requests.append(
                            TransferRequest(src=buddy, dst=home, nbytes=share)
                        )
                        bytes_inter_node += share
            replay_bytes += sum(
                int(r["worker_logical"].get(worker, 0)) for _, r in tail
            )
            final_payloads[worker] = payload
            self.job.state_dicts[worker] = restore_state_dict(
                meta if meta is not None else base_meta, payload, GPU
            )
        self._restore_dp_replicas()

        fetch = self.network.simulate(requests).makespan if requests else 0.0
        replay_fetch = (
            self.network.simulate(replay_requests).makespan
            if replay_requests
            else 0.0
        )
        replay_apply = tm.memcpy_time(replay_bytes) if replay_bytes else 0.0
        htod = max(htod_times)
        resume_iteration = (
            int(tail[-1][1]["iteration"]) if tail else anchor_iteration
        )

        # Background redundancy: prune the dead tail, re-replicate the
        # surviving one, re-broadcast commit/anchor records to wiped ranks.
        self.log.base_version = version
        self.log.base_iteration = anchor_iteration
        self.log.prune_to([seq for seq, _ in tail])
        self.log.restore_redundancy(set(failed_nodes))
        for node in failed_nodes:
            self.host.put(
                node, ("anchor", version), {"iteration": anchor_iteration}
            )
        # Wiped buddy/home anchor copies come back from the survivor.
        for worker in self.job.writers:
            home = self.log.home_of(worker)
            buddy = self.log.buddy_node(home)
            source = next(
                n
                for n in (home, buddy)
                if self._anchor_verified(n, version, worker)
            )
            for node in (home, buddy):
                if node != source and not self._anchor_verified(
                    node, version, worker
                ):
                    for kind in ("apkt", "adig", "ameta"):
                        value = self.host.get(
                            source, self.anchor_key(version, kind, worker)
                        )
                        if kind == "apkt":
                            value = value.copy()
                        self.host.put(
                            node,
                            self.anchor_key(version, kind, worker),
                            value,
                        )
        redo_bytes = sum(
            self.job.logical_shard_bytes(w)
            for w in self.job.writers
            if self.log.home_of(w) in failed_nodes
            or self.log.buddy_node(self.log.home_of(w)) in failed_nodes
        )
        redo_time = self._trunk_time(redo_bytes) if redo_bytes else 0.0
        self._stream_packets = {
            worker: payload.copy()
            for worker, payload in final_payloads.items()
        }
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
