"""Checkpoint engine interface and shared timing/reporting plumbing.

Engines operate on a :class:`~repro.checkpoint.job.TrainingJob`:
``save()`` captures consistent checkpoint state (really moving the job's
bytes into host/remote stores) and returns a :class:`SaveReport` with
simulated timing; ``restore(failed_nodes)`` puts every worker's
``state_dict`` back and returns a :class:`RecoveryReport`.  Engines that
cannot recover a failure pattern raise
:class:`~repro.errors.RecoveryError` — the behaviour Fig. 13b exposes for
the replication baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, runtime_checkable

from repro import obs
from repro.errors import CheckpointError, DecodeError, RecoveryError
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.storage import HostMemoryStore, LocalDiskStore, RemoteStorage
from repro.sim.network import (
    REMOTE,
    ClusterNetwork,
    TransferRequest,
)
from repro.tensors.serialization import deserialize_state_dict, serialize_state_dict


@dataclass
class SaveReport:
    """Timing and traffic accounting of one checkpoint save.

    Attributes:
        engine: engine name ("base1" ... "eccheck").
        version: checkpoint version written.
        stall_time: seconds training was blocked (the paper's
            "checkpoint stall").
        checkpoint_time: seconds from the save call until the checkpoint
            is fully durable/recoverable — this bounds the maximum
            checkpoint frequency (Fig. 10).
        breakdown: per-step seconds (Fig. 11).
        bytes_dtoh: device-to-host bytes copied.
        bytes_inter_node: bytes crossing node NICs.
        bytes_to_remote: bytes written to remote storage.
    """

    engine: str
    version: int
    stall_time: float
    checkpoint_time: float
    breakdown: dict[str, float] = field(default_factory=dict)
    bytes_dtoh: int = 0
    bytes_inter_node: int = 0
    bytes_to_remote: int = 0


@dataclass
class RecoveryReport:
    """Timing and traffic accounting of one recovery.

    ``recovery_time`` runs from the load call to training resumption; the
    optional ``restore_redundancy_time`` covers the background work of
    re-establishing fault tolerance (ECCheck's second recovery task),
    which does not block training.  ``tier`` names the tier the restored
    version was served from (``"memory"``, ``"disk"`` or ``"remote"``),
    and ``bytes_from_disk`` counts local-disk reads on the promotion path.

    Engines with a *temporal* recovery leg (gradient-log replay on top of
    the restored base checkpoint) additionally report
    ``replayed_iterations`` — log entries re-applied after the base
    restore — and ``resume_iteration``, the absolute job iteration the
    recovered state corresponds to.  ``resume_iteration=None`` means the
    engine has no replay notion and the manager's checkpoint-iteration
    ledger rules.
    """

    engine: str
    version: int
    recovery_time: float
    breakdown: dict[str, float] = field(default_factory=dict)
    bytes_inter_node: int = 0
    bytes_from_remote: int = 0
    bytes_from_disk: int = 0
    tier: str = "memory"
    restore_redundancy_time: float = 0.0
    replayed_iterations: int = 0
    resume_iteration: int | None = None


@dataclass
class ReplicationReport:
    """Accounting of one per-iteration gradient replication.

    ``replicate_time`` is the piggybacked transfer plus commit broadcast
    — overhead that recurs *every* iteration, which is exactly the
    steady-state cost the hybrid crossover table weighs against
    ``iterations_lost``.  ``bytes_replicated`` counts logical dirty bytes
    shipped over the trunk (home copy + buddy copy); ``log_depth`` is the
    gradient-log tail length after this entry committed.
    """

    engine: str
    seq: int
    iteration: int
    base_version: int
    replicate_time: float
    breakdown: dict[str, float] = field(default_factory=dict)
    bytes_replicated: int = 0
    log_depth: int = 0
    trunk_fraction: float = 0.0


@dataclass
class DemotionReport:
    """Accounting of one asynchronous memory -> disk demotion.

    ``demote_time`` is simulated seconds *off* the training critical path
    (the demotion thread writes the cold version to local disk while
    training continues).
    """

    engine: str
    version: int
    demote_time: float
    breakdown: dict[str, float] = field(default_factory=dict)
    bytes_to_disk: int = 0


class CheckpointEngine:
    """Base class for all checkpoint engines."""

    name: str = "abstract"

    #: Named crash points this engine's save flow exposes to fault
    #: injection (see :mod:`repro.chaos.injection`).  Empty means the
    #: engine has no injection hooks.
    crash_points: tuple[str, ...] = ()

    def __init__(self, job: TrainingJob):
        self.job = job
        self.host = HostMemoryStore(job.cluster.num_nodes)
        self.disk = LocalDiskStore(job.cluster.num_nodes)
        self.remote = RemoteStorage()
        self.network = ClusterNetwork(job.cluster.num_nodes, job.time_model)
        self.version = 0
        #: When set (a callable ``(point, **context)``), the save flow
        #: consults it at every crash point; the callable may raise
        #: :class:`~repro.chaos.injection.InjectedCrash` to abort the save
        #: mid-flight, leaving a genuine torn version behind.
        self.crash_injector = None

    def fire(self, point: str, injector=None, **context) -> None:
        """Consult a crash injector at ``point`` (no-op when unarmed).

        The one crash hook: the save flows consult the engine's armed
        ``crash_injector``, an elastic repair passes its own ``injector``.
        An injector that actually fires (i.e. raises to abort the
        operation) is recorded as one ``crash_point_fired`` event before
        the crash propagates; the point's ``context`` rides nested, as
        its keys (a chunk's ``kind``) may collide with the record's own.
        """
        injector = self.crash_injector if injector is None else injector
        if injector is not None:
            try:
                injector(point, **context)
            except BaseException:
                obs.event(
                    "crash_point_fired", engine=self.name, point=point, context=context
                )
                raise

    # ------------------------------------------------------------------
    # The traced envelope: one root span per operation, named
    # ``<engine>.save`` / ``<engine>.restore``, billed the report's time
    # and carrying its breakdown as phases.  Engines that record more
    # (eccheck's step spans, gradrep's replay depth) override these.
    # ------------------------------------------------------------------
    def save(self) -> SaveReport:
        """Checkpoint the job's current state; returns timing/traffic."""
        tracer = obs.get_tracer()
        with tracer.span(
            f"{self.name}.save", kind="save", version=self.version + 1
        ) as span:
            report = self._save_impl()
            span.add_sim(report.checkpoint_time)
            obs.record_phases(tracer, span, report.breakdown, kind="save")
            if tracer.enabled and report.bytes_inter_node:
                tracer.metrics.counter("p2p.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
        return report

    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        """Recover all workers' state after the given nodes failed.

        The caller has already invoked ``job.fail_nodes(failed_nodes)``;
        the engine must wipe its own host stores for those nodes, rebuild
        every worker's ``state_dict`` from surviving redundancy, and
        re-establish its fault-tolerance invariant.

        Raises:
            RecoveryError: when the failure pattern is unrecoverable from
                in-memory state (callers may then fall back to remote).
        """
        tracer = obs.get_tracer()
        with tracer.span(
            f"{self.name}.restore", kind="restore", failed=sorted(failed_nodes)
        ) as span:
            report = self._restore_impl(failed_nodes)
            span.set(version=report.version)
            span.add_sim(report.recovery_time)
            obs.record_phases(tracer, span, report.breakdown, kind="restore")
        return report

    def _save_impl(self) -> SaveReport:
        """The save itself, untraced: bump ``version`` and write it."""
        raise NotImplementedError

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        """The restore itself, untraced (see :meth:`restore`)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def on_failure(self, failed_nodes: set[int]) -> None:
        """Wipe the host memory of failed nodes (their RAM is gone).

        Local disks survive a crash/reboot, so the disk tier is left
        intact — that durability gap is exactly what the tier stack
        exploits.  See :meth:`on_node_replaced` for the case where the
        physical machine (and its disk) is swapped out.
        """
        for node in failed_nodes:
            self.host.wipe(node)

    def on_node_replaced(self, rank: int) -> None:
        """A replacement machine took over ``rank``: its disk is empty."""
        self.disk.wipe(rank)

    def latest_version(self) -> int:
        """Version of the most recent completed checkpoint.

        Raises:
            CheckpointError: if no checkpoint was ever written.
        """
        if self.version == 0:
            raise CheckpointError("no checkpoint has been written yet")
        return self.version

    # ------------------------------------------------------------------
    # Shared remote persist path (base1/base2 primary path; ECCheck's
    # low-frequency catastrophic backup, step 4 in Fig. 5).
    # ------------------------------------------------------------------
    def _persist_all_to_remote(self, version: int) -> tuple[float, int]:
        """Serialize every writer's state to remote storage.

        Returns ``(transfer_makespan_seconds, bytes_written)``; the
        serialization time is *not* included (engines account it as a
        separate step since it may overlap differently per engine).
        """
        requests = []
        total = 0
        for worker in range(self.job.world_size):
            blob = serialize_state_dict(self.job.state_of(worker))
            self.remote.put(("ckpt", version, worker), blob)
            logical = self.job.logical_shard_bytes(worker)
            total += logical
            requests.append(
                TransferRequest(
                    src=self.job.node_of(worker), dst=REMOTE, nbytes=logical
                )
            )
        result = self.network.bill(requests)
        return result.makespan, total

    def _complete_remote_versions(self) -> Iterator[int]:
        """Versions with every writer's blob in remote storage, newest first.

        A crash can interrupt a remote persist after some workers' blobs
        landed and others did not; such a torn remote version must never
        be restored (and is garbage to the GC).
        """
        for version in range(self.version, 0, -1):
            if all(
                self.remote.contains(("ckpt", version, worker))
                for worker in range(self.job.world_size)
            ):
                yield version

    def _latest_complete_remote_version(self) -> int | None:
        """Newest complete remote version, or ``None`` if there is none."""
        return next(self._complete_remote_versions(), None)

    def gc_remote_backups(self, keep: int) -> int:
        """Reclaim remote space: keep only the newest ``keep`` complete backups.

        Every blob of a version older than the oldest kept complete
        version is deleted — including torn versions, which are garbage by
        definition.  Returns the bytes reclaimed.

        Raises:
            CheckpointError: for a non-positive ``keep``.
        """
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        complete = list(self._complete_remote_versions())
        if len(complete) <= keep:
            return 0
        horizon = complete[keep - 1]  # oldest version that must survive
        reclaimed = 0
        for key in self.remote.keys():
            if key[0] == "ckpt" and key[1] < horizon:
                reclaimed += self.remote.delete(key)
        return reclaimed

    def _restore_newest_remote(self, breakdown_key: str) -> RecoveryReport:
        """Restore the newest complete remote version; replicas copy from peers.

        The one remote fallback: base1's and base2's restore, and ECCheck's
        when nothing is left in memory or on disk.  The load is billed under
        ``breakdown_key``.  All or nothing: every blob is deserialized
        before any state is replaced.

        Raises:
            RecoveryError: if no complete remote version exists.
            DecodeError: if a writer's blob does not deserialize.
        """
        # A crash mid-persist leaves some workers' blobs missing: walk back
        # past such torn versions to the newest complete one.
        version = self._latest_complete_remote_version()
        if version is None:
            raise RecoveryError(
                f"{self.name}: no complete remote checkpoint to restore"
            )
        requests = []
        total = 0
        states = {}
        for worker in range(self.job.world_size):
            try:
                blob = self.remote.get(("ckpt", version, worker))
                states[worker] = deserialize_state_dict(blob)
            except DecodeError as exc:
                raise DecodeError(
                    f"remote checkpoint v{version} of worker {worker}: {exc}"
                ) from exc
        for worker, state in states.items():
            self.job.state_dicts[worker] = state
            logical = self.job.logical_shard_bytes(worker)
            total += logical
            requests.append(
                TransferRequest(
                    src=REMOTE, dst=self.job.node_of(worker), nbytes=logical
                )
            )
        result = self.network.bill(requests)
        tm = self.job.time_model
        deserialize = max(
            tm.deserialize_time(self.job.logical_shard_bytes(w))
            for w in range(self.job.world_size)
        )
        # Deserialized state still has to reach the GPUs before training
        # can resume: bill the host-to-device copy.
        htod = max(
            tm.htod_time(self.job.logical_shard_bytes(w))
            for w in range(self.job.world_size)
        )
        load_time = result.makespan + deserialize + htod
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=load_time,
            breakdown={breakdown_key: load_time},
            bytes_from_remote=total,
            tier="remote",
        )


# ----------------------------------------------------------------------
# Optional engine capabilities.  Structural, so ``checkpoint`` names what
# ``core`` and ``gradrep`` engines provide without importing them (both
# import this module).  A caller checks one once, where it takes the
# engine, and raises a typed error there — never a ``hasattr`` probe on
# the hot path, where a misspelt name silently disables the feature.
# ----------------------------------------------------------------------
@runtime_checkable
class SupportsRemoteBackup(Protocol):
    """The low-frequency catastrophic backup (ECCheck's step 4)."""

    def save_remote_backup(self) -> SaveReport: ...


@runtime_checkable
class SupportsReplication(Protocol):
    """A per-iteration gradient log between checkpoints (Checkmate)."""

    log: Any

    def replicate_iteration(self) -> ReplicationReport: ...

    def can_replicate(self) -> bool: ...

    def log_depth(self) -> int: ...


@runtime_checkable
class SupportsTiers(Protocol):
    """The memory -> local-disk tier stack (TierCheck) a TierPolicy drives."""

    def memory_versions(self) -> list[int]: ...

    def disk_versions(self) -> list[int]: ...

    def delta_base_version(self) -> int | None: ...

    def demote_version(self, version: int) -> DemotionReport: ...

    def evict_disk_version(self, version: int) -> int: ...
