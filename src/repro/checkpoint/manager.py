"""CheckpointManager: the lifecycle API a training loop actually calls.

The engines expose mechanism (``save``/``restore``); this manager adds the
policy layer the paper's ``eccheck.initialize`` / ``eccheck.save`` /
``eccheck.load`` functions imply:

* decides *when* to checkpoint (every ``interval`` iterations),
* schedules low-frequency remote backups (ECCheck's step 4) when the
  engine supports them, GC'ing old backups past a retention depth,
* applies the tier policy after each committed save: cold versions are
  demoted from host memory to the local-disk tier and the disk tier is
  GC'd (see :mod:`repro.checkpoint.tiering`),
* handles failures end-to-end: wipe, restore, report how many iterations
  of work were lost.

Usage::

    manager = CheckpointManager(job, engine, interval=16)
    for _ in range(iterations):
        job.advance()
        manager.step()
    ...
    manager.on_failure({0, 3})   # restores and returns a report
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.obs import timeseries as obs_timeseries
from repro.errors import CheckpointError
from repro.checkpoint.base import (
    CheckpointEngine,
    RecoveryReport,
    SupportsRemoteBackup,
    SupportsReplication,
    SupportsTiers,
)
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.tiering import TierPolicy


@dataclass
class ManagerStats:
    """Cumulative accounting of a manager's lifetime."""

    steps: int = 0
    checkpoints: int = 0
    remote_backups: int = 0
    recoveries: int = 0
    iterations_lost: int = 0
    total_stall_s: float = 0.0
    total_checkpoint_s: float = 0.0
    save_reports: list = field(default_factory=list)
    backup_reports: list = field(default_factory=list)
    #: Tier-stack accounting: completed demotions (memory -> disk), disk
    #: evictions, demotions skipped because the version was pinned/torn,
    #: and the per-demotion reports.
    demotions: int = 0
    evictions: int = 0
    skipped_demotions: int = 0
    bytes_to_disk: int = 0
    disk_bytes_evicted: int = 0
    demote_reports: list = field(default_factory=list)
    #: Node replacements registered through the manager.
    replacements: int = 0
    #: Total simulated seconds spent below full redundancy (closed
    #: degraded windows only; see :attr:`redundancy_ledger`).
    degraded_seconds: float = 0.0
    #: One entry per closed degraded window: ``{"degraded_at",
    #: "full_at", "degraded_seconds", "cause", "failed_ranks"}``.
    #: Distinguishes "restored" (training resumed) from "fully
    #: re-protected" (redundancy back at target).
    redundancy_ledger: list = field(default_factory=list)
    #: Gradient-replication accounting (engines with a
    #: ``replicate_iteration`` path): entries logged on non-checkpoint
    #: steps, their recurring cost, and log iterations re-applied during
    #: recoveries.
    replications: int = 0
    total_replicate_s: float = 0.0
    bytes_replicated: int = 0
    replayed_iterations: int = 0
    replicate_reports: list = field(default_factory=list)


class CheckpointManager:
    """Policy wrapper around a checkpoint engine.

    Args:
        job: the training job (its ``iteration`` counter is the clock).
        engine: any :class:`~repro.checkpoint.base.CheckpointEngine`.
        interval: iterations between checkpoints.
        remote_backup_every: checkpoints between remote backups (0
            disables); needs a :class:`SupportsRemoteBackup` engine.
        remote_backup_keep: complete remote backups to retain; older
            backups are GC'd after each new one lands (0 = keep all).
        tier_policy: when set, applied after every committed save — cold
            versions demote to the engine's local-disk tier and the disk
            tier is GC'd.  Needs a :class:`SupportsTiers` engine.

    A :class:`SupportsReplication` engine also logs every non-checkpoint
    iteration to its gradient log.

    Raises:
        CheckpointError: for a bad knob, or a knob the engine has no
            capability for.
    """

    def __init__(
        self,
        job: TrainingJob,
        engine: CheckpointEngine,
        interval: int = 16,
        remote_backup_every: int = 0,
        remote_backup_keep: int = 0,
        tier_policy: TierPolicy | None = None,
    ):
        if interval < 1:
            raise CheckpointError(f"interval must be >= 1, got {interval}")
        if remote_backup_every < 0:
            raise CheckpointError(
                f"remote_backup_every must be >= 0, got {remote_backup_every}"
            )
        if remote_backup_keep < 0:
            raise CheckpointError(
                f"remote_backup_keep must be >= 0, got {remote_backup_keep}"
            )
        if remote_backup_every and not isinstance(engine, SupportsRemoteBackup):
            raise CheckpointError(
                f"engine {engine.name!r} has no remote-backup path"
            )
        if tier_policy is not None and not isinstance(engine, SupportsTiers):
            raise CheckpointError(
                f"engine {engine.name!r} has no tier API (demote_version)"
            )
        self.job = job
        self.engine = engine
        self.interval = interval
        self.remote_backup_every = remote_backup_every
        self.remote_backup_keep = remote_backup_keep
        self.tier_policy = tier_policy
        self.stats = ManagerStats()
        #: The engine as a replication target, resolved once (None: the
        #: engine keeps no gradient log).
        self._replicating = (
            engine if isinstance(engine, SupportsReplication) else None
        )
        self._last_checkpoint_iteration: int | None = None
        self._checkpoint_iteration_of_version: dict[int, int] = {}
        self._degraded_window: dict | None = None

    # ------------------------------------------------------------------
    def due(self) -> bool:
        """True if a checkpoint is due at the job's current iteration."""
        if self._last_checkpoint_iteration is None:
            return True
        return (
            self.job.iteration - self._last_checkpoint_iteration
            >= self.interval
        )

    def iteration_of_version(self, version: int) -> int:
        """The job iteration a committed save or backup ``version`` captured.

        Raises:
            KeyError: for a version this manager never committed.
        """
        return self._checkpoint_iteration_of_version[version]

    def backup_due(self) -> bool:
        """True when the next committed save will also push a remote backup.

        Lets a scheduler know *before* calling :meth:`step` that the save
        is about to claim shared remote-store bandwidth, so arbitration
        can be applied around it.
        """
        if not self.remote_backup_every:
            return False
        return (self.stats.checkpoints + 1) % self.remote_backup_every == 0

    def step(self) -> bool:
        """Call once per training iteration; checkpoints when due.

        Returns:
            True if a checkpoint was taken this step.
        """
        self.stats.steps += 1
        if not self.due():
            self._replicate_if_supported()
            return False
        report = self.engine.save()
        self.stats.checkpoints += 1
        self.stats.total_stall_s += report.stall_time
        self.stats.total_checkpoint_s += report.checkpoint_time
        self.stats.save_reports.append(report)
        self._last_checkpoint_iteration = self.job.iteration
        self._checkpoint_iteration_of_version[report.version] = self.job.iteration
        if (
            self.remote_backup_every
            and self.stats.checkpoints % self.remote_backup_every == 0
        ):
            backup = self.engine.save_remote_backup()
            self.stats.remote_backups += 1
            self.stats.backup_reports.append(backup)
            self._checkpoint_iteration_of_version[backup.version] = self.job.iteration
            if self.remote_backup_keep:
                self.engine.gc_remote_backups(self.remote_backup_keep)
        if self.tier_policy is not None:
            self._apply_tier_policy()
        return True

    def _replicate_if_supported(self) -> None:
        """Gradient-replicate this iteration on engines that stream.

        A :class:`SupportsReplication` engine (gradrep/hybrid) protects
        every iteration between checkpoints by logging the update to a
        buddy node; the manager drives that on each non-checkpoint step
        and accounts the recurring cost.
        """
        engine = self._replicating
        if engine is None or not engine.can_replicate():
            return
        report = engine.replicate_iteration()
        self.stats.replications += 1
        self.stats.total_replicate_s += report.replicate_time
        self.stats.bytes_replicated += report.bytes_replicated
        self.stats.replicate_reports.append(report)

    def _apply_tier_policy(self) -> None:
        """Demote cold versions to disk and GC the disk tier (async)."""
        engine = self.engine
        decision = self.tier_policy.decide(
            engine.memory_versions(),
            engine.disk_versions(),
            pinned=engine.delta_base_version(),
        )
        for version in decision.demote:
            try:
                report = engine.demote_version(version)
            except CheckpointError:
                # Pinned or no longer intact (e.g. wiped by a failure
                # since the index was built) — not demotable, skip.
                self.stats.skipped_demotions += 1
                continue
            self.stats.demotions += 1
            self.stats.bytes_to_disk += report.bytes_to_disk
            self.stats.demote_reports.append(report)
        for version in decision.evict:
            self.stats.disk_bytes_evicted += engine.evict_disk_version(version)
            self.stats.evictions += 1

    def on_failure(self, failed_nodes: set[int]) -> RecoveryReport:
        """Handle a failure: mark state lost, restore, account lost work.

        Raises:
            RecoveryError: propagated from the engine when unrecoverable.
        """
        at_iteration = self.job.iteration
        self.job.fail_nodes(failed_nodes)
        tracer = obs.get_tracer()
        with tracer.span(
            "manager.recovery", failed=sorted(failed_nodes)
        ):
            report = self.engine.restore(failed_nodes)
        self.stats.recoveries += 1
        restored_iteration = self._checkpoint_iteration_of_version.get(
            report.version, 0
        )
        # Engines with a replay leg resume past the base checkpoint: the
        # recovered state corresponds to ``resume_iteration`` (last
        # replayed log entry), not to the checkpoint's own iteration.
        resume_iteration = report.resume_iteration
        if resume_iteration is None:
            resume_iteration = restored_iteration
        iterations_lost = max(0, at_iteration - resume_iteration)
        self.stats.iterations_lost += iterations_lost
        self.stats.replayed_iterations += report.replayed_iterations
        self.job.iteration = resume_iteration
        self._last_checkpoint_iteration = restored_iteration
        obs.event(
            "recovery",
            engine=self.engine.name,
            version=report.version,
            iterations_lost=iterations_lost,
            replayed_iterations=report.replayed_iterations,
            recovery_s=report.recovery_time,
        )
        return report

    # ------------------------------------------------------------------
    # Time-to-redundancy accounting.  ``on_failure`` restores training,
    # but the cluster may stay *degraded* (below its redundancy target)
    # for a long time afterwards — until a spare joined and background
    # repair finished.  An elastic controller brackets that window with
    # :meth:`mark_degraded` / :meth:`mark_fully_redundant`, so reports
    # can distinguish "restored" from "fully re-protected".
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while a degraded window is open."""
        return self._degraded_window is not None

    @property
    def degraded_since(self) -> float | None:
        """Sim time the open degraded window started, or None."""
        window = self._degraded_window
        return window["degraded_at"] if window is not None else None

    def mark_degraded(
        self, sim_time: float, cause: str = "failure", failed_ranks=()
    ) -> None:
        """Open (or extend) a degraded window at ``sim_time``.

        A second failure inside an open window keeps the original start
        (time-to-full-redundancy measures from the *first* loss of
        protection) and merges the failed-rank set.
        """
        if self._degraded_window is None:
            self._degraded_window = {
                "degraded_at": float(sim_time),
                "cause": cause,
                "failed_ranks": sorted(set(failed_ranks)),
            }
        else:
            merged = set(self._degraded_window["failed_ranks"]) | set(failed_ranks)
            self._degraded_window["failed_ranks"] = sorted(merged)
        sampler = obs_timeseries.active()
        if sampler is not None:
            # Eager sample: the window edge lands at its exact sim time
            # rather than being quantised to the next sampling tick.
            sampler.record_transition(self, float(sim_time), True, cause)

    def mark_fully_redundant(self, sim_time: float) -> dict | None:
        """Close the open degraded window; returns the ledger entry.

        No-op (returns None) when not degraded.

        Raises:
            CheckpointError: if ``sim_time`` precedes the window start.
        """
        window = self._degraded_window
        if window is None:
            return None
        if sim_time < window["degraded_at"]:
            raise CheckpointError(
                f"sim_time {sim_time} precedes degraded_at {window['degraded_at']}"
            )
        entry = {
            **window,
            "full_at": float(sim_time),
            "degraded_seconds": float(sim_time) - window["degraded_at"],
        }
        self.stats.redundancy_ledger.append(entry)
        self.stats.degraded_seconds += entry["degraded_seconds"]
        self._degraded_window = None
        sampler = obs_timeseries.active()
        if sampler is not None:
            sampler.record_transition(
                self, float(sim_time), False, entry["cause"]
            )
        return entry

    def time_to_full_redundancy(self) -> list[float]:
        """Seconds from each loss of protection to full re-protection."""
        return [e["degraded_seconds"] for e in self.stats.redundancy_ledger]

    def register_replacement(self, rank: int, node_id: int | None = None) -> int:
        """A spare machine takes over ``rank`` under a fresh node id.

        Delegates to :meth:`TrainingJob.replace_node` (the explicit
        node-id <-> rank mapping) and counts the replacement.  The new
        machine arrives with an empty local disk, so the engine's disk
        tier for that rank is wiped.
        """
        new_id = self.job.replace_node(rank, node_id)
        self.engine.on_node_replaced(rank)
        self.stats.replacements += 1
        obs.event("node_replaced", engine=self.engine.name, rank=rank, node_id=new_id)
        return new_id


class ScheduledJobDriver:
    """Steps one manager's training loop from a shared event loop.

    The single-job campaigns drive their ``(job, manager)`` pair with a
    private Python ``for`` loop; a fleet runs hundreds of tenants off
    *one* :class:`~repro.sim.events.Simulator`, so the per-job loop
    becomes a chain of scheduler callbacks: each tick advances the job
    one iteration, lets the manager checkpoint when due, and schedules
    the next tick after the iteration time plus any checkpoint stall.

    A driver can be paused (failure handling, blocked checkpointing) and
    resumed; ``iterations_run`` counts *effort* (ticks executed), while
    the job's own ``iteration`` reflects work surviving rollbacks — the
    gap is exactly the manager's ``iterations_lost``.

    Hooks (all optional) let a fleet scheduler wrap arbitration around
    the save without the driver knowing about bandwidth at all:

    * ``pre_save(driver)`` — called just before a *due* save; its return
      value is an opaque token;
    * ``post_save(driver, token, report)`` — called after the save with
      that token and the :class:`SaveReport` (None if no save landed);
    * ``on_done(driver)`` — called once ``max_iterations`` ticks ran.

    A 1-tenant fleet reduces to the classic loop exactly: the driver's
    tick body is ``job.advance(); manager.step()``, the same sequence
    every existing CLI runs inline.
    """

    def __init__(
        self,
        sim,
        manager: CheckpointManager,
        iteration_s: float,
        max_iterations: int,
        pre_save=None,
        post_save=None,
        on_done=None,
    ):
        if iteration_s <= 0:
            raise CheckpointError(
                f"iteration_s must be positive, got {iteration_s}"
            )
        if max_iterations < 1:
            raise CheckpointError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.sim = sim
        self.manager = manager
        self.job = manager.job
        self.iteration_s = iteration_s
        self.max_iterations = max_iterations
        self.pre_save = pre_save
        self.post_save = post_save
        self.on_done = on_done
        self.iterations_run = 0
        self.done = False
        self.paused = False
        self._handle = None

    def start(self, delay: float = 0.0) -> None:
        """Schedule the first tick ``delay`` seconds from now."""
        self._handle = self.sim.schedule(delay, self._tick)

    def pause(self) -> None:
        """Cancel the next tick; the driver holds until :meth:`resume`."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self.paused = True

    def resume(self, delay: float = 0.0) -> None:
        """Reschedule ticking ``delay`` seconds from now (no-op if done)."""
        if self.done or not self.paused:
            return
        self.paused = False
        self._handle = self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._handle = None
        if self.done or self.paused:
            return
        self.job.advance()
        self.iterations_run += 1
        token = None
        if self.manager.due() and self.pre_save is not None:
            token = self.pre_save(self)
        saved = self.manager.step()
        report = self.manager.stats.save_reports[-1] if saved else None
        if token is not None and self.post_save is not None:
            self.post_save(self, token, report)
        stall = report.stall_time if report is not None else 0.0
        if self.iterations_run >= self.max_iterations:
            self.done = True
            if self.on_done is not None:
                self.on_done(self)
            return
        self._handle = self.sim.schedule(self.iteration_s + stall, self._tick)
