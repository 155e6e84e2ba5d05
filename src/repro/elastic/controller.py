"""The elastic cluster controller: node lifecycle around a manager.

Owns the healthy -> failed -> replaced/rejoined lifecycle on top of a
:class:`~repro.checkpoint.manager.CheckpointManager` driving an
:class:`~repro.core.eccheck.ECCheckEngine`:

* **failure**: restore through the manager, wipe the dead ranks' host
  stores (the engine's redundancy re-establishment writes to them as if
  replacements already existed — a fiction the controller undoes),
  request spares, and *regroup* the survivors to a shrunk ``(k', m')``
  so checkpointing continues degraded — refusing only when no shape
  clears the redundancy floor;
* **spare join**: the replacement takes the rank under a fresh node id,
  the cluster regroups back up, and a background repair re-derives the
  latest committed version into the new layout, closing the manager's
  degraded window only once the repair commits ("restored" vs "fully
  re-protected");
* **adaptation**: at full strength the redundancy policy may recommend
  a different ``(k, m)`` split from the observed failure stream; the
  same repair machinery re-encodes the latest version into it.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import CheckpointError
from repro.core.eccheck import ECCheckEngine
from repro.elastic.membership import MembershipView
from repro.elastic.policy import RedundancyPolicy, choose_degraded_shape
from repro.elastic.repair import RepairReport, plan_repair, RepairExecutor


class ElasticClusterController:
    """Drives elastic membership for one manager/engine pair.

    Args:
        manager: the checkpoint manager.  Its engine must be an
            :class:`~repro.core.eccheck.ECCheckEngine`: regroups and repairs
            run on that engine's own layout helpers, which no capability
            protocol could honestly describe.
        spare_pool: a :class:`~repro.sim.spares.SparePool`.
        policy: redundancy policy (default: a fresh
            :class:`~repro.elastic.policy.RedundancyPolicy`).
        redundancy_floor: minimum parity count a degraded regroup may
            keep; below it, degraded checkpointing is refused.
        rng: numpy generator for replacement-delay sampling.
    """

    def __init__(
        self,
        manager,
        spare_pool,
        policy: RedundancyPolicy | None = None,
        redundancy_floor: int = 1,
        rng: np.random.Generator | None = None,
    ):
        engine = manager.engine
        if not isinstance(engine, ECCheckEngine):
            raise CheckpointError(
                f"engine {engine.name!r} does not support elastic "
                "reconfiguration"
            )
        if redundancy_floor < 0:
            raise CheckpointError(
                f"redundancy_floor must be >= 0, got {redundancy_floor}"
            )
        self.manager = manager
        self.engine = engine
        self.spare_pool = spare_pool
        self.policy = policy or RedundancyPolicy()
        self.redundancy_floor = redundancy_floor
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.membership = MembershipView(engine.job.cluster.num_nodes)
        #: Full-strength shape; adaptation updates it.
        self.full_k = engine.config.k
        self.full_m = engine.config.m
        self.checkpointing_blocked = False
        self.repair_ledger = None
        self.repair_generation = 0

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return not self.membership.at_full_strength

    @property
    def can_checkpoint(self) -> bool:
        """False while no admissible degraded shape clears the floor."""
        return not self.checkpointing_blocked

    # ------------------------------------------------------------------
    def on_failure(self, failed_ranks: set[int], sim_time: float):
        """Handle machine losses at ``sim_time``; returns the recovery report.

        Restores through the manager (passing the union of newly and
        still-dead ranks so the engine treats every empty host store as
        failed), then requests spares and regroups the survivors.

        Raises:
            RecoveryError: propagated when nothing is recoverable.
        """
        fresh = self.membership.fail(set(failed_ranks))
        if fresh:
            self.policy.observe_failure(sim_time, count=len(fresh))
        # An in-flight repair's target layout may now be unreachable:
        # abort the generation; a fresh plan is drawn at the next join.
        if self.repair_ledger is not None and not self.repair_ledger.committed:
            self.repair_ledger = None
        self.manager.mark_degraded(
            sim_time, cause="failure", failed_ranks=self.membership.dead
        )
        report = self.manager.on_failure(set(self.membership.dead))
        # The engine's restore re-establishes redundancy onto the failed
        # ranks as if replacements were already racked; they are not —
        # wipe them so degraded state reflects reality.
        for rank in sorted(self.membership.dead):
            self.engine.host.wipe(rank)
        for rank in sorted(fresh):
            self.spare_pool.request(rank, sim_time, self.rng)
        self._regroup()
        return report

    # ------------------------------------------------------------------
    def poll_spares(
        self, sim_time: float, repair_crash_injector=None
    ) -> list[int]:
        """Admit every spare provisioned by ``sim_time``; returns ranks.

        A spare arriving for a rank that is no longer dead (filled by an
        earlier arrival, or failed and already replaced) goes back to the
        pool instead of joining twice.  ``repair_crash_injector`` is
        forwarded to each join's repair run (chaos campaigns arm it); if
        a join crashes, the batch's remaining provisioned machines are
        requeued rather than lost.
        """
        joined = []
        ready = self.spare_pool.ready_before(sim_time)
        for position, request in enumerate(ready):
            if request.rank not in self.membership.dead:
                self.spare_pool.restock(1)
                continue
            try:
                self.on_spare_join(
                    request.rank,
                    sim_time,
                    repair_crash_injector=repair_crash_injector,
                )
            except BaseException:
                for later in ready[position + 1 :]:
                    self.spare_pool.requeue(later)
                raise
            joined.append(request.rank)
        return joined

    def on_spare_join(
        self, rank: int, sim_time: float, repair_crash_injector=None
    ) -> RepairReport | None:
        """A replacement machine fills ``rank``; regroup and repair.

        The rank's workers were running oversubscribed on survivors, so
        their *live* state migrates onto the newcomer (the manager's
        ``register_replacement`` conservatively empties the rank — that
        is correct for a pre-restore replacement, not for this flow).

        Returns the committed repair's report (None when there was no
        version to repair).
        """
        job = self.engine.job
        migrated = {
            w: job.state_dicts.get(w) for w in job.cluster.workers_of(rank)
        }
        self.manager.register_replacement(rank)
        for worker, state in migrated.items():
            job.state_dicts[worker] = state
        self.membership.join(rank)
        obs.event("spare_join", rank=rank)
        self._regroup()
        report = self.run_repair(
            sim_time, crash_injector=repair_crash_injector
        )
        if report is None and self.membership.at_full_strength:
            # Nothing ever committed, so nothing needs repairing; the
            # cluster is as protected as it can be.
            self.manager.mark_fully_redundant(sim_time)
        return report

    # ------------------------------------------------------------------
    def run_repair(self, sim_time: float, crash_injector=None):
        """Repair the newest repairable version into the live placement.

        Reuses the surviving ledger after an interrupted run (already-
        marked items are skipped; the ledger is crash-consistent), and
        closes the manager's degraded window when the commit lands at
        full strength.

        Raises:
            InjectedCrash: propagated from an armed crash injector; the
                partially-marked ledger stays on the controller for the
                resuming call.
        """
        engine = self.engine
        # The newest version decodable on the live ranks.
        for version in range(engine.latest_version(), 0, -1):
            if engine.decodable(version, self.membership.alive) is not None:
                break
        else:
            return None
        target = engine.placement
        ledger = self.repair_ledger
        if (
            ledger is None
            or ledger.version != version
            or ledger.target_plan != target
        ):
            self.repair_generation += 1
            ledger = plan_repair(
                engine, version, target, generation=self.repair_generation
            )
        self.repair_ledger = ledger
        executor = RepairExecutor(engine, ledger, crash_injector)
        report = executor.run()
        self.repair_ledger = None
        if self.membership.at_full_strength:
            self.manager.mark_fully_redundant(
                sim_time + report.repair_seconds
            )
        return report

    # ------------------------------------------------------------------
    def maybe_adapt(self, sim_time: float) -> tuple[int, int] | None:
        """Consult the policy at full strength; reconfigure if advised.

        Returns the adopted ``(k, m)`` or None when the recommendation
        is to stay put.
        """
        if self.degraded or self.checkpointing_blocked:
            return None
        n = self.engine.job.cluster.num_nodes
        recommendation = self.policy.recommend(
            n, self.full_m, self.engine.job.world_size
        )
        if recommendation is None:
            return None
        k, m = recommendation
        self.full_k, self.full_m = k, m
        self._regroup()
        self.run_repair(sim_time)
        return recommendation

    # ------------------------------------------------------------------
    def _regroup(self) -> None:
        """Point the engine at the best shape for the current members."""
        engine = self.engine
        active = self.membership.alive
        if self.membership.at_full_strength:
            shape = (self.full_k, self.full_m)
        else:
            shape = choose_degraded_shape(
                len(active),
                engine.job.world_size,
                current_m=self.full_m,
                floor=self.redundancy_floor,
            )
        if shape is None:
            self.checkpointing_blocked = True
            return
        k, m = shape
        self.checkpointing_blocked = False
        tracer = obs.get_tracer()
        seconds = engine.job.time_model.decompose_overhead_s
        with tracer.span(
            "elastic.regroup", kind="regroup", k=k, m=m
        ) as span:
            engine.reconfigure(k, m, active_nodes=active)
            span.add_sim(seconds)
            obs.record_phases(
                tracer, span, {"regroup_plan": seconds}, kind="regroup"
            )
