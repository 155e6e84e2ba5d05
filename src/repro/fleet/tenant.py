"""Per-tenant runtime: job + engine + manager + elastic controller.

One admitted tenant bundles everything a single-job campaign builds by
hand — a :class:`~repro.checkpoint.job.TrainingJob`, an ECCheck engine
with the tenant's ``(k, m)`` split, a
:class:`~repro.checkpoint.manager.CheckpointManager` carrying the
tenant's cadence/backup/tier policy, and an
:class:`~repro.elastic.controller.ElasticClusterController` for degraded
windows and spare joins — plus the audit state the fleet campaign
checks: a ledger of recent committed snapshots every recovery is judged
against, and the SLO extraction the report aggregates.

The controller draws spares through a :class:`TenantSpareView`, a thin
facade over the fleet-wide pool that tags requests with the tenant name
and filters arrivals back to their owner.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.harness import CommitLedger
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.elastic import ElasticClusterController, RedundancyPolicy
from repro.fleet.spec import TenantSpec
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.sim.spares import SparePool, SpareRequest

#: Committed snapshots retained per tenant for bit-exactness checks.
#: Restores always land on the newest recoverable version; a short
#: window bounds fleet memory at hundreds of tenants.
SNAPSHOT_WINDOW = 4


class TenantSpareView:
    """A tenant-scoped facade over the shared fleet spare pool.

    The elastic controller calls the pool with the single-job signature;
    the view injects the tenant tag on the way in and filters arrivals
    on the way out, so controllers stay oblivious to sharing.
    """

    def __init__(self, pool: SparePool, tenant: str):
        self.pool = pool
        self.tenant = tenant

    @property
    def remaining(self) -> int | None:
        return self.pool.remaining

    def request(self, rank: int, sim_time: float, rng=None):
        return self.pool.request(rank, sim_time, rng=rng, tenant=self.tenant)

    def ready_before(self, sim_time: float) -> list[SpareRequest]:
        return self.pool.ready_before(sim_time, tenant=self.tenant)

    def requeue(self, request: SpareRequest) -> None:
        self.pool.requeue(request)

    def restock(self, count: int) -> None:
        self.pool.restock(count)


class TenantRuntime:
    """Everything one admitted tenant runs and the fleet audits."""

    def __init__(
        self,
        spec: TenantSpec,
        pool: SparePool,
        slots: list[int],
        submitted_at: float,
        admitted_at: float,
    ):
        self.spec = spec
        self.slots = dict(enumerate(slots))  # rank -> fleet slot
        self.submitted_at = submitted_at
        self.admitted_at = admitted_at
        self.state = "running"  # running | completed | killed | stalled
        self.outcome_detail = ""
        self.job = TrainingJob.create(
            model=spec.model,
            cluster=ClusterSpec(
                num_nodes=spec.nodes,
                gpus_per_node=spec.gpus_per_node,
                nodes_per_rack=min(2, spec.nodes),
            ),
            strategy=ParallelismSpec(
                tensor_parallel=spec.tensor_parallel,
                pipeline_parallel=spec.pipeline_parallel,
            ),
            scale=spec.scale,
            seed=spec.seed,
        )
        self.engine = ECCheckEngine(
            self.job, ECCheckConfig(k=spec.k, m=spec.m, encode_threads=2)
        )
        tier_policy = (
            TierPolicy(
                memory_versions=spec.tier_memory_versions, disk_versions=4
            )
            if spec.tier_memory_versions
            else None
        )
        self.manager = CheckpointManager(
            self.job,
            self.engine,
            interval=spec.interval,
            remote_backup_every=spec.remote_backup_every,
            remote_backup_keep=2 if spec.remote_backup_every else 0,
            tier_policy=tier_policy,
        )
        self.controller = ElasticClusterController(
            self.manager,
            TenantSpareView(pool, spec.name),
            policy=RedundancyPolicy(repair_window_s=900.0, max_m=3),
            redundancy_floor=spec.redundancy_floor,
            rng=np.random.default_rng(spec.seed),
        )
        # Backup versions are not snapshotted: a restore from the remote
        # tier is judged for outcome and version only.
        self.ledger = CommitLedger(
            self.manager, window=SNAPSHOT_WINDOW, backups=False
        )
        self.driver = None  # attached by the scheduler
        self.failure_events = 0
        self.refused_events = 0

    # ------------------------------------------------------------------
    def ranks_of_slots(self, slots: set[int]) -> set[int]:
        return {r for r, s in self.slots.items() if s in slots}

    def release(self) -> list[int]:
        """Drop heavy state at end of life; returns the leased slots."""
        slots = sorted(self.slots.values())
        self.job = None
        self.engine = None
        self.manager = None
        self.controller = None
        self.driver = None
        self.ledger = None
        return slots

    # ------------------------------------------------------------------
    def slo(self) -> dict:
        """Per-tenant SLO record for the fleet report (deterministic)."""
        stats = self.manager.stats if self.manager is not None else None
        record = {
            "name": self.spec.name,
            "state": self.state,
            "outcome_detail": self.outcome_detail,
            "weight": self.spec.weight,
            "priority": self.spec.priority,
            "k": self.spec.k,
            "m": self.spec.m,
            "admission_wait_s": round(self.admitted_at - self.submitted_at, 9),
            "failure_events": self.failure_events,
            "refused_events": self.refused_events,
        }
        if stats is not None:
            record.update(
                {
                    "iterations_run": (
                        self.driver.iterations_run if self.driver else 0
                    ),
                    "final_iteration": self.job.iteration,
                    "checkpoints": stats.checkpoints,
                    "remote_backups": stats.remote_backups,
                    "recoveries": stats.recoveries,
                    "iterations_lost": stats.iterations_lost,
                    "degraded_seconds": round(stats.degraded_seconds, 9),
                    "time_to_full_redundancy": [
                        round(x, 9) for x in
                        (e["degraded_seconds"] for e in stats.redundancy_ledger)
                    ],
                    "replacements": stats.replacements,
                }
            )
        return record
