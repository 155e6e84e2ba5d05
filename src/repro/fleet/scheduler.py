"""The fleet scheduler: many tenants, one event loop, shared resources.

One :class:`FleetScheduler` owns the shared
:class:`~repro.sim.events.Simulator` and four fleet-wide resources:

* **slots** — machine positions tenants lease (see
  :class:`~repro.fleet.spec.FleetSpec`); admission is strict
  priority-then-FIFO with head-of-line blocking, so an admissible
  tenant's wait is bounded by the demands queued ahead of it;
* **remote-store bandwidth** — a
  :class:`~repro.sim.network.BandwidthArbiter` over the storage
  aggregate pipe; a tenant claims it for the duration of each remote
  backup (and backup restore), and runs the transfer against a
  :meth:`~repro.sim.network.TimeModel.with_shared_bottleneck` model
  carrying its granted share;
* **cross-rack trunk bandwidth** — a second arbiter for tenants whose
  slots span racks, squeezing their inter-node checkpoint traffic;
* **spares** — one fleet-wide :class:`~repro.sim.spares.SparePool` every
  tenant's elastic controller draws from (queued when exhausted, with
  starvation accounting).

Failures arrive as correlated *domain* events
(:func:`~repro.sim.failures.domain_failure_trace`): one event takes down
every live slot in a rack/switch/power domain, across every tenant
scheduled onto it.  Each affected tenant's recovery is judged by
:func:`repro.chaos.harness.recover` against the tier-aware oracle;
disagreement in either direction is a violation.

Per-job training loops are :class:`~repro.checkpoint.manager.ScheduledJobDriver`
callbacks on the shared loop — a 1-tenant fleet runs the exact sequence
the single-job CLIs run inline.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import obs
from repro.chaos.harness import predict, recover
from repro.errors import SimulationError
from repro.checkpoint.manager import ScheduledJobDriver
from repro.fleet.spec import FleetSpec, TenantSpec
from repro.fleet.tenant import TenantRuntime
from repro.sim.events import Simulator
from repro.sim.failures import domain_failure_trace
from repro.sim.network import BandwidthArbiter, TimeModel, gbps
from repro.sim.spares import SparePool


class AdmissionQueue:
    """Strict priority-then-FIFO admission with head-of-line blocking.

    Only the head may be admitted; a head that does not fit blocks
    everyone behind it.  That forgoes backfilling throughput for a
    bounded-wait guarantee: with equal priorities a tenant's wait
    depends only on the finite demands queued ahead of it, never on
    later arrivals (the property suite pins this).
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, TenantSpec]] = []
        self._seq = 0

    def push(self, spec: TenantSpec) -> None:
        heapq.heappush(self._heap, (-spec.priority, self._seq, spec))
        self._seq += 1

    def head(self) -> TenantSpec | None:
        return self._heap[0][2] if self._heap else None

    def pop(self) -> TenantSpec:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


#: Median spare provisioning delay (log-normal with shape
#: :data:`SPARE_SIGMA`).
SPARE_MEDIAN_DELAY_S = 120.0
#: Log-normal shape of the spare provisioning delay.
SPARE_SIGMA = 0.4
#: Median time a failed machine spends at the depot before returning to
#: inventory (or a freed slot being re-racked).
DEPOT_MEDIAN_DELAY_S = 900.0
#: Aggregate cross-rack trunk capacity.
CROSS_RACK_GBPS = 200.0
#: Stall-breaking rounds :meth:`FleetScheduler.run` tries before it
#: gives up on draining the fleet.
MAX_STALL_ROUNDS = 1000


class FleetScheduler:
    """Runs a tenant mix over one shared simulated fleet.

    Args:
        fleet: slot/domain topology.
        seed: integer sequence; every internal stream derives from it.
        arbitration: ``"fair"`` or ``"priority"`` (both arbiters).
        spares: initial fleet-wide spare inventory.
        mtbf_hours: domain class -> MTBF per domain; empty disables
            failures.
        duration_hours: failure-trace horizon.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        seed=(0,),
        arbitration: str = "fair",
        spares: int = 6,
        mtbf_hours: dict[str, float] | None = None,
        duration_hours: float = 8.0,
    ):
        self.fleet = fleet
        self.sim = Simulator()
        self.base_time_model = TimeModel()
        self.remote_arbiter = BandwidthArbiter(
            gbps(self.base_time_model.remote_storage_gbps), mode=arbitration
        )
        self.trunk_arbiter = BandwidthArbiter(
            gbps(CROSS_RACK_GBPS), mode=arbitration
        )
        seed = tuple(int(s) for s in (seed if hasattr(seed, "__len__") else (seed,)))
        self.pool = SparePool(
            size=spares,
            median_delay_s=SPARE_MEDIAN_DELAY_S,
            sigma=SPARE_SIGMA,
            rng=np.random.default_rng([*seed, 1]),
            queue_when_exhausted=True,
        )
        self.depot_rng = np.random.default_rng([*seed, 2])
        self.queue = AdmissionQueue()
        self.tenants: dict[str, TenantRuntime] = {}
        self.slo_records: dict[str, dict] = {}
        self.cycles: list[dict] = []
        self.violations: list[str] = []
        self.free_slots: list[int] = list(range(fleet.num_slots))
        self.down_slots: set[int] = set()
        self.slot_owner: dict[int, str] = {}
        self.submitted: dict[str, float] = {}
        #: Optional telemetry sampler (see :meth:`attach_sampler`).
        self.sampler = None
        trace_rng = np.random.default_rng([*seed, 0])
        mtbf_hours = mtbf_hours or {}
        self.failure_trace = domain_failure_trace(
            fleet.domain_counts(), mtbf_hours, duration_hours, trace_rng
        ) if mtbf_hours else []
        for event in self.failure_trace:
            self.sim.schedule(
                event.time * 3600.0,
                lambda e=event: self._on_domain_event(e),
            )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_sampler(self, sampler) -> None:
        """Register fleet-wide probes and observe the shared clock.

        Probes only *read* scheduler state; the sampler rides the
        simulator's ``on_advance`` observer, so ``sim.processed`` /
        ``sim.now`` — both serialized into the report — are untouched.
        """
        self.sampler = sampler
        sampler.register_probe("admission_queue", lambda t: float(len(self.queue)))
        sampler.register_probe(
            "running_tenants",
            lambda t: float(
                sum(1 for x in self.tenants.values() if x.state == "running")
            ),
        )
        sampler.register_probe("free_slots", lambda t: float(len(self.free_slots)))
        sampler.register_probe("down_slots", lambda t: float(len(self.down_slots)))
        sampler.register_probe(
            "degraded_tenants",
            lambda t: float(
                sum(
                    1
                    for x in self.tenants.values()
                    if x.state == "running"
                    and x.manager is not None
                    and x.manager.degraded
                )
            ),
        )
        sampler.register_probe(
            "spares_remaining",
            lambda t: float(self.pool.remaining or 0),
        )
        sampler.register_probe(
            "spare_queue", lambda t: float(len(self.pool.waiting))
        )
        sampler.register_probe(
            "spare_wait_s",
            lambda t: (
                max(t - w.requested_at for w in self.pool.waiting)
                if self.pool.waiting
                else 0.0
            ),
        )
        for tier, store_of in (
            ("host", lambda engine: engine.host),
            ("disk", lambda engine: engine.disk),
            ("remote", lambda engine: engine.remote),
        ):
            sampler.register_probe(
                f"{tier}_bytes", self._tier_bytes_probe(store_of)
            )
        sampler.attach(self.sim)

    def _tier_bytes_probe(self, store_of):
        def probe(t: float) -> float:
            total = 0
            for tenant in self.tenants.values():
                engine = tenant.engine
                if engine is not None:
                    total += store_of(engine).total_bytes
            return float(total)

        return probe

    def _tenant_probes(self, tenant: TenantRuntime) -> dict:
        """Per-tenant signals sampled while the tenant is live."""
        name = tenant.spec.name
        manager = tenant.manager
        engine = tenant.engine
        job = tenant.job
        return {
            "degraded": lambda t: 1.0 if manager.degraded else 0.0,
            "degraded_age_s": lambda t: (
                t - manager.degraded_since if manager.degraded else 0.0
            ),
            "k": lambda t: float(engine.config.k),
            "m": lambda t: float(engine.config.m),
            "share_remote": lambda t: (
                self.remote_arbiter.claims[name].fraction
                if name in self.remote_arbiter.claims
                else 0.0
            ),
            "share_trunk": lambda t: (
                self.trunk_arbiter.claims[name].fraction
                if name in self.trunk_arbiter.claims
                else 0.0
            ),
            "iteration": lambda t: float(job.iteration),
        }

    def _cycle(self, entry: dict) -> dict:
        """Keep one cycle entry, stamped with the sim time; returns it.

        The cycles are the episode's one log of control-plane facts: the
        report's counts and wait/recovery distributions are read off
        them.  A fact the telemetry sinks also record is passed in as
        ``obs.event(...)``'s record, so the entry and the event are one
        call and cannot drift.
        """
        entry["t"] = round(self.sim.now, 6)
        self.cycles.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, spec: TenantSpec) -> None:
        """Enqueue a tenant at the current simulated time."""
        if spec.name in self.submitted:
            raise SimulationError(f"duplicate tenant {spec.name!r}")
        self.submitted[spec.name] = self.sim.now
        self.queue.push(spec)
        self._try_admit()

    def _try_admit(self) -> None:
        while True:
            head = self.queue.head()
            if head is None or head.nodes > len(self.free_slots):
                return
            self._admit(self.queue.pop())

    def _admit(self, spec: TenantSpec) -> None:
        self.free_slots.sort()
        slots = self.free_slots[: spec.nodes]
        del self.free_slots[: spec.nodes]
        tenant = TenantRuntime(
            spec,
            self.pool,
            slots,
            submitted_at=self.submitted[spec.name],
            admitted_at=self.sim.now,
        )
        for slot in slots:
            self.slot_owner[slot] = spec.name
        self.tenants[spec.name] = tenant
        # Initial checkpoint at admission (the paper's ``initialize``):
        # a tenant is never live without at least one committed version.
        tenant.manager.step()
        tenant.ledger.drain()
        driver = ScheduledJobDriver(
            self.sim,
            tenant.manager,
            iteration_s=spec.iteration_s,
            max_iterations=spec.iterations,
            pre_save=lambda d, name=spec.name: self._pre_save(name),
            post_save=lambda d, token, report, name=spec.name: (
                self._post_save(name, token, report)
            ),
            on_done=lambda d, name=spec.name: self._on_tenant_done(name),
        )
        tenant.driver = driver
        driver.start(spec.iteration_s)
        if self.sampler is not None:
            self.sampler.watch_tenant(
                spec.name,
                tenant.manager,
                self._tenant_probes(tenant),
                t=self.sim.now,
            )
        self._cycle(
            {
                "kind": "admit",
                "tenant": spec.name,
                "slots": slots,
                "wait_s": round(self.sim.now - self.submitted[spec.name], 6),
            }
        )

    # ------------------------------------------------------------------
    # Save-path arbitration (ScheduledJobDriver hooks)
    # ------------------------------------------------------------------
    def _spans_racks(self, tenant: TenantRuntime) -> bool:
        racks = {self.fleet.rack_of(s) for s in tenant.slots.values()}
        return len(racks) > 1

    def _apply_time_model(self, tenant: TenantRuntime, tm: TimeModel) -> None:
        if tenant.job is None:
            # Already released: a refused/error recovery finalizes the
            # tenant before the failure handler's cleanup runs.
            return
        tenant.job.time_model = tm
        tenant.engine.network.time_model = tm

    def _acquire_shares(
        self, tenant: TenantRuntime, want_remote: bool
    ) -> tuple[list[BandwidthArbiter], TimeModel]:
        """Claim the shared bottlenecks a transfer phase will touch.

        Returns the held arbiters and the share-scaled time model.
        """
        spec = tenant.spec
        held: list[BandwidthArbiter] = []
        remote_share = 1.0
        inter_share = 1.0
        if want_remote:
            if spec.name in self.remote_arbiter.claims:
                self.remote_arbiter.release(spec.name)
            claim = self.remote_arbiter.acquire(
                spec.name, weight=spec.weight, priority=spec.priority
            )
            held.append(self.remote_arbiter)
            remote_share = claim.fraction
        if self._spans_racks(tenant):
            if spec.name in self.trunk_arbiter.claims:
                self.trunk_arbiter.release(spec.name)
            claim = self.trunk_arbiter.acquire(
                spec.name, weight=spec.weight, priority=spec.priority
            )
            held.append(self.trunk_arbiter)
            # The tenant's NIC-level bandwidth is capped by its granted
            # slice of the trunk.
            trunk_gbps = claim.fraction * CROSS_RACK_GBPS
            inter_share = min(
                1.0, trunk_gbps / self.base_time_model.inter_node_gbps
            )
        tm = self.base_time_model.with_shared_bottleneck(
            remote_share=remote_share, inter_node_share=inter_share
        )
        return held, tm

    def _release_shares(
        self, tenant: TenantRuntime, held: list[BandwidthArbiter]
    ) -> None:
        for arbiter in held:
            if tenant.spec.name in arbiter.claims:
                arbiter.release(tenant.spec.name)

    def _pre_save(self, name: str):
        tenant = self.tenants[name]
        held, tm = self._acquire_shares(
            tenant, want_remote=tenant.manager.backup_due()
        )
        self._apply_time_model(tenant, tm)
        return held or True  # a token the driver always hands back

    def _post_save(self, name: str, token, report) -> None:
        tenant = self.tenants[name]
        self._apply_time_model(tenant, self.base_time_model)
        tenant.ledger.drain()
        if token is True:
            return
        # Hold the claims for the save's full durability window, so
        # overlapping tenants contend; then release and rebalance.
        hold = report.checkpoint_time if report is not None else 0.0
        self.sim.schedule(hold, lambda: self._release_shares(tenant, token))

    # ------------------------------------------------------------------
    # Correlated failures
    # ------------------------------------------------------------------
    def _depot_delay(self) -> float:
        from repro.sim.spares import sample_replacement_delay

        return sample_replacement_delay(
            self.depot_rng, DEPOT_MEDIAN_DELAY_S, 0.4
        )

    def _on_domain_event(self, event) -> None:
        slots = [
            s
            for s in self.fleet.slots_of(event.kind, event.index)
            if s not in self.down_slots
        ]
        if not slots:
            return
        by_tenant: dict[str, set[int]] = {}
        for slot in slots:
            self.down_slots.add(slot)
            owner = self.slot_owner.get(slot)
            if owner is None:
                # A free slot's machine died: repair in place, then the
                # slot rejoins the free list.
                if slot in self.free_slots:
                    self.free_slots.remove(slot)
                self.sim.schedule(
                    self._depot_delay(), lambda s=slot: self._on_slot_repaired(s)
                )
            else:
                by_tenant.setdefault(owner, set()).add(slot)
                # The dead machine returns to fleet inventory after the
                # depot turnaround; its slot position is refilled by the
                # tenant's spare join.
                self.sim.schedule(
                    self._depot_delay(), lambda: self._on_depot_return()
                )
        self._cycle(
            obs.event(
                "domain_failure",
                domain=f"{event.kind}{event.index}",
                slots=len(slots),
                tenants=sorted(by_tenant),
            )
        )
        for name in sorted(by_tenant):
            tenant = self.tenants.get(name)
            if tenant is None or tenant.state != "running":
                continue
            ranks = tenant.ranks_of_slots(by_tenant[name])
            self._handle_tenant_failure(tenant, ranks, event)

    def _on_slot_repaired(self, slot: int) -> None:
        self.down_slots.discard(slot)
        if self.slot_owner.get(slot) is None:
            self.free_slots.append(slot)
            self._try_admit()

    def _on_depot_return(self) -> None:
        promoted = self.pool.restock(1, self.sim.now)
        self._schedule_polls(promoted)

    def _schedule_polls(self, requests) -> None:
        for request in requests:
            if request.tenant is None:
                continue
            self.sim.schedule_at(
                request.ready_at,
                lambda name=request.tenant: self._poll_tenant(name),
            )

    def _handle_tenant_failure(self, tenant, ranks: set[int], event) -> None:
        name = tenant.spec.name
        tenant.failure_events += 1
        driver = tenant.driver
        if not driver.done:
            driver.pause()
        controller = tenant.controller
        all_failed = set(controller.membership.dead) | set(ranks)
        expectation = predict(tenant.engine, all_failed)
        held, tm = self._acquire_shares(
            tenant, want_remote=expectation.kind == "backup"
        )
        self._apply_time_model(tenant, tm)
        pending_before = sum(
            1 for r in self.pool.pending if r.tenant == name
        )
        # The failure is recorded before the restore.  The judged outcome
        # goes into the cycle entry only: in the trace and the timeline,
        # the manager's ``recovery`` event already holds it.
        cycle = self._cycle(
            obs.event(
                "tenant_failure",
                tenant=name,
                cause=f"{event.kind}{event.index}",
                ranks=sorted(int(r) for r in ranks),
                expected=expectation.kind,
            )
        )
        try:
            # A restore older than the snapshot window has no reference
            # bytes left to compare; redundancy and lost work are audited
            # by the elastic controller's ledgers, not per recovery.
            recovery = recover(
                tenant.ledger,
                expectation,
                lambda: controller.on_failure(set(ranks), self.sim.now),
                skip=("committed", "redundancy", "lost"),
            )
        finally:
            self._apply_time_model(tenant, self.base_time_model)
            self._release_shares(tenant, held)
        self.violations.extend(f"{name}: {v}" for v in recovery.violations)
        report, outcome = recovery.report, recovery.outcome
        if report is None:
            if outcome == "refused":
                tenant.refused_events += 1
                detail = f"unrecoverable {event.kind} loss"
            else:
                outcome += f":{type(recovery.error).__name__}"
                detail = f"engine error: {recovery.error}"
            cycle["outcome"] = outcome
            self._finalize_tenant(tenant, "killed", detail)
            return
        cycle["outcome"] = outcome
        cycle["version"] = report.version
        cycle["recovery_s"] = round(report.recovery_time, 6)
        # Spares the controller just requested: poll when provisioned.
        new_pending = [
            r for r in self.pool.pending if r.tenant == name
        ][pending_before:]
        self._schedule_polls(new_pending)
        if controller.can_checkpoint:
            driver.resume(report.recovery_time)
        else:
            self._cycle({"kind": "blocked", "tenant": name})

    # ------------------------------------------------------------------
    # Spare arrivals
    # ------------------------------------------------------------------
    def _poll_tenant(self, name: str) -> None:
        tenant = self.tenants.get(name)
        if tenant is None or tenant.state != "running":
            return
        controller = tenant.controller
        joined = controller.poll_spares(self.sim.now)
        for rank in joined:
            slot = tenant.slots[rank]
            self.down_slots.discard(slot)
            self._cycle({"kind": "join", "tenant": name, "rank": int(rank)})
        if joined and controller.can_checkpoint and not tenant.driver.done:
            tenant.driver.resume()

    # ------------------------------------------------------------------
    # Tenant end-of-life
    # ------------------------------------------------------------------
    def _on_tenant_done(self, name: str) -> None:
        tenant = self.tenants[name]
        self._finalize_tenant(tenant, "completed", "")

    def _finalize_tenant(self, tenant, state: str, detail: str) -> None:
        name = tenant.spec.name
        tenant.state = state
        tenant.outcome_detail = detail
        if tenant.driver is not None:
            tenant.driver.pause()
        if self.sampler is not None:
            # Freeze the series before release() drops the manager.
            self.sampler.unwatch(name, self.sim.now)
        record = tenant.slo()
        record["degraded_at_exit"] = bool(
            tenant.manager is not None and tenant.manager.degraded
        )
        self.slo_records[name] = record
        returned = self.pool.cancel_tenant(name)
        if returned:
            promoted = self.pool.restock(0, self.sim.now)
            self._schedule_polls(promoted)
        for slot in tenant.release():
            del self.slot_owner[slot]
            if slot in self.down_slots:
                # The position is machine-less; a fresh machine is
                # racked after a depot turnaround.
                self.sim.schedule(
                    self._depot_delay(),
                    lambda s=slot: self._on_slot_repaired(s),
                )
            else:
                self.free_slots.append(slot)
        self._cycle(
            {"kind": state, "tenant": name, **({"detail": detail} if detail else {})}
        )
        self._try_admit()

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run to completion: drain events, breaking spare-starvation
        deadlocks by killing stalled tenants (their wait is already in
        the starvation ledger) until every submitted tenant finished.
        """
        self.sim.run()
        for _ in range(MAX_STALL_ROUNDS):
            stalled = [
                t
                for t in self.tenants.values()
                if t.state == "running"
            ]
            if not stalled and not len(self.queue):
                return
            for tenant in stalled:
                self._finalize_tenant(
                    tenant, "stalled", "spare starvation at trace end"
                )
            self._try_admit()
            self.sim.run()
        raise SimulationError(
            f"fleet failed to drain after {MAX_STALL_ROUNDS} stall rounds"
        )
