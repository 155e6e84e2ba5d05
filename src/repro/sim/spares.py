"""Spare-machine provisioning: replacement delays and pool exhaustion.

Production clusters replace a failed machine from a finite spare pool,
after a provisioning delay (reimage, rejoin fabric, warm caches).  The
elastic controller's degraded window is exactly the interval between a
failure and the moment the spare's chunks are repaired, so the delay
distribution and pool size drive ``time_to_full_redundancy``.

Delays are sampled log-normally — provisioning is a multiplicative chain
of steps (boot x image pull x health checks), the textbook log-normal
generator — with an optional exhaustion regime: when the pool is empty,
requests queue until a restock.

The pool can be *fleet-wide*: many tenants' controllers draw from one
inventory.  That sharing imposes two discipline rules this module
guarantees:

* the delay sample is drawn **lazily, on successful grant only** — a
  refused or queued request must not perturb the rng stream other
  tenants' grants draw from (the stream-stability test pins this);
* requests are tagged with their tenant so :meth:`SparePool.ready_before`
  can hand each controller only its own machines, and queued requests
  are promoted strictly FIFO at restock time with the wait recorded in
  the starvation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError


def sample_replacement_delay(
    rng: np.random.Generator,
    median_s: float = 600.0,
    sigma: float = 0.5,
) -> float:
    """One provisioning delay in seconds, log-normal around ``median_s``.

    Raises:
        SimulationError: for a non-positive median or negative sigma.
    """
    if median_s <= 0:
        raise SimulationError(f"median_s must be positive, got {median_s}")
    if sigma < 0:
        raise SimulationError(f"sigma must be >= 0, got {sigma}")
    return float(np.exp(np.log(median_s) + sigma * rng.standard_normal()))


@dataclass
class SpareRequest:
    """A pending replacement for ``rank``, arriving at ``ready_at``.

    ``tenant`` identifies the requesting job on a shared fleet pool
    (None for single-job pools); ``requested_at`` keeps the *original*
    request time even when the grant was delayed by an exhausted pool,
    so waits are measured from first ask.
    """

    rank: int
    requested_at: float
    ready_at: float
    tenant: str | None = None


@dataclass
class SpareWaiter:
    """A request parked by an exhausted pool, awaiting a restock."""

    rank: int
    requested_at: float
    tenant: str | None = None


@dataclass
class SparePool:
    """A finite pool of replacement machines with provisioning delay.

    Args:
        size: spares available (``None`` = unlimited).
        median_delay_s: median provisioning delay.
        sigma: log-normal shape of the delay.
        rng: when set, the pool owns its delay stream and ignores any
            generator passed to :meth:`request` — required for a shared
            fleet pool, where per-tenant generators would make the delay
            sequence depend on grant interleaving.
        queue_when_exhausted: park requests hitting an empty pool on a
            FIFO waitlist instead of refusing; :meth:`restock` promotes
            waiters (recording the starvation wait) as inventory returns.

    The pool is driven in simulated time: :meth:`request` reserves a
    spare (or refuses/queues when exhausted), :meth:`ready_before` yields
    the requests whose provisioning completed by a given time.

    Delay samples are drawn lazily on successful grant only: a refused or
    queued request leaves the rng stream untouched.
    """

    size: int | None = None
    median_delay_s: float = 600.0
    sigma: float = 0.5
    pending: list[SpareRequest] = field(default_factory=list)
    dispensed: int = 0
    rng: np.random.Generator | None = None
    queue_when_exhausted: bool = False
    waiting: list[SpareWaiter] = field(default_factory=list)
    #: One entry per queued-then-granted request: ``{"tenant", "rank",
    #: "requested_at", "granted_at", "queued_s"}`` — the fleet's
    #: starvation accounting.
    starvation_ledger: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size is not None and self.size < 0:
            raise SimulationError(f"pool size must be >= 0, got {self.size}")

    @property
    def remaining(self) -> int | None:
        """Spares left (None = unlimited)."""
        if self.size is None:
            return None
        return self.size - self.dispensed

    @property
    def exhausted(self) -> bool:
        return self.size is not None and self.dispensed >= self.size

    def _grant(
        self, rank: int, requested_at: float, granted_at: float,
        rng: np.random.Generator, tenant: str | None,
    ) -> SpareRequest:
        delay = sample_replacement_delay(rng, self.median_delay_s, self.sigma)
        req = SpareRequest(
            rank=rank,
            requested_at=requested_at,
            ready_at=granted_at + delay,
            tenant=tenant,
        )
        self.dispensed += 1
        self.pending.append(req)
        return req

    def request(
        self,
        rank: int,
        sim_time: float,
        rng: np.random.Generator | None = None,
        tenant: str | None = None,
    ) -> SpareRequest | None:
        """Reserve a spare for ``rank``; None when the pool is exhausted.

        An exhausted pool either refuses (default) or — with
        ``queue_when_exhausted`` — parks the request until a restock.
        Both paths return None and, crucially, draw nothing from the rng.

        Raises:
            SimulationError: when no generator is available (neither a
                pool-owned one nor a per-call one).
        """
        source = self.rng if self.rng is not None else rng
        if self.exhausted:
            if self.queue_when_exhausted:
                self.waiting.append(
                    SpareWaiter(rank=rank, requested_at=sim_time, tenant=tenant)
                )
            return None
        if source is None:
            raise SimulationError(
                "SparePool.request needs an rng (pool-owned or per-call)"
            )
        return self._grant(rank, sim_time, sim_time, source, tenant)

    def ready_before(
        self, sim_time: float, tenant: str | None = None
    ) -> list[SpareRequest]:
        """Pop every pending request whose spare is provisioned by now.

        With ``tenant`` given, only that tenant's requests are popped —
        a shared pool hands each controller its own machines only.
        """
        def mine(r: SpareRequest) -> bool:
            return tenant is None or r.tenant == tenant

        ready = [r for r in self.pending if r.ready_at <= sim_time and mine(r)]
        self.pending = [
            r for r in self.pending if r.ready_at > sim_time or not mine(r)
        ]
        return sorted(ready, key=lambda r: (r.ready_at, r.rank))

    def requeue(self, request: SpareRequest) -> None:
        """Return a popped-but-unconsumed request to the pending queue.

        Used when the consumer crashed between popping a batch with
        :meth:`ready_before` and actually admitting every machine — the
        provisioned spares are not lost, they are still racked and ready.
        """
        self.pending.append(request)

    def restock(
        self, count: int, sim_time: float | None = None
    ) -> list[SpareRequest]:
        """Add spares back to a finite pool (no-op when unlimited).

        When ``sim_time`` is given, parked waiters are promoted FIFO
        while inventory lasts: each gets a provisioning delay sampled
        *now* (the machine only starts provisioning once it exists) and
        its queue wait recorded in :attr:`starvation_ledger`.  Promotion
        needs a pool-owned rng.

        Returns:
            The promoted requests (empty without waiters or ``sim_time``).

        Raises:
            SimulationError: for a negative count, or waiters to promote
                without a pool-owned rng.
        """
        if count < 0:
            raise SimulationError(f"restock count must be >= 0, got {count}")
        if self.size is not None:
            self.size += count
        promoted: list[SpareRequest] = []
        if sim_time is None:
            return promoted
        while self.waiting and not self.exhausted:
            if self.rng is None:
                raise SimulationError(
                    "promoting queued spare requests needs a pool-owned rng"
                )
            waiter = self.waiting.pop(0)
            req = self._grant(
                waiter.rank, waiter.requested_at, sim_time, self.rng,
                waiter.tenant,
            )
            self.starvation_ledger.append(
                {
                    "tenant": waiter.tenant,
                    "rank": waiter.rank,
                    "requested_at": waiter.requested_at,
                    "granted_at": float(sim_time),
                    "queued_s": float(sim_time) - waiter.requested_at,
                }
            )
            promoted.append(req)
        return promoted

    def cancel_tenant(self, tenant: str) -> int:
        """Drop a finished tenant's parked waiters and restock its
        pending (granted but unconsumed) machines; returns the count
        returned to inventory."""
        self.waiting = [w for w in self.waiting if w.tenant != tenant]
        mine = [r for r in self.pending if r.tenant == tenant]
        self.pending = [r for r in self.pending if r.tenant != tenant]
        for _ in mine:
            self.dispensed -= 1
        return len(mine)

    def starvation_summary(self) -> dict[str, dict]:
        """Per-tenant queue-wait aggregates from the starvation ledger."""
        summary: dict[str, dict] = {}
        for entry in self.starvation_ledger:
            tenant = entry["tenant"] or "-"
            row = summary.setdefault(
                tenant, {"queued_grants": 0, "total_queued_s": 0.0,
                         "max_queued_s": 0.0}
            )
            row["queued_grants"] += 1
            row["total_queued_s"] += entry["queued_s"]
            row["max_queued_s"] = max(row["max_queued_s"], entry["queued_s"])
        return {k: summary[k] for k in sorted(summary)}
