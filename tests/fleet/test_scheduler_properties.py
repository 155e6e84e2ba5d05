"""Hypothesis properties for the fleet's shared-resource primitives.

The scheduler's correctness rests on three small mechanisms — the
:class:`~repro.sim.network.BandwidthArbiter`, the
:class:`~repro.fleet.scheduler.AdmissionQueue`, and the shared
:class:`~repro.sim.spares.SparePool` — and each carries invariants the
campaign silently depends on.  This suite pins them:

* the arbiter never grants rates summing above capacity, is
  work-conserving, and fair-share fractions are weight-proportional;
* in priority mode lower levels keep a positive floor (no outright
  starvation) while higher levels dominate;
* the admission queue drains strict priority-then-FIFO, so at equal
  priority a tenant's wait is bounded by the queue ahead of it;
* the spare pool promotes parked waiters strictly FIFO at restock.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.fleet.scheduler import AdmissionQueue
from repro.fleet.spec import TenantSpec
from repro.sim.network import BandwidthArbiter
from repro.sim.spares import SparePool

weights = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)
priorities = st.integers(min_value=0, max_value=3)
claim_sets = st.lists(
    st.tuples(weights, priorities), min_size=1, max_size=12
)


def _populate(arbiter: BandwidthArbiter, claims) -> list[str]:
    names = []
    for i, (w, p) in enumerate(claims):
        name = f"t{i}"
        arbiter.acquire(name, weight=w, priority=p)
        names.append(name)
    return names


class TestBandwidthArbiter:
    @given(capacity=st.floats(min_value=1.0, max_value=1e4), claims=claim_sets)
    def test_never_over_commits(self, capacity, claims):
        arbiter = BandwidthArbiter(capacity, mode="priority")
        _populate(arbiter, claims)
        assert arbiter.allocated <= capacity * (1 + 1e-9)

    @given(capacity=st.floats(min_value=1.0, max_value=1e4), claims=claim_sets)
    def test_work_conserving_while_active(self, capacity, claims):
        arbiter = BandwidthArbiter(capacity, mode="fair")
        _populate(arbiter, claims)
        assert arbiter.allocated == pytest.approx(capacity, rel=1e-9)

    @given(claims=claim_sets)
    def test_fair_fractions_sum_to_one_and_track_weights(self, claims):
        arbiter = BandwidthArbiter(100.0, mode="fair")
        names = _populate(arbiter, claims)
        fractions = [arbiter.claims[n].fraction for n in names]
        assert sum(fractions) == pytest.approx(1.0, rel=1e-9)
        total_w = sum(w for w, _ in claims)
        for (w, _), frac in zip(claims, fractions):
            assert frac == pytest.approx(w / total_w, rel=1e-9)

    @given(claims=claim_sets)
    def test_priority_floor_bounds_starvation(self, claims):
        """Even the lowest-priority claimant keeps a positive share.

        The floor is exactly its effective-weight fraction, so at equal
        priority everyone gets at least ``w_i / sum(w)`` — the bounded
        wait the fleet relies on.
        """
        arbiter = BandwidthArbiter(100.0, mode="priority")
        names = _populate(arbiter, claims)
        boost = BandwidthArbiter.PRIORITY_BOOST
        total_eff = sum(w * boost**p for w, p in claims)
        for (w, p), name in zip(claims, names):
            frac = arbiter.claims[name].fraction
            assert frac > 0.0
            assert frac == pytest.approx(w * boost**p / total_eff, rel=1e-9)

    @given(w=weights)
    def test_priority_dominates_by_boost_factor(self, w):
        arbiter = BandwidthArbiter(10.0, mode="priority")
        arbiter.acquire("low", weight=w, priority=0)
        arbiter.acquire("high", weight=w, priority=1)
        ratio = arbiter.claims["high"].fraction / arbiter.claims["low"].fraction
        assert ratio == pytest.approx(BandwidthArbiter.PRIORITY_BOOST, rel=1e-9)

    @given(
        claims=claim_sets,
        data=st.data(),
    )
    def test_release_rebalances_to_capacity(self, claims, data):
        arbiter = BandwidthArbiter(64.0, mode="fair")
        names = _populate(arbiter, claims)
        drop = data.draw(
            st.lists(st.sampled_from(names), unique=True, max_size=len(names))
        )
        for name in drop:
            arbiter.release(name)
        if len(drop) == len(names):
            assert arbiter.allocated == 0.0
        else:
            assert arbiter.allocated == pytest.approx(64.0, rel=1e-9)

    def test_rejects_bad_claims(self):
        arbiter = BandwidthArbiter(10.0)
        arbiter.acquire("a")
        with pytest.raises(SimulationError):
            arbiter.acquire("a")
        with pytest.raises(SimulationError):
            arbiter.acquire("b", weight=0.0)
        with pytest.raises(SimulationError):
            arbiter.acquire("c", priority=-1)
        with pytest.raises(SimulationError):
            arbiter.release("ghost")


def _spec(name: str, priority: int) -> TenantSpec:
    return TenantSpec(name=name, priority=priority)


class TestAdmissionQueue:
    @given(prios=st.lists(priorities, min_size=1, max_size=20))
    def test_drains_priority_then_fifo(self, prios):
        queue = AdmissionQueue()
        for i, p in enumerate(prios):
            queue.push(_spec(f"job-{i:03d}", p))
        drained = []
        while len(queue):
            drained.append(queue.pop())
        # Expected: stable sort by descending priority — FIFO inside a
        # level, higher levels first.
        expected = sorted(
            (spec for spec in (
                _spec(f"job-{i:03d}", p) for i, p in enumerate(prios)
            )),
            key=lambda s: -s.priority,
        )
        assert [s.name for s in drained] == [s.name for s in expected]

    @given(prios=st.lists(st.just(0), min_size=1, max_size=20))
    def test_equal_priority_wait_is_bounded_by_queue_position(self, prios):
        """At equal priority the queue is strict FIFO: a tenant is never
        overtaken, so its wait is bounded by the tenants ahead of it."""
        queue = AdmissionQueue()
        for i, p in enumerate(prios):
            queue.push(_spec(f"job-{i:03d}", p))
        drained = [queue.pop().name for _ in range(len(prios))]
        assert drained == sorted(drained)

    def test_head_peeks_without_popping(self):
        queue = AdmissionQueue()
        assert queue.head() is None
        queue.push(_spec("a", 0))
        queue.push(_spec("b", 1))
        assert queue.head().name == "b"
        assert len(queue) == 2


class TestSparePoolSharing:
    @given(
        ranks=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=10
        )
    )
    def test_waiters_promote_fifo(self, ranks):
        pool = SparePool(
            size=0,
            median_delay_s=60.0,
            sigma=0.0,
            rng=np.random.default_rng(7),
            queue_when_exhausted=True,
        )
        for i, rank in enumerate(ranks):
            assert pool.request(rank, sim_time=float(i), tenant=f"t{i}") is None
        promoted = pool.restock(len(ranks), sim_time=100.0)
        assert [r.rank for r in promoted] == ranks
        assert [r.tenant for r in promoted] == [f"t{i}" for i in range(len(ranks))]
        # Starvation ledger records every promotion with its queue wait.
        assert [e["queued_s"] for e in pool.starvation_ledger] == [
            100.0 - float(i) for i in range(len(ranks))
        ]

    @given(count=st.integers(min_value=1, max_value=5))
    def test_partial_restock_promotes_prefix_only(self, count):
        pool = SparePool(
            size=0,
            sigma=0.0,
            rng=np.random.default_rng(3),
            queue_when_exhausted=True,
        )
        for i in range(6):
            pool.request(i, sim_time=0.0, tenant="t")
        promoted = pool.restock(count, sim_time=10.0)
        assert [r.rank for r in promoted] == list(range(count))
        assert [w.rank for w in pool.waiting] == list(range(count, 6))
        assert pool.exhausted

    def test_cancel_tenant_returns_inventory(self):
        pool = SparePool(
            size=2,
            sigma=0.0,
            rng=np.random.default_rng(3),
            queue_when_exhausted=True,
        )
        granted = pool.request(0, 0.0, tenant="a")
        assert granted is not None
        pool.request(1, 0.0, tenant="a")
        assert pool.request(2, 0.0, tenant="b") is None  # queued
        freed = pool.cancel_tenant("a")
        assert freed == 2
        assert pool.waiting and pool.waiting[0].tenant == "b"
        promoted = pool.restock(0, sim_time=5.0)
        assert [r.tenant for r in promoted] == ["b"]
