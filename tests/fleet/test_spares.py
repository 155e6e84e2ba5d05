"""RNG stream discipline for the shared fleet spare pool.

On a fleet-wide pool many tenants' grants draw delays from one
generator, so the sequence of samples must depend only on the sequence
of *successful grants* — never on refusals, queued requests, or which
tenant happened to ask.  These tests pin that contract bit-for-bit via
``rng.bit_generator.state``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.spares import SparePool, sample_replacement_delay


def _state(rng: np.random.Generator):
    return rng.bit_generator.state


def test_refused_request_leaves_stream_untouched():
    rng = np.random.default_rng(42)
    pool = SparePool(size=0, rng=rng)
    before = _state(rng)
    assert pool.request(3, sim_time=1.0) is None
    assert _state(rng) == before
    assert pool.pending == [] and pool.remaining == 0


def test_queued_request_leaves_stream_untouched():
    rng = np.random.default_rng(42)
    pool = SparePool(size=0, rng=rng, queue_when_exhausted=True)
    before = _state(rng)
    assert pool.request(3, sim_time=1.0, tenant="t") is None
    assert _state(rng) == before
    assert len(pool.waiting) == 1


def test_delay_sampled_lazily_on_grant_only():
    """Grant delays replay exactly from a fresh same-seed generator:
    one ``sample_replacement_delay`` draw per successful grant, nothing
    for the interleaved refusals."""
    pool = SparePool(
        size=2, median_delay_s=120.0, sigma=0.4, rng=np.random.default_rng(9)
    )
    granted = []
    for rank in range(5):  # ranks 2.. are refused (pool size 2)
        req = pool.request(rank, sim_time=10.0)
        if req is not None:
            granted.append(req)
    assert len(granted) == 2 and pool.pending == granted
    assert pool.remaining == 0

    replay = np.random.default_rng(9)
    expected = [
        10.0 + sample_replacement_delay(replay, 120.0, 0.4) for _ in range(2)
    ]
    assert [r.ready_at for r in granted] == pytest.approx(expected)


def test_promotion_draws_resume_the_same_stream():
    """Waiter promotion at restock continues the pool stream exactly
    where the eager grants left it — queue time does not fork it."""
    pool = SparePool(
        size=1,
        median_delay_s=60.0,
        sigma=0.3,
        rng=np.random.default_rng(5),
        queue_when_exhausted=True,
    )
    eager = pool.request(0, sim_time=0.0, tenant="a")
    assert pool.request(1, sim_time=2.0, tenant="b") is None
    promoted = pool.restock(1, sim_time=50.0)

    replay = np.random.default_rng(5)
    d0 = sample_replacement_delay(replay, 60.0, 0.3)
    d1 = sample_replacement_delay(replay, 60.0, 0.3)
    assert eager.ready_at == pytest.approx(0.0 + d0)
    assert promoted[0].ready_at == pytest.approx(50.0 + d1)
    assert promoted[0].requested_at == 2.0  # wait measured from first ask


def test_pool_owned_rng_shields_per_call_generators():
    """With a pool-owned stream, tenant-supplied generators are ignored
    and left untouched — grant delays cannot depend on which tenant's
    controller happened to call."""
    pool = SparePool(size=2, sigma=0.2, rng=np.random.default_rng(1))
    tenant_rng = np.random.default_rng(777)
    before = _state(tenant_rng)
    pool.request(0, sim_time=0.0, rng=tenant_rng)
    assert _state(tenant_rng) == before


def test_request_without_any_rng_raises():
    pool = SparePool(size=2)
    with pytest.raises(SimulationError):
        pool.request(0, sim_time=0.0)


def test_promotion_without_pool_rng_raises():
    pool = SparePool(size=0, queue_when_exhausted=True)
    pool.request(0, sim_time=0.0)
    with pytest.raises(SimulationError):
        pool.restock(1, sim_time=1.0)


def test_starvation_summary_groups_by_tenant():
    pool = SparePool(
        size=0, sigma=0.0, rng=np.random.default_rng(2),
        queue_when_exhausted=True,
    )
    pool.request(0, sim_time=0.0, tenant="a")
    pool.request(1, sim_time=4.0, tenant="b")
    pool.request(2, sim_time=6.0, tenant="a")
    pool.restock(3, sim_time=10.0)
    summary = pool.starvation_summary()
    assert summary["a"] == {
        "queued_grants": 2,
        "total_queued_s": pytest.approx(14.0),
        "max_queued_s": pytest.approx(10.0),
    }
    assert summary["b"]["queued_grants"] == 1
