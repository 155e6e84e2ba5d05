"""Unit and property tests for the sim-time telemetry sampler.

The headline contract is the PR-3 discipline extended to sampling: a
samples-on run perturbs *nothing* a report serialises (the simulator's
``processed``/``now``, every rng stream), and the per-tenant degraded
integral reconstructs the manager's ledger exactly — pinned here with a
Hypothesis property over arbitrary transition traces.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs.timeseries import (
    SeriesBuffer,
    TenantSeries,
    TimeSeriesSampler,
    active,
    crosscheck_timeline,
    use_sampler,
)
from repro.sim.events import Simulator


# ----------------------------------------------------------------------
# SeriesBuffer
# ----------------------------------------------------------------------
def test_buffer_appends_and_rotates_with_drop_accounting():
    buf = SeriesBuffer(("a", "b"), capacity=3)
    for i in range(5):
        buf.append(float(i), {"a": float(i), "b": float(-i)})
    assert len(buf) == 3
    assert buf.dropped == 2
    assert buf.times == [2.0, 3.0, 4.0]
    assert buf.column("a") == [2.0, 3.0, 4.0]
    assert buf.last("b") == -4.0
    payload = buf.to_dict()
    assert payload["dropped"] == 2
    assert payload["t"] == [2.0, 3.0, 4.0]


def test_buffer_window_bisects_first_retained_index():
    buf = SeriesBuffer(("x",), capacity=16)
    for t in (0.0, 10.0, 20.0, 30.0):
        buf.append(t, {"x": t})
    assert buf.window(-1.0) == 0
    assert buf.window(10.0) == 1
    assert buf.window(10.5) == 2
    assert buf.window(99.0) == 4


def test_buffer_missing_column_defaults_to_zero():
    buf = SeriesBuffer(("x", "y"), capacity=4)
    buf.append(0.0, {"x": 1.0})
    assert buf.last("y") == 0.0


def test_buffer_rejects_tiny_capacity():
    with pytest.raises(SimulationError):
        SeriesBuffer(("x",), capacity=1)


# ----------------------------------------------------------------------
# TenantSeries: piecewise-constant integration
# ----------------------------------------------------------------------
def _flag_series(state):
    return TenantSeries(
        "t", {"degraded": lambda _t: 1.0 if state.degraded else 0.0}
    )


def test_tenant_series_integrates_closed_windows_exactly():
    state = SimpleNamespace(degraded=False)
    series = _flag_series(state)
    series.observe(0.0)
    state.degraded = True
    series.observe(10.0)  # window opens at 10
    series.observe(14.0)  # still open
    state.degraded = False
    series.observe(25.0)  # closes: 15 degraded seconds
    assert series.closed_integral_s == pytest.approx(15.0)
    assert series.open_tail_s == 0.0


def test_tenant_series_open_tail_excluded_from_closed_integral():
    state = SimpleNamespace(degraded=False)
    series = _flag_series(state)
    series.observe(0.0)
    state.degraded = True
    series.observe(100.0)
    series.observe(130.0)  # open window has accrued 30 s
    assert series.open_tail_s == pytest.approx(30.0)
    assert series.closed_integral_s == pytest.approx(0.0)
    payload = series.to_dict()
    assert payload["degraded_open_tail_s"] == pytest.approx(30.0)
    assert payload["degraded_integral_closed_s"] == 0.0


def test_tenant_series_close_freezes_the_series():
    state = SimpleNamespace(degraded=True)
    series = _flag_series(state)
    series.observe(0.0)
    series.close(5.0)
    assert series.closed_at == 5.0
    before = len(series.buffer)
    series.close(9.0)  # idempotent
    assert series.closed_at == 5.0 and len(series.buffer) == before


def test_ring_rotation_never_loses_integral_accounting():
    state = SimpleNamespace(degraded=True)
    series = TenantSeries(
        "t",
        {"degraded": lambda _t: 1.0 if state.degraded else 0.0},
        capacity=4,
    )
    for i in range(100):
        series.observe(float(i))
    state.degraded = False
    series.observe(100.0)
    assert len(series.buffer) == 4  # plot resolution bounded...
    assert series.closed_integral_s == pytest.approx(100.0)  # ...sums exact


# ----------------------------------------------------------------------
# TimeSeriesSampler
# ----------------------------------------------------------------------
def test_register_probe_after_first_sample_raises():
    sampler = TimeSeriesSampler(period_s=10.0)
    sampler.register_probe("x", lambda t: 1.0)
    sampler.sample(0.0, "baseline")
    with pytest.raises(SimulationError):
        sampler.register_probe("y", lambda t: 2.0)


def test_duplicate_tenant_watch_raises():
    sampler = TimeSeriesSampler(period_s=10.0)
    stub = SimpleNamespace()
    sampler.watch_tenant("a", stub, {"v": lambda t: 0.0})
    with pytest.raises(SimulationError):
        sampler.watch_tenant("a", stub, {"v": lambda t: 0.0})


def test_manual_advance_backfills_every_grid_point():
    ticks = []
    sampler = TimeSeriesSampler(period_s=10.0)
    sampler.register_probe("x", lambda t: float(len(ticks)))
    sampler.sample(0.0, "baseline")
    sampler.advance(35.0)
    # Grid points 10, 20, 30 crossed in one advance; 35 is not sampled.
    assert sampler.fleet.times == [0.0, 10.0, 20.0, 30.0]
    sampler.advance(40.0)
    assert sampler.fleet.times[-1] == 40.0


def test_record_transition_lands_eager_sample_and_transition_record():
    sampler = TimeSeriesSampler(period_s=1000.0)
    state = SimpleNamespace(degraded=False)
    sampler.watch_tenant(
        "job",
        state,
        {"degraded": lambda _t: 1.0 if state.degraded else 0.0},
        t=0.0,
    )
    sampler.sample(0.0, "baseline")
    state.degraded = True
    sampler.record_transition(state, 123.456, True, "failure")
    series = sampler.tenants["job"]
    assert 123.456 in series.buffer.times  # off-grid, exact
    assert series.transitions == [
        {"t": 123.456, "kind": "degraded", "cause": "failure"}
    ]


def test_events_are_capacity_capped(monkeypatch):
    monkeypatch.setattr(TimeSeriesSampler, "capacity", 4)
    sampler = TimeSeriesSampler(period_s=10.0)
    for i in range(6):
        sampler.note_event(float(i), "e")
    assert len(sampler.events) == 4
    assert sampler.events_dropped == 2
    assert sampler.timeline_dict()["events_dropped"] == 2


def test_use_sampler_installs_and_restores_active():
    assert active() is None
    sampler = TimeSeriesSampler()
    with use_sampler(sampler):
        assert active() is sampler
    assert active() is None


# ----------------------------------------------------------------------
# Simulator attachment: observation, not participation
# ----------------------------------------------------------------------
def _run_sim(attach: bool):
    sim = Simulator()
    fired = []
    for delay in (5.0, 17.0, 42.0):
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sampler = None
    if attach:
        sampler = TimeSeriesSampler(period_s=10.0)
        sampler.register_probe("fired", lambda t: float(len(fired)))
        sampler.attach(sim)
    sim.run()
    return sim, fired, sampler


def test_attached_sampler_does_not_perturb_the_simulator():
    plain_sim, plain_fired, _ = _run_sim(attach=False)
    sampled_sim, sampled_fired, sampler = _run_sim(attach=True)
    assert sampled_sim.now == plain_sim.now
    assert sampled_sim.processed == plain_sim.processed
    assert sampled_fired == plain_fired
    # ... while the sampler saw the grid points the clock crossed.
    assert sampler.fleet.times == [0.0, 10.0, 20.0, 30.0, 40.0]


def test_attach_refuses_an_occupied_observer_slot():
    sim = Simulator()
    sim.on_advance = lambda old, new: None
    with pytest.raises(SimulationError):
        TimeSeriesSampler().attach(sim)


def test_detach_clears_the_observer():
    sim = Simulator()
    sampler = TimeSeriesSampler()
    sampler.attach(sim)
    sampler.detach()
    assert sim.on_advance is None


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------
def test_crosscheck_flags_a_mismatched_ledger():
    sampler = TimeSeriesSampler(period_s=100.0)
    state = SimpleNamespace(degraded=False)
    sampler.watch_tenant(
        "job",
        state,
        {"degraded": lambda _t: 1.0 if state.degraded else 0.0},
        t=0.0,
    )
    state.degraded = True
    sampler.record_transition(state, 10.0, True)
    state.degraded = False
    sampler.record_transition(state, 30.0, False)
    sampler.finalize(40.0)
    timeline = sampler.timeline_dict()
    ok = crosscheck_timeline(
        timeline, [{"name": "job", "degraded_seconds": 20.0}]
    )
    assert ok == []
    bad = crosscheck_timeline(
        timeline, [{"name": "job", "degraded_seconds": 21.0}]
    )
    assert len(bad) == 1 and "job" in bad[0]
    # Tenants absent from the timeline are skipped, not flagged.
    assert crosscheck_timeline(
        timeline, [{"name": "ghost", "degraded_seconds": 5.0}]
    ) == []


@settings(deadline=None, max_examples=60)
@given(
    gaps=st.lists(
        st.floats(min_value=1e-3, max_value=2000.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    period=st.floats(min_value=50.0, max_value=500.0, allow_nan=False),
)
def test_timeline_integral_matches_ledger_for_arbitrary_traces(gaps, period):
    """Property: for ANY alternating degraded/redundant transition trace
    (arbitrary off-grid times, arbitrary sampling period), the timeline's
    closed-window integral reconciles with the independently-booked
    ledger at 1e-9 — the same check ``repro analyze`` runs on reports."""
    sampler = TimeSeriesSampler(period_s=period)
    state = SimpleNamespace(degraded=False)
    sampler.watch_tenant(
        "job",
        state,
        {"degraded": lambda _t: 1.0 if state.degraded else 0.0},
        t=0.0,
    )
    sampler.sample(0.0, "baseline")
    t = 0.0
    ledger = 0.0
    opened_at = None
    for gap in gaps:
        t += gap
        sampler.advance(t)
        state.degraded = not state.degraded
        if state.degraded:
            opened_at = t
        else:
            ledger += t - opened_at
            opened_at = None
        sampler.record_transition(state, t, state.degraded)
    sampler.finalize(t + 1.0)
    problems = crosscheck_timeline(
        sampler.timeline_dict(),
        [{"name": "job", "degraded_seconds": ledger}],
    )
    assert problems == [], problems
