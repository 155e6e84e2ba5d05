"""Fleet topology and correlated failure domains.

:class:`~repro.fleet.spec.FleetSpec` maps machine slots into nested
rack/switch/power domains; :func:`~repro.sim.failures.domain_failure_trace`
samples which domain dies when.  Together they decide the blast radius
of every fleet failure, so both the static mapping and the sampled trace
are pinned here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.fleet.spec import DOMAIN_KINDS, FleetSpec, TenantSpec
from repro.sim.failures import DomainFailureEvent, domain_failure_trace


class TestFleetSpec:
    def test_default_topology_counts(self):
        fleet = FleetSpec()
        assert (fleet.num_slots, fleet.num_racks) == (64, 16)
        assert (fleet.num_switches, fleet.num_power) == (8, 4)
        assert fleet.domain_counts() == {
            "node": 64, "rack": 16, "switch": 8, "power": 4
        }

    def test_rejects_indivisible_topology(self):
        with pytest.raises(SimulationError):
            FleetSpec(num_slots=10, slots_per_rack=4)

    @given(slot=st.integers(min_value=0, max_value=63))
    def test_domains_nest(self, slot):
        """Every slot's rack lies inside its switch inside its power
        domain — the containment the blast-radius logic relies on."""
        fleet = FleetSpec()
        rack = fleet.rack_of(slot)
        switch = fleet.switch_of(slot)
        power = switch // fleet.switches_per_power
        assert rack // fleet.racks_per_switch == switch
        assert slot in fleet.slots_of("rack", rack)
        assert set(fleet.slots_of("rack", rack)) <= set(
            fleet.slots_of("switch", switch)
        )
        assert set(fleet.slots_of("switch", switch)) <= set(
            fleet.slots_of("power", power)
        )

    def test_slots_of_partitions_the_fleet(self):
        fleet = FleetSpec()
        for kind in DOMAIN_KINDS:
            count = fleet.domain_counts()[kind]
            seen = []
            for index in range(count):
                seen.extend(fleet.slots_of(kind, index))
            assert sorted(seen) == list(range(fleet.num_slots))

    def test_blast_radius_ordering(self):
        fleet = FleetSpec()
        node = len(fleet.slots_of("node", 0))
        rack = len(fleet.slots_of("rack", 0))
        switch = len(fleet.slots_of("switch", 0))
        power = len(fleet.slots_of("power", 0))
        assert node == 1 and node < rack < switch < power


class TestTenantSpec:
    def test_split_must_cover_nodes(self):
        with pytest.raises(SimulationError):
            TenantSpec(name="t", k=2, m=1)

    def test_rejects_bad_weight_and_priority(self):
        with pytest.raises(SimulationError):
            TenantSpec(name="t", weight=0.0)
        with pytest.raises(SimulationError):
            TenantSpec(name="t", priority=-1)


class TestDomainFailureTrace:
    COUNTS = {"node": 64, "rack": 16, "switch": 8, "power": 4}
    MTBF = {"node": 25.0, "rack": 250.0, "switch": 1500.0, "power": 8000.0}

    def test_trace_is_time_ordered_and_in_bounds(self):
        events = domain_failure_trace(
            self.COUNTS, self.MTBF, 8.0, np.random.default_rng(0)
        )
        assert events == sorted(events, key=lambda e: e.time)
        for event in events:
            assert 0.0 <= event.time <= 8.0
            assert event.kind in self.COUNTS
            assert 0 <= event.index < self.COUNTS[event.kind]

    def test_same_seed_same_trace(self):
        a = domain_failure_trace(
            self.COUNTS, self.MTBF, 8.0, np.random.default_rng(5)
        )
        b = domain_failure_trace(
            self.COUNTS, self.MTBF, 8.0, np.random.default_rng(5)
        )
        assert a == b

    def test_event_rate_tracks_the_merged_process(self):
        """Long-run event count ~ duration x sum(count/mtbf)."""
        rate = sum(self.COUNTS[k] / self.MTBF[k] for k in self.COUNTS)
        duration = 2000.0
        events = domain_failure_trace(
            self.COUNTS, self.MTBF, duration, np.random.default_rng(1)
        )
        expected = rate * duration
        assert expected * 0.85 < len(events) < expected * 1.15
        # Class shares follow the rate split: node failures dominate.
        kinds = [e.kind for e in events]
        assert kinds.count("node") > kinds.count("rack") > kinds.count(
            "switch"
        ) >= kinds.count("power")

    def test_absent_classes_produce_no_events(self):
        events = domain_failure_trace(
            {"node": 8}, {"node": 10.0, "rack": 100.0}, 50.0,
            np.random.default_rng(2),
        )
        assert all(e.kind == "node" for e in events)
        assert domain_failure_trace(
            {"node": 0}, {"node": 10.0}, 50.0, np.random.default_rng(2)
        ) == []

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError):
            domain_failure_trace(self.COUNTS, self.MTBF, 0.0, rng)
        with pytest.raises(SimulationError):
            domain_failure_trace({"node": -1}, {"node": 10.0}, 1.0, rng)
        with pytest.raises(SimulationError):
            domain_failure_trace({"node": 4}, {"node": 0.0}, 1.0, rng)

    def test_events_are_frozen_records(self):
        event = DomainFailureEvent(time=1.5, kind="rack", index=3)
        with pytest.raises(AttributeError):
            event.time = 2.0
