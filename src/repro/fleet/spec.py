"""Fleet topology and tenant shapes for the multi-tenant control plane.

A *fleet* is a pool of machine slots a scheduler leases to tenants.
Slots sit in a static physical hierarchy — rack -> ToR switch -> power
feed — that defines the correlated failure domains: one domain event
(PDU trip, switch death, feed brownout) takes down every slot in the
domain, across every tenant scheduled onto it.  The hierarchy is
positional: a spare machine racked into a failed slot inherits the
slot's domains, so domain membership never changes at replacement time.

A *tenant* is one training job's shape: cluster size, parallelism,
``(k, m)`` redundancy split, checkpoint cadence, tier policy, and its
arbitration standing (fair-share weight and priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import SimulationError

#: Domain classes, outermost last; order is the blast-radius order.
DOMAIN_KINDS = ("node", "rack", "switch", "power")


@dataclass(frozen=True)
class FleetSpec:
    """Machine slots grouped into rack / switch / power failure domains.

    Attributes:
        num_slots: machine slots in the fleet.
        slots_per_rack: slots sharing one rack (PDU domain).
        racks_per_switch: racks sharing one ToR/aggregation switch.
        switches_per_power: switches sharing one power feed.

    The hierarchy must tile exactly: ``num_slots`` divisible by
    ``slots_per_rack``, racks by ``racks_per_switch``, switches by
    ``switches_per_power``.
    """

    num_slots: int = 64
    slots_per_rack: int = 4
    racks_per_switch: int = 2
    switches_per_power: int = 2

    def __post_init__(self) -> None:
        for name, value in (
            ("num_slots", self.num_slots),
            ("slots_per_rack", self.slots_per_rack),
            ("racks_per_switch", self.racks_per_switch),
            ("switches_per_power", self.switches_per_power),
        ):
            if value < 1:
                raise SimulationError(f"{name} must be >= 1, got {value}")
        if self.num_slots % self.slots_per_rack:
            raise SimulationError(
                f"num_slots={self.num_slots} not divisible by "
                f"slots_per_rack={self.slots_per_rack}"
            )
        if self.num_racks % self.racks_per_switch:
            raise SimulationError(
                f"num_racks={self.num_racks} not divisible by "
                f"racks_per_switch={self.racks_per_switch}"
            )
        if self.num_switches % self.switches_per_power:
            raise SimulationError(
                f"num_switches={self.num_switches} not divisible by "
                f"switches_per_power={self.switches_per_power}"
            )

    # ------------------------------------------------------------------
    @property
    def num_racks(self) -> int:
        return self.num_slots // self.slots_per_rack

    @property
    def num_switches(self) -> int:
        return self.num_racks // self.racks_per_switch

    @property
    def num_power(self) -> int:
        return self.num_switches // self.switches_per_power

    def rack_of(self, slot: int) -> int:
        self._check_slot(slot)
        return slot // self.slots_per_rack

    def switch_of(self, slot: int) -> int:
        return self.rack_of(slot) // self.racks_per_switch

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise SimulationError(f"slot {slot} outside fleet of {self.num_slots}")

    def domain_counts(self) -> dict[str, int]:
        """Domain class -> number of domains (for failure-trace sampling)."""
        return {
            "node": self.num_slots,
            "rack": self.num_racks,
            "switch": self.num_switches,
            "power": self.num_power,
        }

    def slots_of(self, kind: str, index: int) -> list[int]:
        """Every slot a ``(kind, index)`` domain failure takes down.

        Raises:
            SimulationError: for an unknown kind or out-of-range index.
        """
        if kind == "node":
            self._check_slot(index)
            return [index]
        if kind == "rack":
            width = self.slots_per_rack
            count = self.num_racks
        elif kind == "switch":
            width = self.slots_per_rack * self.racks_per_switch
            count = self.num_switches
        elif kind == "power":
            width = (
                self.slots_per_rack
                * self.racks_per_switch
                * self.switches_per_power
            )
            count = self.num_power
        else:
            raise SimulationError(f"unknown domain kind {kind!r}")
        if not 0 <= index < count:
            raise SimulationError(f"{kind} index {index} outside {count}")
        return list(range(index * width, (index + 1) * width))


@dataclass(frozen=True)
class TenantSpec:
    """One training job's shape and arbitration standing.

    Attributes:
        name: unique tenant id (also the arbitration claim name).
        nodes / gpus_per_node: cluster the tenant leases.
        tensor_parallel / pipeline_parallel: parallelism layout.
        k / m: erasure-coding split (``k + m`` must equal ``nodes``).
        model / scale: model zoo entry and tensor downscale factor.
        seed: the tenant job's own rng seed.
        interval: iterations between checkpoints.
        iteration_s: simulated seconds per training iteration.
        iterations: tick budget — the tenant completes after this many
            *attempted* iterations (rollbacks shrink the surviving work;
            the gap is the ``iterations_lost`` SLO).
        weight: fair-share weight on shared bottlenecks.
        priority: arbitration priority level (0 = best effort).
        remote_backup_every: checkpoints between remote backups (0 = off).
        tier_memory_versions: memory-tier retention depth; 0 disables the
            tier policy entirely.
        redundancy_floor: minimum parity a degraded regroup may keep.
    """

    name: str
    nodes: ClassVar[int] = 4
    gpus_per_node: ClassVar[int] = 2
    tensor_parallel: ClassVar[int] = 2
    pipeline_parallel: ClassVar[int] = 4
    k: int = 2
    m: int = 2
    model: str = "gpt2-h1024-L16"
    scale: float = 2e-4
    seed: int = 0
    interval: int = 2
    iteration_s: float = 30.0
    iterations: int = 16
    weight: float = 1.0
    priority: int = 0
    remote_backup_every: int = 0
    tier_memory_versions: int = 0
    redundancy_floor: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.k + self.m != self.nodes:
            raise SimulationError(
                f"tenant {self.name!r}: k+m={self.k + self.m} must equal "
                f"nodes={self.nodes}"
            )
        if self.weight <= 0:
            raise SimulationError(
                f"tenant {self.name!r}: weight must be positive"
            )
        if self.priority < 0:
            raise SimulationError(
                f"tenant {self.name!r}: priority must be >= 0"
            )
        if self.iterations < 1 or self.interval < 1:
            raise SimulationError(
                f"tenant {self.name!r}: iterations and interval must be >= 1"
            )
