"""Cluster membership: which ranks are alive.

A *rank* is a cluster slot (0..num_nodes-1) — the address placement,
host stores and the network use.  A *node id* is the machine identity
occupying it (see :class:`~repro.checkpoint.job.TrainingJob.node_ids`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ShardingError


@dataclass
class MembershipView:
    """Which ranks are currently alive.

    Attributes:
        num_nodes: cluster size (ranks 0..num_nodes-1).
        dead: ranks whose machine has failed and not been replaced.
    """

    num_nodes: int
    dead: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ShardingError(f"num_nodes must be >= 1, got {self.num_nodes}")

    @property
    def alive(self) -> list[int]:
        """Alive ranks, ascending — the engine's ``active_nodes`` shape."""
        return [r for r in range(self.num_nodes) if r not in self.dead]

    @property
    def at_full_strength(self) -> bool:
        return not self.dead

    def fail(self, ranks: set[int]) -> set[int]:
        """Mark ranks dead; returns the *newly* dead subset.

        Raises:
            ShardingError: for an out-of-range rank.
        """
        for rank in ranks:
            if not 0 <= rank < self.num_nodes:
                raise ShardingError(f"rank {rank} out of range")
        fresh = set(ranks) - self.dead
        self.dead |= set(ranks)
        return fresh

    def join(self, rank: int) -> None:
        """A replacement machine fills ``rank`` again.

        Raises:
            ShardingError: if the rank is not currently dead.
        """
        if rank not in self.dead:
            raise ShardingError(f"rank {rank} is not dead; cannot join")
        self.dead.discard(rank)
