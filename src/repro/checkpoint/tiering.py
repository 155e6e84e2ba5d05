"""Tier placement policy: which checkpoint version lives in which tier.

The tier stack (see :mod:`repro.checkpoint.storage`) trades recovery speed
for host-memory footprint: EC-coded chunks in host memory restore fastest,
the local-disk tier survives full memory loss (a cluster-wide power cycle),
and remote backups survive everything.  The policy decides, after every
committed checkpoint, which versions are *demoted* from memory to disk and
which disk versions are *evicted* (GC).

The policy keeps the ``memory_versions`` newest versions in memory and
the ``disk_versions`` newest demoted ones on disk; remote backups, when
enabled, cover deeper history.

Demotion is asynchronous — it happens after the save commits and its time
is reported off the training critical path — and conservative: the
incremental-delta base version is pinned (the next ``save_incremental``
XORs against its in-memory chunks), and versions whose chunks are no
longer fully intact in memory are skipped rather than torn-demoted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CheckpointError


@dataclass(frozen=True)
class TierDecision:
    """One round of placement moves, newest-first within each list.

    Attributes:
        demote: versions to copy memory -> disk (then drop from memory).
        evict: versions to delete from the disk tier (GC).
    """

    demote: tuple[int, ...] = ()
    evict: tuple[int, ...] = ()


@dataclass
class TierPolicy:
    """Per-version tier placement by age.

    Attributes:
        memory_versions: how many versions the fast (host-memory) tier
            keeps; older ones are demoted to disk.
        disk_versions: how many versions the disk tier retains; older
            demoted versions are evicted (remote backups, when enabled,
            cover deeper history).
    """

    memory_versions: int = 2
    disk_versions: int = 8

    def __post_init__(self) -> None:
        if self.memory_versions < 1:
            raise CheckpointError(
                f"memory_versions must be >= 1, got {self.memory_versions}"
            )
        if self.disk_versions < 0:
            raise CheckpointError(
                f"disk_versions must be >= 0, got {self.disk_versions}"
            )

    def decide(
        self,
        memory_versions: list[int],
        disk_versions: list[int],
        pinned: int | None = None,
    ) -> TierDecision:
        """Placement moves for the current version population.

        Args:
            memory_versions: committed versions whose chunks are resident
                in host memory.
            disk_versions: versions currently in the disk tier.
            pinned: version that must stay in memory regardless of age
                (the incremental-delta base).

        Returns:
            The demotions and disk evictions to apply, newest-first.
        """
        in_memory = sorted(set(memory_versions), reverse=True)
        demote = tuple(
            v for v in in_memory[self.memory_versions:] if v != pinned
        )
        disk_after = sorted(set(disk_versions) | set(demote), reverse=True)
        evict = tuple(disk_after[self.disk_versions:])
        return TierDecision(demote=demote, evict=evict)
