"""The ECCheck engine's memory -> local-disk tier stack: demotion off the
training critical path, promotion on restore and disk-tier GC
(:mod:`repro.checkpoint.tiering` holds the policy that drives them).
"""

from __future__ import annotations

from repro import obs
from repro.checkpoint.base import DemotionReport
from repro.errors import CheckpointError


class Tiers:
    """The tier half of :class:`~repro.core.eccheck.ECCheckEngine`."""

    #: Committed versions whose chunks are resident in host memory / in
    #: the local-disk tier.  Advisory indices for the tier policy
    #: (candidates for demotion/eviction); the restore walk re-derives
    #: availability from raw storage and never trusts them.
    _chunk_versions: set[int]
    _disk_versions: set[int]
    #: Versions :meth:`prune_memory_index` dropped (torn, never
    #: demotable); :meth:`demote_version` frees their remnants.
    _stale_versions: set[int]

    def memory_versions(self) -> list[int]:
        """Committed versions with chunks resident in host memory."""
        return sorted(self._chunk_versions)

    def disk_versions(self) -> list[int]:
        """Versions currently held by the local-disk tier."""
        return sorted(self._disk_versions)

    def delta_base_version(self) -> int | None:
        """Version the next incremental save XORs against (pinned hot)."""
        return self._delta_base.version if self._delta_base else None

    def prune_memory_index(self, verify: bool = True) -> list[int]:
        """Drop no-longer-intact versions from the demotion candidate index.

        Called after failures: versions whose chunks were partially wiped
        must never be demoted (the disk tier only accepts fully intact
        versions), so they stop being candidates.  Only the index shrinks —
        no bytes are deleted, and the restore walk is unaffected
        (:meth:`demote_version` frees the remnants once they age out of
        the memory tier).  Returns the pruned versions.

        :meth:`restore` ends with the ``verify=False`` form: it has just
        verified or freshly digested every packet of the version it
        restored, and a failure takes older versions by wiping, which
        presence shows; :meth:`demote_version` re-verifies every digest
        before anything reaches the disk tier either way.
        """
        stale = [
            v for v in sorted(self._chunk_versions) if self._whole(v, verify=verify) is None
        ]
        self._chunk_versions.difference_update(stale)
        self._stale_versions.update(stale)
        return stale

    def demote_version(self, version: int) -> DemotionReport:
        """Move a cold version's chunks + metadata from memory to disk.

        Runs off the training critical path (the reported ``demote_time``
        is background disk-write seconds).  Refuses to demote the
        incremental-delta base (the next ``save_incremental`` reads its
        chunks from host memory) and any version that is not fully intact
        in memory — a torn demotion would poison the disk tier.

        A demotion is a *move* (no copy).  It also deletes the host
        remnants of every pruned version older than ``version``: a torn
        version stays a decodable fallback exactly as long as an intact
        one of its age would stay in memory.

        Raises:
            CheckpointError: when the version is not demotable.
        """
        tracer = obs.get_tracer()
        with tracer.span("eccheck.demote", kind="tier", version=version) as span:
            if version not in self._chunk_versions:
                raise CheckpointError(
                    f"version {version} has no in-memory chunks to demote"
                )
            if version == self.delta_base_version():
                raise CheckpointError(
                    f"version {version} is the incremental-delta base; demoting "
                    "it would break the next save_incremental"
                )
            if self._whole(version) is None:
                raise CheckpointError(
                    f"version {version} is not fully intact in memory; refusing "
                    "a torn demotion"
                )
            per_node_bytes = self._move(version, self.host, self.disk)
            aged_out = sorted(v for v in self._stale_versions if v < version)
            self._stale_versions.difference_update(aged_out)
            for stale in aged_out:
                self._move(stale, self.host)
            demote_time = max(
                (self.job.time_model.disk_write_time(b) for b in per_node_bytes if b),
                default=0.0,
            )
            self._chunk_versions.discard(version)
            self._disk_versions.add(version)
            report = DemotionReport(
                engine=self.name,
                version=version,
                demote_time=demote_time,
                breakdown={"demote_disk_write": demote_time},
                bytes_to_disk=sum(per_node_bytes),
            )
            span.add_sim(report.demote_time)
            span.set(bytes_to_disk=report.bytes_to_disk)
            obs.record_phases(tracer, span, report.breakdown, kind="tier")
        return report

    def evict_disk_version(self, version: int) -> int:
        """GC one version from the disk tier; returns bytes reclaimed."""
        freed = sum(self._move(version, self.disk))
        self._disk_versions.discard(version)
        tracer = obs.get_tracer()
        if tracer.enabled and freed:
            tracer.metrics.counter("tier.disk_bytes_evicted").inc(freed)
        return freed

    def _promote_version(
        self, version: int, records: list[tuple]
    ) -> tuple[float, int]:
        """Copy a disk version back into host memory (disk copy kept).

        Returns ``(promote_seconds, bytes_read)``.  After the per-node
        copy-back every active node holds ``records``, the commit record
        the restore walk read off the disks (a replacement machine's empty
        disk leaves gaps that the surviving disks fill).
        """
        tm = self.job.time_model
        per_node_bytes = self._move(version, self.disk, self.host, copy=True)
        self._put_records(version, records, self.active_nodes)
        promote_s = max(
            (tm.disk_read_time(b) for b in per_node_bytes if b), default=0.0
        )
        self._chunk_versions.add(version)
        return promote_s, sum(per_node_bytes)
