"""The ``hybrid`` engine: EC-coded base checkpoints + gradient tail.

ECCheck's erasure-coded snapshots amortise checkpoint cost but lose every
iteration since the last checkpoint on failure; ``gradrep`` loses almost
nothing but pays replication bandwidth every iteration.  The hybrid takes
both: periodic EC-coded checkpoints (the inner
:class:`~repro.core.eccheck.ECCheckEngine`, untouched) protect against
the expensive failure patterns, while a
:class:`~repro.gradrep.gradlog.GradientLog` tail protects the iterations
*between* checkpoints.  Recovery is the composition — newest-first EC
restore, then bounded replay of the committed tail:

``recovered state = EC_restore(newest base) ⊕ Δ₁ ⊕ ... ⊕ Δⱼ``

Replay applies only when the restored base is exactly the log's base
version (deltas XOR against that packetised state and no other); a
restore that lands on an older version or the remote tier drops the tail
and the next save re-bases the stream.
"""

from __future__ import annotations

import dataclasses

from repro import obs
from repro.checkpoint.base import RecoveryReport, SaveReport
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.gradrep.engine import GradRepConfig, GradRepEngine
from repro.gradrep.gradlog import GradientLog


class HybridEngine(GradRepEngine):
    """ECCheck base checkpoints with a gradient-replicated tail.

    Inherits the streaming side (``replicate_iteration``, piggyback
    pricing, the gradient log) from :class:`GradRepEngine`; the anchor
    save/restore paths are replaced wholesale by the inner EC engine.
    Both engines share one storage/network universe so a node wipe hits
    EC chunks and log entries alike.
    """

    name = "hybrid"
    #: The inner EC restore already installed the base.
    installs_bases = False

    crash_points = ECCheckEngine.crash_points + (
        "pre_grad_store",
        "mid_grad_replicate",
        "pre_grad_commit",
        "mid_grad_broadcast",
    )

    def __init__(
        self,
        job: TrainingJob,
        config: ECCheckConfig | None = None,
        gradrep_config: GradRepConfig | None = None,
    ):
        # The inner engine must exist before the base constructor runs:
        # assigning ``crash_injector = None`` there goes through the
        # property below, which mirrors onto the inner engine.
        self.inner = ECCheckEngine(job, config)
        super().__init__(job, gradrep_config)
        self.host = self.inner.host
        self.disk = self.inner.disk
        self.remote = self.inner.remote
        self.network = self.inner.network
        self.log = GradientLog(self.host, job, fire=self.fire)

    # ------------------------------------------------------------------
    @property
    def crash_injector(self):
        return self._crash_injector

    @crash_injector.setter
    def crash_injector(self, value):
        self._crash_injector = value
        self.inner.crash_injector = value

    def save_remote_backup(self):
        report = self.inner.save_remote_backup()
        self.version = self.inner.version
        return report

    # ------------------------------------------------------------------
    def save(self) -> SaveReport:
        """EC-coded base checkpoint; commits re-base the gradient stream.

        The inner save's spans/phases land under its own name — the
        hybrid only re-brands the report.  On an injected crash the log
        keeps its old base: the torn version was never committed, so the
        tail is still replayable onto the previous one.
        """
        try:
            report = self.inner.save()
        finally:
            self.version = self.inner.version
        self._commit_base(report.version)
        return dataclasses.replace(report, engine=self.name)

    def _commit_base(self, version: int) -> None:
        self.log.rebase(version, self.job.iteration)
        self._stream_packets = {
            worker: ckpt.packet.payload.copy()
            for worker, ckpt in self._build_packets().items()
        }

    # ------------------------------------------------------------------
    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        """Newest-first EC restore, then bounded replay of the tail."""
        inner_report = self.inner.restore(failed_nodes)
        self.version = self.inner.version
        tracer = obs.get_tracer()
        with tracer.span(
            f"{self.name}.replay",
            kind="restore",
            version=inner_report.version,
            failed=sorted(failed_nodes),
        ) as span:
            report = self._replay_after_restore(inner_report, failed_nodes)
            span.set(replayed=report.replayed_iterations)
            replay_keys = ("replay_fetch", "replay_apply", "replay_htod")
            replay_breakdown = {
                k: v for k, v in report.breakdown.items() if k in replay_keys
            }
            span.add_sim(sum(replay_breakdown.values()))
            obs.record_phases(tracer, span, replay_breakdown, kind="restore")
        return report

    def _replay_after_restore(
        self, inner_report: RecoveryReport, failed_nodes: set[int]
    ) -> RecoveryReport:
        tm = self.job.time_model
        version = inner_report.version
        rebranded = dataclasses.replace(inner_report, engine=self.name)
        if self.log.base_version != version:
            # The restored base predates (or postdates via remote
            # weirdness) the stream's base — the tail XORs against state
            # this restore did not produce, so it must be dropped; the
            # next save re-bases.
            self.log.rebase(None, None)
            self._stream_packets = {}
            return dataclasses.replace(
                rebranded, replayed_iterations=0, resume_iteration=None
            )

        bases = {  # restored state == base state
            worker: (ckpt.packet.payload, ckpt.metadata_blob)
            for worker, ckpt in self._build_packets().items()
        }
        tail, fetched = self._replay_tail(version, bases, failed_nodes)
        fetch_bytes = 0
        replay_bytes = 0
        for worker in self.job.writers:
            worker_replay = sum(self._replay_shares(tail, worker))
            replay_bytes += worker_replay
            home, _ = self.log.entries.replicas(worker)
            if worker in fetched and home in failed_nodes:
                fetch_bytes += worker_replay
        replay_fetch = self._trunk_time(fetch_bytes) if fetch_bytes else 0.0
        replay_apply = tm.memcpy_time(replay_bytes) if replay_bytes else 0.0
        replay_htod = (
            max(
                tm.htod_time(sum(self._replay_shares(tail, w)))
                for w in self.job.writers
            )
            if tail
            else 0.0
        )
        resume = (
            int(tail[-1][1]["iteration"]) if tail else self.log.base_iteration
        )
        breakdown = dict(inner_report.breakdown)
        breakdown.update(
            {
                "replay_fetch": replay_fetch,
                "replay_apply": replay_apply,
                "replay_htod": replay_htod,
            }
        )
        return dataclasses.replace(
            rebranded,
            recovery_time=inner_report.recovery_time
            + replay_fetch
            + replay_apply
            + replay_htod,
            breakdown=breakdown,
            bytes_inter_node=inner_report.bytes_inter_node + fetch_bytes,
            replayed_iterations=len(tail),
            resume_iteration=resume,
        )
