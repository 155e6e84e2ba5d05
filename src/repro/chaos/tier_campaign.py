"""Tier-loss chaos campaign: seeded memory-wipe / disk-loss episodes.

The base campaign (:mod:`repro.chaos.campaign`) samples node failures
against engines whose only durable fallback is remote storage.  This
campaign targets the *tier stack*: an ECCheck engine runs under a
:class:`~repro.checkpoint.tiering.TierPolicy` so cold versions demote to
the local-disk tier, then episodes lose whole tiers:

* ``memory_tier_loss`` — every node power-cycles at once.  All host
  memory is gone; a correct engine recovers bit-exact from the disk tier
  (the headline invariant this campaign exists to check).
* ``partial`` — a strict subset of nodes fails; memory recovery should
  still win when enough chunks survive.
* ``disk_rot`` — a stored disk chunk packet silently rots, then the
  memory tier is lost; the digest walk must skip the torn disk version.
* ``disk_replacement`` — one machine is swapped (its disk arrives
  empty), then the memory tier is lost; versions that straddled the
  replaced disk are unrecoverable from disk.
* ``none`` — a pure process restart with no tier loss.

Every cycle is judged by the independent
:func:`~repro.chaos.invariants.expected_outcome` oracle (which re-derives
memory- and disk-tier recoverability from raw store contents), restored
states must be bit-identical to the committed bytes, and the byte-flow
ledger must balance: demoted bytes equal the demote reports' sum, disk
restores read back what promotion copied.  With ``trace`` enabled the
whole episode runs under a collecting tracer and per-tier phase totals
are reconciled against the demotion/recovery report breakdowns at 1e-9
relative tolerance.

Determinism matches the base campaign: every draw flows from
``default_rng([seed, episode])``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro import obs
from repro.chaos.campaign import outcome_table, tally
from repro.chaos.harness import (
    CampaignReport,
    CommitLedger,
    EpisodeRecord,
    build_testbed,
    corrupt_stored_payload,
    crash_next_save,
    observed_episode,
    predict,
    recover,
)
from repro.chaos.injection import CrashPlan
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.obs.timeseries import ManualClock
from repro.obs.trace_io import reconcile_phases

P_CRASH = 0.4

SCENARIOS = (
    "none",
    "partial",
    "memory_tier_loss",
    "disk_rot",
    "disk_replacement",
)
SCENARIO_WEIGHTS = (0.10, 0.20, 0.40, 0.15, 0.15)


@dataclass(frozen=True)
class TierChaosConfig:
    """Campaign parameters (defaults = the CI tier-smoke shape)."""

    episodes: int = 20
    seed: int = 0
    max_rounds: int = 3
    model: ClassVar[str] = "gpt2-h1024-L16"
    scale: ClassVar[float] = 5e-4
    #: Disk-tier retention depth handed to the :class:`TierPolicy`.
    disk_versions: ClassVar[int] = 8
    #: Run each episode under a collecting tracer, reconcile per-tier
    #: phase totals against report breakdowns at ``trace_io.REL_TOL``,
    #: and attach a trace summary to the episode.
    trace: bool = False
    #: Attach a per-episode telemetry timeline sampled against a clock
    #: derived from save/recovery durations.
    timeline: bool = False
    timeline_period_s: float = 60.0

    REPORTED: ClassVar[tuple[str, ...]] = (
        "episodes", "seed", "max_rounds", "model", "scale", "disk_versions",
        "trace",
    )


@dataclass
class TierEpisodeResult(EpisodeRecord):
    """One episode's recovery cycles and any invariant violations."""

    #: Tier-stack accounting for the episode: demotions, evictions,
    #: bytes to/from each tier.
    tier_flow: dict = field(default_factory=dict)


class TierCampaignReport(CampaignReport):
    """All episode results plus tier-level aggregates."""

    def outcome_matrix(self) -> dict[str, dict[str, int]]:
        """``"scenario/crash" -> {outcome: count}``."""
        return tally(
            (f"{cycle['scenario']}/{cycle['crash_point'] or '-'}", cycle["outcome"])
            for cycle in self.cycles
        )

    def recovery_time_by_tier(self) -> dict[str, dict[str, float]]:
        """Per-tier recovery-time statistics — the tier/latency curve.

        Memory restores should be fastest, disk pays the promotion read,
        remote pays the thin shared pipe; this table is the campaign's
        empirical check of that ordering.
        """
        samples: dict[str, list[float]] = {}
        for cycle in self.cycles:
            tier = cycle.get("tier")
            if tier is None or "recovery_s" not in cycle:
                continue
            samples.setdefault(tier, []).append(cycle["recovery_s"])
        return {
            tier: {
                "count": len(values),
                "mean_s": sum(values) / len(values),
                "max_s": max(values),
                "min_s": min(values),
            }
            for tier, values in sorted(samples.items())
        }

    def byte_flow(self) -> dict[str, int]:
        """Campaign-wide per-tier byte flow (the ledger, summed)."""
        totals = {
            "bytes_to_disk": 0,
            "bytes_from_disk": 0,
            "bytes_from_remote": 0,
            "disk_bytes_evicted": 0,
        }
        for episode in self.episodes:
            for key in totals:
                totals[key] += episode.tier_flow.get(key, 0)
        return totals

    def summary(self) -> dict:
        return {
            "total_recovery_cycles": len(self.cycles),
            "outcome_matrix": self.outcome_matrix(),
            "recovery_time_by_tier": self.recovery_time_by_tier(),
            "byte_flow": self.byte_flow(),
        }

    def render_lines(self) -> list[str]:
        """Outcomes, tier latency curve, byte flow."""
        lines = [
            f"tier campaign: {len(self.episodes)} episodes, "
            f"{len(self.cycles)} recovery cycles, "
            f"{len(self.violations)} violations",
            *outcome_table("scenario / crash point", 34, self.outcome_matrix()),
            "recovery time by tier:",
        ]
        for tier, stats in self.recovery_time_by_tier().items():
            lines.append(
                f"  {tier:<8s} n={stats['count']:<4d} "
                f"mean={stats['mean_s']:.3f}s max={stats['max_s']:.3f}s"
            )
        flow = self.byte_flow()
        lines.append(
            "byte flow: "
            f"to_disk={flow['bytes_to_disk']} "
            f"from_disk={flow['bytes_from_disk']} "
            f"from_remote={flow['bytes_from_remote']} "
            f"evicted={flow['disk_bytes_evicted']}"
        )
        return lines


# ----------------------------------------------------------------------
def run_tier_episode(
    episode: int, config: TierChaosConfig
) -> TierEpisodeResult:
    """One seeded tier-loss episode (traced when ``config.trace``)."""
    return observed_episode(
        lambda tracer, sampler: _run_tier_episode_impl(
            episode, config, tracer, ManualClock(sampler)
        ),
        config=config,
        trace=config.trace,
    )


def _run_tier_episode_impl(
    episode: int, config: TierChaosConfig, tracer, clock: ManualClock
) -> TierEpisodeResult:
    rng = np.random.default_rng([config.seed, episode])
    result = TierEpisodeResult(episode=episode)
    job, engine = build_testbed(
        "eccheck", config.model, config.scale, config.seed * 7919 + episode
    )
    policy = TierPolicy(
        memory_versions=int(rng.integers(1, 3)),
        disk_versions=config.disk_versions,
    )
    manager = CheckpointManager(
        job,
        engine,
        interval=1,
        remote_backup_every=int(rng.choice([0, 3])),
        tier_policy=policy,
    )
    ledger = CommitLedger(manager)
    stats = manager.stats
    restore_breakdowns: list[dict] = []
    # The probes watch the tier stack's byte flow alongside the recovery
    # counters.
    clock.watch(
        checkpoints=lambda: stats.checkpoints,
        recoveries=lambda: stats.recoveries,
        demotions=lambda: stats.demotions,
        evictions=lambda: stats.evictions,
        bytes_to_disk=lambda: stats.bytes_to_disk,
        disk_bytes_evicted=lambda: stats.disk_bytes_evicted,
    )

    def commit() -> None:
        clock.spend(*(report.checkpoint_time for report in ledger.drain()))

    rounds = int(rng.integers(1, config.max_rounds + 1))
    for _ in range(rounds):
        # -- train + checkpoint (tier policy demotes after each save) ----
        for _ in range(int(rng.integers(2, 5))):
            job.advance()
            manager.step()
            commit()

        # -- maybe crash a save mid-flight ------------------------------
        crash_point = None
        if rng.random() < P_CRASH:
            point = str(rng.choice(engine.crash_points))
            plan = CrashPlan(point=point, after=int(rng.integers(0, 3)))
            job.advance()
            if crash_next_save(engine, plan, manager.step):
                crash_point = point
                ledger.torn.add(engine.version)
            else:
                commit()

        # -- pick a tier-loss scenario ----------------------------------
        scenario = str(rng.choice(SCENARIOS, p=SCENARIO_WEIGHTS))
        n = job.cluster.num_nodes
        corrupted = None
        replaced_disk = None
        if scenario == "none":
            failed: set[int] = set()
        elif scenario == "partial":
            size = int(rng.integers(1, n))
            failed = {int(x) for x in rng.choice(n, size=size, replace=False)}
        elif scenario == "memory_tier_loss":
            failed = set(range(n))  # full cluster power-cycle
        elif scenario == "disk_rot":
            corrupted = corrupt_stored_payload(
                engine.disk,
                n,
                pick=lambda size: int(rng.integers(size)),
                mask=lambda: int(rng.integers(1, 256)),
            )
            failed = set(range(n))
        elif scenario == "disk_replacement":
            replaced_disk = int(rng.integers(n))
            engine.on_node_replaced(replaced_disk)
            failed = set(range(n))
        else:  # pragma: no cover — scenario tuple and dispatch in sync
            raise AssertionError(scenario)

        if not failed and crash_point is None:
            continue  # nothing happened this round
        obs.event("tier_loss", scenario=scenario, ranks=sorted(failed))

        # -- oracle, then recover ---------------------------------------
        expectation = predict(engine, failed)
        # The resume-iteration check has never been part of this
        # campaign; the byte-flow checks below are its own.
        recovery = recover(
            ledger, expectation, lambda: manager.on_failure(failed), skip=("resume",)
        )
        cycle = {
            "scenario": scenario,
            "crash_point": crash_point,
            "num_failed": len(failed),
            "disk_corrupted": corrupted is not None,
            "disk_replaced": replaced_disk,
            "expected": expectation.kind,
            "outcome": recovery.outcome,
        }
        result.cycles.append(cycle)
        result.violations += [
            f"{v} (scenario={scenario}, crash={crash_point})"
            for v in recovery.violations
        ]
        report = recovery.report
        if report is not None:
            cycle.update(
                tier=report.tier,
                version=report.version,
                recovery_s=report.recovery_time,
                bytes_from_disk=report.bytes_from_disk,
                bytes_from_remote=report.bytes_from_remote,
            )
            restore_breakdowns.append(report.breakdown)
            clock.spend(report.recovery_time)
        if recovery.fatal:
            break  # the job is down; the episode ends here
        # -- the byte-flow ledger must balance per outcome ---------------
        outcome = recovery.outcome
        if outcome == "disk" and report.bytes_from_disk <= 0:
            result.violations.append(
                f"disk restore of v{report.version} read 0 bytes from disk"
            )
        if outcome == "disk" and "promote_disk_read" not in report.breakdown:
            result.violations.append(
                f"disk restore of v{report.version} has no promote phase "
                "in its breakdown"
            )
        if outcome == "memory" and report.bytes_from_disk:
            result.violations.append(
                f"memory restore of v{report.version} claims "
                f"{report.bytes_from_disk} disk bytes"
            )

    # -- episode-level ledger: demoted bytes must equal the reports ------
    reported_to_disk = sum(r.bytes_to_disk for r in stats.demote_reports)
    if stats.bytes_to_disk != reported_to_disk:
        result.violations.append(
            f"bytes_to_disk ledger off: stats={stats.bytes_to_disk}, "
            f"demote reports sum to {reported_to_disk}"
        )
    result.tier_flow = {
        "demotions": stats.demotions,
        "evictions": stats.evictions,
        "skipped_demotions": stats.skipped_demotions,
        "bytes_to_disk": stats.bytes_to_disk,
        "bytes_from_disk": sum(c.get("bytes_from_disk", 0) for c in result.cycles),
        "bytes_from_remote": sum(
            c.get("bytes_from_remote", 0) for c in result.cycles
        ),
        "disk_bytes_evicted": stats.disk_bytes_evicted,
    }

    # -- traced mode: reconcile per-tier phase totals at 1e-9 ------------
    if tracer is not None:
        _, problems = reconcile_phases(
            [r for r in tracer.records() if r["type"] == "span"],
            {
                "tier": [r.breakdown for r in stats.demote_reports],
                "restore": restore_breakdowns,
            },
        )
        result.violations += [
            f"traced phases do not reconcile: {p}" for p in problems
        ]
    clock.close()
    return result


def run_tier_campaign(
    config: TierChaosConfig | None = None,
) -> TierCampaignReport:
    """Run ``config.episodes`` seeded tier-loss episodes."""
    config = config or TierChaosConfig()
    return TierCampaignReport(
        config=config,
        episodes=[
            run_tier_episode(episode, config)
            for episode in range(config.episodes)
        ],
    )
