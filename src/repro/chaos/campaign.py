"""Seeded chaos campaigns: randomized save/crash/restore/resume episodes.

One *episode* builds a fresh testbed job (4 nodes x 2 GPUs, TP=2 / PP=4)
plus one engine and runs a few rounds of:

1. train and checkpoint through a :class:`CheckpointManager`, recording a
   deep snapshot of the exact bytes each committed version captured;
2. optionally arm a :class:`~repro.chaos.injection.CrashInjector` on one
   of the engine's crash points and let a save abort mid-flight, leaving
   a genuine torn version;
3. optionally corrupt a stored chunk packet in place (silent bit rot);
4. sample node failures (independent / rack-correlated / Poisson-trace /
   targeted — or a pure crash-restart with no machine loss);
5. consult the independent :mod:`~repro.chaos.invariants` oracle for what
   a correct engine must do, then run ``manager.on_failure`` and check
   every invariant: restored ``state_dict``s bit-identical, torn versions
   never restored, redundancy re-established, lost-work accounting exact.

Every random draw flows from ``default_rng([seed, episode])``, so a
campaign is reproducible draw-for-draw and a fixed seed can gate CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.chaos.harness import (
    CampaignReport as _CampaignReport,
    CommitLedger,
    EpisodeRecord,
    build_testbed,
    corrupt_stored_payload,
    crash_next_save,
    observed_episode,
    predict,
    record_failure,
    recover,
)
from repro.chaos.injection import CrashPlan
from repro.checkpoint.base import SupportsReplication
from repro.checkpoint.manager import CheckpointManager
from repro.obs.timeseries import ManualClock
from repro.sim.failures import (
    concurrent_failure_counts,
    poisson_failure_trace,
    sample_correlated_failures,
    sample_node_failures,
)

ENGINES = ("eccheck", "base1", "base2", "base3")

#: Probability knobs of one round (module-level so tests can reason about
#: coverage; the rng stream, not these values, carries the determinism).
P_CRASH = 0.6
P_CORRUPT = 0.3
FAILURE_MODES = ("none", "independent", "correlated", "poisson", "targeted")
FAILURE_MODE_WEIGHTS = (0.15, 0.25, 0.15, 0.20, 0.25)


@dataclass(frozen=True)
class ChaosConfig:
    """Campaign parameters (defaults = the CI smoke shape)."""

    episodes: int = 50
    seed: int = 0
    engines: tuple[str, ...] = ENGINES
    max_rounds: int = 3
    model: ClassVar[str] = "gpt2-h1024-L16"
    scale: ClassVar[float] = 5e-4
    #: Run each episode under a collecting tracer and attach a trace
    #: summary (span/event counts, phase totals, fired crash points) to
    #: the episode in ``CHAOS_report.json``.
    trace: bool = False
    #: Attach a per-episode telemetry timeline sampled against a clock
    #: derived from the save/recovery report durations.
    timeline: bool = False
    timeline_period_s: float = 60.0

    REPORTED: ClassVar[tuple[str, ...]] = (
        "episodes", "seed", "engines", "max_rounds", "model", "scale", "trace",
    )


#: One episode's recovery cycles and any invariant violations.
EpisodeResult = EpisodeRecord


def tally(pairs) -> dict[str, dict[str, int]]:
    """``(key, outcome)`` pairs -> ``{key: {outcome: count}}``, key-sorted."""
    matrix: dict[str, dict[str, int]] = {}
    for key, outcome in pairs:
        row = matrix.setdefault(key, {})
        row[outcome] = row.get(outcome, 0) + 1
    return {key: matrix[key] for key in sorted(matrix)}


def outcome_table(label: str, width: int, matrix: dict) -> list[str]:
    """An outcome matrix as fixed-width rows, one column per outcome."""
    lines = [
        f"{label:<{width}s} {'memory':>7s} {'disk':>5s} {'backup':>7s} "
        f"{'refused':>8s} {'error':>6s}"
    ]
    for key, row in matrix.items():
        lines.append(
            f"{key:<{width}s} {row.get('memory', 0):>7d} "
            f"{row.get('disk', 0):>5d} "
            f"{row.get('backup', 0):>7d} {row.get('refused', 0):>8d} "
            f"{row.get('engine_error', 0):>6d}"
        )
    return lines


class CampaignReport(_CampaignReport):
    """All episode results plus the crash x failure x corruption matrix."""

    by_engine = True

    def outcome_matrix(self) -> dict[str, dict[str, int]]:
        """``"crash_point/failures/corruption" -> {outcome: count}``."""
        return tally(
            (
                f"{cycle['crash_point'] or '-'}"
                f"/f{cycle['num_failed']}"
                f"/{'corrupt' if cycle['corrupted'] else 'clean'}",
                cycle["outcome"],
            )
            for cycle in self.cycles
        )

    def summary(self) -> dict:
        return {
            "total_recovery_cycles": len(self.cycles),
            "outcome_matrix": self.outcome_matrix(),
        }

    def render_lines(self) -> list[str]:
        """The outcome matrix under the campaign's headline counts."""
        return [
            f"chaos campaign: {len(self.episodes)} episodes, "
            f"{len(self.cycles)} recovery cycles, "
            f"{len(self.violations)} violations",
            *outcome_table(
                "crash point / failures / corruption", 42, self.outcome_matrix()
            ),
        ]


# ----------------------------------------------------------------------
def sample_failures(mode: str, cluster, rng: np.random.Generator) -> set[int]:
    """One failed-node set of ``cluster`` under a :data:`FAILURE_MODES` mode.

    Needs only the cluster shape, so the rng stream cannot depend on
    which engine later faces the failure.
    """
    n = cluster.num_nodes
    if mode == "none":
        return set()
    if mode == "independent":
        return sample_node_failures(n, 0.3, rng)
    if mode == "correlated":
        return sample_correlated_failures(cluster, 0.2, 0.15, rng)
    if mode == "poisson":
        # A day-long fleet trace; one window's concurrent-failure count
        # becomes this round's simultaneous loss.
        trace = poisson_failure_trace(
            n, mtbf_hours=float(rng.uniform(20.0, 120.0)),
            duration_hours=24.0, rng=rng,
        )
        counts = concurrent_failure_counts(trace, 1.0, duration_hours=24.0)
        count = min(n, counts[int(rng.integers(len(counts)))])
        return {int(x) for x in rng.choice(n, size=count, replace=False)}
    if mode == "targeted":
        size = int(rng.integers(1, n))
        return {int(x) for x in rng.choice(n, size=size, replace=False)}
    raise ValueError(f"unknown failure mode {mode!r}")


# ----------------------------------------------------------------------
def run_episode(
    engine_name: str,
    episode: int,
    config: ChaosConfig,
) -> EpisodeResult:
    """One seeded save/crash/restore/resume episode against one engine."""
    return observed_episode(
        lambda _tracer, sampler: _run_episode_impl(
            engine_name, episode, config, ManualClock(sampler)
        ),
        config=config,
        trace=config.trace,
    )


def _run_episode_impl(
    engine_name: str, episode: int, config: ChaosConfig, clock: ManualClock
) -> EpisodeResult:
    rng = np.random.default_rng([config.seed, episode])
    result = EpisodeResult(episode=episode, engine=engine_name)
    job, engine = build_testbed(
        engine_name, config.model, config.scale, config.seed * 7919 + episode
    )
    if isinstance(engine, SupportsReplication):
        # The generic campaign's torn-version accounting assumes crashes
        # happen inside *saves*; streaming engines also crash inside
        # replicate calls, which the replay-aware hybrid campaign models.
        raise ValueError(
            f"engine {engine_name!r} streams per-iteration updates — "
            f"run it through the hybrid campaign (`repro hybrid`) instead"
        )
    backup_every = (
        int(rng.choice([0, 2])) if engine_name == "eccheck" else 0
    )
    manager = CheckpointManager(
        job, engine, interval=1, remote_backup_every=backup_every
    )
    ledger = CommitLedger(manager)
    stats = manager.stats
    clock.watch(
        checkpoints=lambda: stats.checkpoints,
        recoveries=lambda: stats.recoveries,
        iterations_lost=lambda: stats.iterations_lost,
        torn_versions=lambda: len(ledger.torn),
    )

    def commit() -> None:
        clock.spend(*(report.checkpoint_time for report in ledger.drain()))

    rounds = int(rng.integers(1, config.max_rounds + 1))
    for _ in range(rounds):
        # -- train + checkpoint -----------------------------------------
        for _ in range(int(rng.integers(1, 4))):
            job.advance()
            manager.step()
            commit()

        # -- maybe crash a save mid-flight ------------------------------
        crash_point = None
        if engine.crash_points and rng.random() < P_CRASH:
            point = str(rng.choice(engine.crash_points))
            plan = CrashPlan(point=point, after=int(rng.integers(0, 3)))
            job.advance()
            if crash_next_save(engine, plan, manager.step):
                crash_point = point
                ledger.torn.add(engine.version)
            else:
                commit()

        # -- maybe rot a stored chunk -----------------------------------
        corrupted = None
        if engine_name == "eccheck" and rng.random() < P_CORRUPT:
            corrupted = corrupt_stored_payload(
                engine.host,
                job.cluster.num_nodes,
                pick=lambda n: int(rng.integers(n)),
                mask=lambda: int(rng.integers(1, 256)),
            )

        # -- sample a failure -------------------------------------------
        mode = str(
            rng.choice(FAILURE_MODES, p=FAILURE_MODE_WEIGHTS)
        )
        failed = sample_failures(mode, job.cluster, rng)
        failed = {n for n in failed if n < job.cluster.num_nodes}
        if not failed and crash_point is None and corrupted is None:
            continue  # nothing happened this round
        # A crash with no machine loss is a pure process restart; recovery
        # still runs (GPU state must be reloaded and torn versions walked
        # back).  Corruption without crash/failure also forces a restart so
        # the rot is exercised rather than silently overwritten.

        # -- oracle, then recover ---------------------------------------
        expectation = predict(engine, failed)
        record_failure(failed, mode=mode)
        recovery = recover(ledger, expectation, lambda: manager.on_failure(failed))
        cycle = {
            "crash_point": crash_point,
            "failure_mode": mode,
            "num_failed": len(failed),
            "corrupted": corrupted is not None,
            "expected": expectation.kind,
            "outcome": recovery.outcome,
        }
        result.cycles.append(cycle)
        result.violations += [
            f"{v} (crash={crash_point})" for v in recovery.violations
        ]
        if recovery.report is not None:
            cycle["version"] = recovery.report.version
            clock.spend(recovery.report.recovery_time)
        if recovery.fatal:
            break  # the job is down; the episode ends here
    clock.close()
    return result


def run_campaign(config: ChaosConfig | None = None) -> CampaignReport:
    """Run ``config.episodes`` episodes, engines round-robin."""
    config = config or ChaosConfig()
    episodes = []
    for episode in range(config.episodes):
        engine_name = config.engines[episode % len(config.engines)]
        episodes.append(run_episode(engine_name, episode, config))
    return CampaignReport(config=config, episodes=episodes)
