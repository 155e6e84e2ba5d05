"""Replay-aware differential chaos campaign: eccheck vs gradrep vs hybrid.

The generic campaign (:mod:`repro.chaos.campaign`) runs each engine
against *its own* random episode.  This campaign is differential: one
**scenario** — round structure, crash draws, corruption draws, failure
sets — is drawn once per episode from ``default_rng([seed, episode])``
and then every engine runs against that same scenario with the same
job seed, so the per-engine outcomes are directly comparable.

Per engine and episode the harness checks the full replay-aware oracle
(:func:`repro.chaos.invariants.expected_recovery`):

* outcome tier and restored version;
* **replay depth** — exactly the committed, intact, contiguous
  gradient-log tail, re-derived independently from raw survivor storage;
* **resume iteration** — the absolute iteration the recovered state must
  correspond to, byte-identical to the snapshot taken when training
  first passed that iteration;
* **torn entries are never replayed** — a crash injected mid-append
  leaves a torn log entry; resuming at or past its iteration on the same
  base is a violation;
* redundancy re-established (anchor + log copies, EC chunks) and the
  manager's ``iterations_lost`` ledger exact.

Every run executes under a collecting tracer and reconciles the traced
save/replicate/restore phase sums against the report breakdowns at
1e-9 relative tolerance; the reconciliation tables are embedded in the
report so ``repro analyze`` can re-verify them offline.

The campaign's product is the **crossover table**: steady-state overhead
per iteration (checkpoint stalls + replication stalls) against average
iterations lost per failure, and for each engine pair the failure
frequency (MTBF in iterations) at which their total costs cross.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro import obs
from repro.chaos.campaign import (
    FAILURE_MODES,
    FAILURE_MODE_WEIGHTS,
    P_CORRUPT,
    P_CRASH,
    sample_failures,
)
from repro.chaos.harness import (
    TESTBED_CLUSTER,
    CampaignReport,
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
from repro.obs.alerts import AlertRule
from repro.obs.timeseries import ManualClock
from repro.obs.trace_io import crosscheck_totals, reconcile_phases

#: The differential triple; order fixes the crossover table rows.
HYBRID_ENGINES = ("eccheck", "gradrep", "hybrid")

#: Crash points that fire inside ``replicate_iteration`` (a torn *log
#: entry*) rather than inside ``save`` (a torn *version*).
GRAD_POINTS = (
    "pre_grad_store",
    "mid_grad_replicate",
    "pre_grad_commit",
    "mid_grad_broadcast",
)

#: Storage keys the corruption draw may target, per payload family.
_CORRUPTIBLE_KINDS = ("chunk", "grad", "apkt")


@dataclass(frozen=True)
class HybridChaosConfig:
    """Campaign parameters (defaults = the CI smoke shape)."""

    episodes: int = 20
    seed: int = 0
    engines: tuple[str, ...] = HYBRID_ENGINES
    max_rounds: int = 3
    #: Checkpoint interval — also scales the log-depth alert thresholds.
    interval: int = 3
    model: ClassVar[str] = "gpt2-h1024-L16"
    scale: ClassVar[float] = 5e-4
    #: Baseline iteration seconds, used only to convert "iterations lost
    #: per failure" into seconds for the crossover computation.
    iteration_s: float = 1.0
    #: Attach a per-run telemetry timeline (log-depth signal + online
    #: alert rules) sampled against the derived report clock.
    timeline: bool = False
    timeline_period_s: float = 60.0

    REPORTED: ClassVar[tuple[str, ...]] = (
        "episodes", "seed", "engines", "max_rounds", "interval", "model",
        "scale", "iteration_s",
    )


def hybrid_alert_rules(interval: int) -> list[AlertRule]:
    """Log-depth SLOs for streaming engines.

    A healthy run rebases the gradient log at every checkpoint, so depth
    stays near ``interval``; a depth past ``3x`` means rebases are being
    skipped (warning) and past ``8x`` the replay tail has run away — the
    bounded-replay promise of the hybrid design is broken (violation).
    """
    return [
        AlertRule(
            name="log-depth-high",
            signal="log_depth",
            reduce="last",
            op=">",
            threshold=3.0 * interval,
            severity="warning",
            description=(
                "gradient-log depth exceeded 3x the checkpoint interval: "
                "rebases are not keeping up"
            ),
        ),
        AlertRule(
            name="log-depth-runaway",
            signal="log_depth",
            reduce="last",
            op=">",
            threshold=8.0 * interval,
            severity="violation",
            description=(
                "gradient-log depth exceeded 8x the checkpoint interval: "
                "replay is no longer bounded"
            ),
        ),
    ]


# ----------------------------------------------------------------------
# Scenario: drawn once per episode, replayed verbatim by every engine.
# ----------------------------------------------------------------------
def draw_scenario(config: HybridChaosConfig, episode: int) -> dict:
    """The episode's shared adversity, as plain data.

    Engine-dependent choices (which crash point, which stored payload to
    rot) are deferred: the scenario carries uniform floats (``u``) that
    each engine maps onto its own crash-point tuple / sorted candidate
    key list, so every engine faces the *same draw* even though their
    crash surfaces differ.
    """
    rng = np.random.default_rng([config.seed, episode])
    cluster = TESTBED_CLUSTER
    rounds = []
    for _ in range(int(rng.integers(1, config.max_rounds + 1))):
        spec: dict = {
            "iterations": int(rng.integers(2, config.interval + 3)),
            "crash": None,
            "corrupt": None,
        }
        if rng.random() < P_CRASH:
            spec["crash"] = {
                "u": float(rng.random()),
                "after": int(rng.integers(0, 3)),
            }
        if rng.random() < P_CORRUPT:
            spec["corrupt"] = {
                "u": float(rng.random()),
                "pos": float(rng.random()),
                "mask": int(rng.integers(1, 256)),
            }
        mode = str(rng.choice(FAILURE_MODES, p=FAILURE_MODE_WEIGHTS))
        failed = sample_failures(mode, cluster, rng)
        spec["failure_mode"] = mode
        spec["failed"] = sorted(
            int(n) for n in failed if n < cluster.num_nodes
        )
        rounds.append(spec)
    return {"rounds": rounds}


def _pick(u: float, items: int) -> int:
    return min(int(u * items), items - 1)


def _corrupt_from_spec(engine, spec: dict) -> str | None:
    """Rot one stored payload chosen by the scenario's uniform draws."""
    draws = iter((spec["u"], spec["pos"]))
    return corrupt_stored_payload(
        engine.host,
        engine.job.cluster.num_nodes,
        pick=lambda n: _pick(next(draws), n),
        mask=lambda: spec["mask"],
        kinds=_CORRUPTIBLE_KINDS,
    )


# ----------------------------------------------------------------------
@dataclass
class HybridEpisodeResult(EpisodeRecord):
    """One engine's run through one shared scenario."""

    #: Steady-state accounting for the crossover table.
    metrics: dict = field(default_factory=dict)
    #: Traced-vs-reported phase sums per report kind, for ``repro
    #: analyze`` to re-verify offline.
    phases: dict = field(default_factory=dict)


class HybridCampaignReport(CampaignReport):
    """All runs plus the per-engine crossover analysis."""

    by_engine = True

    def alert_counts(self) -> dict[str, int]:
        counts = {"warning": 0, "violation": 0}
        for e in self.episodes:
            if e.timeline and "alerts" in e.timeline:
                for key in counts:
                    counts[key] += e.timeline["alerts"]["counts"].get(key, 0)
        return counts

    # -- crossover ------------------------------------------------------
    def engine_summary(self) -> dict[str, dict]:
        """Per-engine steady-state overhead vs failure-time loss."""
        summary: dict[str, dict] = {}
        for name in self.config.engines:
            runs = [e for e in self.episodes if e.engine == name]
            iters = sum(r.metrics.get("iterations", 0) for r in runs)
            overhead = sum(r.metrics.get("overhead_s", 0.0) for r in runs)
            recoveries = sum(r.metrics.get("recoveries", 0) for r in runs)
            lost = sum(r.metrics.get("iterations_lost", 0) for r in runs)
            replayed = sum(
                r.metrics.get("replayed_iterations", 0) for r in runs
            )
            refusals = sum(r.metrics.get("refusals", 0) for r in runs)
            summary[name] = {
                "iterations": iters,
                "overhead_s": round(overhead, 9),
                "overhead_s_per_iteration": round(overhead / iters, 9)
                if iters
                else 0.0,
                "recoveries": recoveries,
                "refusals": refusals,
                "iterations_lost": lost,
                "avg_iterations_lost": round(lost / recoveries, 9)
                if recoveries
                else 0.0,
                "replayed_iterations": replayed,
            }
        return summary

    def crossover_table(self) -> list[dict]:
        """Pairwise failure-frequency break-even points.

        With per-iteration overhead ``oh`` (seconds) and ``lost``
        iterations per failure, the expected cost per iteration under a
        mean time between failures of ``M`` iterations is ``oh + lost *
        iteration_s / M``.  Two engines' costs cross at ``M* = (lost_a -
        lost_b) * iteration_s / (oh_b - oh_a)``; a negative ``M*`` means
        one engine is cheaper at every failure rate (it dominates).
        """
        summary = self.engine_summary()
        s = self.config.iteration_s
        rows: list[dict] = []
        names = list(self.config.engines)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                oh_a = summary[a]["overhead_s_per_iteration"]
                oh_b = summary[b]["overhead_s_per_iteration"]
                lost_a = summary[a]["avg_iterations_lost"]
                lost_b = summary[b]["avg_iterations_lost"]
                row: dict = {"pair": [a, b]}
                d_oh = oh_b - oh_a
                d_lost = lost_a - lost_b
                if abs(d_oh) < 1e-15 and abs(d_lost) < 1e-15:
                    row["verdict"] = "equivalent"
                elif d_oh == 0.0:
                    row["verdict"] = (
                        f"{a if d_lost < 0 else b} dominates (equal "
                        f"overhead, lower loss)"
                    )
                else:
                    mtbf = d_lost * s / d_oh
                    if mtbf <= 0:
                        winner = a if (oh_a <= oh_b and lost_a <= lost_b) else b
                        row["verdict"] = (
                            f"{winner} dominates (lower overhead and loss)"
                        )
                    else:
                        # The engine with lower loss wins when failures
                        # are frequent (MTBF below the crossover).
                        frequent_winner = a if lost_a < lost_b else b
                        row["crossover_mtbf_iterations"] = round(mtbf, 9)
                        row["verdict"] = (
                            f"{frequent_winner} cheaper when failures "
                            f"arrive more often than every "
                            f"{round(mtbf, 3)} iterations"
                        )
                rows.append(row)
        return rows

    # -- export ---------------------------------------------------------
    def summary(self) -> dict:
        return {
            "total_recovery_cycles": len(self.cycles),
            "engine_summary": self.engine_summary(),
            "crossover": self.crossover_table(),
            "alerts": self.alert_counts(),
        }

    def render_lines(self) -> list[str]:
        """ASCII crossover table plus violation and alert counts."""
        summary = self.engine_summary()
        alerts = self.alert_counts()
        lines = [
            f"hybrid campaign: {self.config.episodes} episodes x "
            f"{len(self.config.engines)} engines, "
            f"{len(self.cycles)} recovery cycles, "
            f"{len(self.violations)} violations, "
            f"{alerts['violation']} alert violations",
            f"{'engine':<10s} {'overhead s/iter':>16s} "
            f"{'avg iters lost':>15s} {'recoveries':>11s} "
            f"{'refusals':>9s} {'replayed':>9s}",
        ]
        for name, row in summary.items():
            lines.append(
                f"{name:<10s} {row['overhead_s_per_iteration']:>16.6f} "
                f"{row['avg_iterations_lost']:>15.3f} "
                f"{row['recoveries']:>11d} {row['refusals']:>9d} "
                f"{row['replayed_iterations']:>9d}"
            )
        lines.append("crossover (failure frequency where costs cross):")
        for row in self.crossover_table():
            pair = " vs ".join(row["pair"])
            lines.append(f"  {pair}: {row['verdict']}")
        return lines


# ----------------------------------------------------------------------
def run_hybrid_episode(
    engine_name: str,
    episode: int,
    config: HybridChaosConfig,
    scenario: dict | None = None,
) -> HybridEpisodeResult:
    """Run one engine through the episode's shared scenario.

    Always traced — the phase-reconciliation check is part of the
    campaign's contract, not an option — but by its own tracer: the
    episode embeds its reconciliation tables, not a trace summary.
    """
    scenario = scenario or draw_scenario(config, episode)

    def body(_tracer, sampler) -> HybridEpisodeResult:
        with obs.use_tracer() as tracer:
            return _run_episode_impl(
                engine_name, episode, config, scenario, tracer, ManualClock(sampler)
            )

    return observed_episode(
        body,
        config=config,
        trace=False,
        alert_rules=hybrid_alert_rules(config.interval),
    )


def _run_episode_impl(
    engine_name: str,
    episode: int,
    config: HybridChaosConfig,
    scenario: dict,
    tracer,
    clock: ManualClock,
) -> HybridEpisodeResult:
    result = HybridEpisodeResult(episode=episode, engine=engine_name)
    job, engine = build_testbed(
        engine_name, config.model, config.scale, config.seed * 7919 + episode
    )
    manager = CheckpointManager(job, engine, interval=config.interval)
    stats = manager.stats

    #: Bytes of every iteration training passed — replay-aware recovery
    #: can resume at any logged iteration, not just checkpoint edges.
    iteration_states: dict[int, dict] = {}
    ledger = CommitLedger(manager, snapshots=False)
    #: ``(base_version, iteration)`` of log entries torn by a crash
    #: injected mid-append — these must never be replayed.
    torn_entries: list[tuple[int | None, int]] = []
    recovery_reports: list = []
    iterations = 0
    refusals = 0
    drained_reps = 0

    clock.watch(
        checkpoints=lambda: stats.checkpoints,
        replications=lambda: stats.replications,
        recoveries=lambda: stats.recoveries,
        iterations_lost=lambda: stats.iterations_lost,
        log_depth=(
            engine.log_depth
            if isinstance(engine, SupportsReplication)
            else lambda: 0.0
        ),
        torn_entries=lambda: len(torn_entries),
    )

    def commit() -> None:
        nonlocal drained_reps
        reps = stats.replicate_reports[drained_reps:]
        drained_reps = len(stats.replicate_reports)
        clock.spend(
            *(report.checkpoint_time for report in ledger.drain()),
            *(report.replicate_time for report in reps),
        )

    def advance_once() -> None:
        nonlocal iterations
        job.advance()
        iterations += 1
        # Snapshot before the step: neither save nor replicate mutates
        # training state, and a crashed step must not lose the snapshot.
        iteration_states[job.iteration] = job.snapshot_states()

    for round_spec in scenario["rounds"]:
        # -- train + checkpoint + replicate -----------------------------
        for _ in range(round_spec["iterations"]):
            advance_once()
            manager.step()
            commit()

        # -- maybe crash a save or a replicate mid-flight ---------------
        crash_point = None
        crash_during = None
        if round_spec["crash"] is not None and engine.crash_points:
            points = engine.crash_points
            point = points[_pick(round_spec["crash"]["u"], len(points))]
            plan = CrashPlan(point=point, after=round_spec["crash"]["after"])
            advance_once()
            if not crash_next_save(engine, plan, manager.step):
                commit()
            elif point in GRAD_POINTS:
                # Only a streaming engine has replicate crash points.
                crash_point, crash_during = point, "replicate"
                torn_entries.append((engine.log.base_version, job.iteration))
            else:
                crash_point, crash_during = point, "save"
                ledger.torn.add(engine.version)

        # -- maybe rot a stored payload ---------------------------------
        corrupted = None
        if round_spec["corrupt"] is not None:
            corrupted = _corrupt_from_spec(engine, round_spec["corrupt"])

        # -- the shared failure -----------------------------------------
        failed = set(round_spec["failed"])
        mode = round_spec["failure_mode"]
        if not failed and crash_point is None and corrupted is None:
            continue  # nothing happened this round

        # -- oracle, then recover ---------------------------------------
        expectation = predict(engine, failed)
        lost_before = stats.iterations_lost
        record_failure(failed, mode=mode)
        recovery = recover(
            ledger,
            expectation,
            lambda: manager.on_failure(failed),
            states_at=iteration_states.get,
        )
        cycle = {
            "crash_point": crash_point,
            "crash_during": crash_during,
            "failure_mode": mode,
            "num_failed": len(failed),
            "corrupted": corrupted is not None,
            "expected": expectation.kind,
            "expected_replayed": expectation.replayed,
            "outcome": recovery.outcome,
        }
        result.cycles.append(cycle)
        result.violations += [
            f"{v} (crash={crash_point})" for v in recovery.violations
        ]
        report = recovery.report
        if recovery.outcome == "refused":
            refusals += 1
        if report is not None:
            recovery_reports.append(report)
            cycle.update(
                version=report.version,
                replayed=report.replayed_iterations,
                resume_iteration=job.iteration,
                iterations_lost=stats.iterations_lost - lost_before,
            )
            clock.spend(report.recovery_time)
        if recovery.fatal:
            break  # the job is down; this engine's episode ends here
        for torn_base, torn_iteration in torn_entries:
            if report.version == torn_base and job.iteration >= torn_iteration:
                result.violations.append(
                    f"resumed at iteration {job.iteration} on base "
                    f"v{torn_base}: the log entry for iteration "
                    f"{torn_iteration} was torn and must never be replayed"
                )

    clock.close()
    result.metrics = {
        "iterations": iterations,
        "checkpoints": stats.checkpoints,
        "replications": stats.replications,
        "overhead_s": round(
            stats.total_checkpoint_s + stats.total_replicate_s, 9
        ),
        "recoveries": stats.recoveries,
        "refusals": refusals,
        "iterations_lost": stats.iterations_lost,
        "replayed_iterations": stats.replayed_iterations,
        "bytes_replicated": stats.bytes_replicated,
    }
    result.phases, problems = reconcile_phases(
        [r for r in tracer.records() if r["type"] == "span"],
        {
            "save": [r.breakdown for r in stats.save_reports],
            "replicate": [r.breakdown for r in stats.replicate_reports],
            "restore": [r.breakdown for r in recovery_reports],
        },
    )
    result.violations += [f"phase reconciliation: {p}" for p in problems]
    return result


def run_hybrid_campaign(
    config: HybridChaosConfig | None = None,
) -> HybridCampaignReport:
    """Every engine through every episode's shared scenario."""
    config = config or HybridChaosConfig()
    episodes: list[HybridEpisodeResult] = []
    for episode in range(config.episodes):
        scenario = draw_scenario(config, episode)
        for engine_name in config.engines:
            episodes.append(
                run_hybrid_episode(engine_name, episode, config, scenario)
            )
    return HybridCampaignReport(config=config, episodes=episodes)


def analyze_report_phases(path: str, report: dict, out) -> int:
    """Re-verify a hybrid campaign's stored phase reconciliations.

    Each run embeds the traced phase sums and the summed report
    breakdowns per report kind (save / replicate / restore); re-running
    the 1e-9 crosscheck offline proves the stored report is internally
    consistent without re-running the campaign.
    """
    problems: list[str] = []
    checked = 0
    for episode in report.get("episodes", []):
        phases = episode.get("phases") or {}
        index = episode.get("episode", "?")
        engine = episode.get("engine", "?")
        kinds = []
        for kind, section in sorted(phases.items()):
            checked += 1
            kinds.append(kind)
            problems.extend(
                f"episode {index} ({engine}) {kind}: {p}"
                for p in crosscheck_totals(
                    section.get("traced", {}), [section.get("reported", {})]
                )
            )
        print(
            f"episode {index} ({engine}): "
            f"{'/'.join(kinds) or 'no'} phases reconciled at 1e-9",
            file=out,
        )
    if not checked:
        print(
            f"{path}: no phase sections to analyze (run `repro hybrid`)",
            file=out,
        )
        return 2
    for problem in problems:
        print(f"PHASE PROBLEM: {problem}", file=out)
    if not problems:
        print(
            f"phase crosscheck OK ({checked} reconciliations, "
            f"{len(report.get('violations', []))} campaign violations)",
            file=out,
        )
    return 1 if problems else 0
