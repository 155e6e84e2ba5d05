"""Seeded elastic-membership chaos campaigns.

One *episode* builds the standard testbed (4 nodes x 2 GPUs, TP=2 /
PP=4) with an ECCheck engine under an
:class:`~repro.elastic.controller.ElasticClusterController` and walks a
simulated clock through rounds of:

1. train and checkpoint (degraded saves included — after every one the
   :func:`~repro.chaos.invariants.check_degraded_recoverable` oracle
   re-derives the any-``m'``-further-failures guarantee from raw
   storage);
2. optionally crash a save mid-flight, leaving a torn version;
3. fail a random *survivable* subset of the live ranks — survivable is
   decided by the independent oracle, not the engine — then let the
   controller restore, request spares (pools are sampled small enough
   that some episodes exhaust them) and regroup to a shrunk shape;
4. admit provisioned spares, optionally crashing the background repair
   at one of its :data:`~repro.elastic.repair.REPAIR_CRASH_POINTS`; a
   crashed repair's ledger is checked for crash consistency and then
   resumed;
5. occasionally consult the adaptive redundancy policy at full strength.

Every episode must end at full redundancy: any still-dead ranks receive
manually provisioned machines (modelling operator intervention once the
spare pool ran dry), the last repair generation commits, the manager's
degraded window closes, and a final pure-restart restore must land on
the oracle's version with bit-exact worker states.

Every random draw flows from ``default_rng([seed, episode])`` so a
fixed seed gates CI deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.chaos.campaign import tally
from repro.chaos.harness import (
    CampaignReport,
    CommitLedger,
    EpisodeRecord,
    build_testbed,
    crash_next_save,
    observed_episode,
    predict,
    record_failure,
    recover,
)
from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.chaos.invariants import (
    check_degraded_recoverable,
    check_eccheck_redundancy,
    check_repair_ledger,
)
from repro.checkpoint.manager import CheckpointManager
from repro.elastic import ElasticClusterController, RedundancyPolicy
from repro.elastic.repair import REPAIR_CRASH_POINTS
from repro.obs.timeseries import RECONCILE_REL_TOL, ManualClock
from repro.sim.spares import SparePool

#: Probability knobs of one round (module-level so tests can reason
#: about coverage; the rng stream, not these values, carries the
#: determinism).
P_SAVE_CRASH = 0.35
P_FAILURE = 0.7
P_REPAIR_CRASH = 0.5
P_ADAPT = 0.3

#: Judge checks this campaign has never run on a recovery: the cluster is
#: *meant* to sit below full redundancy after a failure (the repair
#: ledger, the degraded-save oracle and the end-of-episode redundancy
#: check cover that ground), and lost work is not part of its ledger.
_NOT_CHECKED = ("redundancy", "lost")


@dataclass(frozen=True)
class ElasticConfig:
    """Campaign parameters (defaults = the CI smoke shape)."""

    episodes: int = 30
    seed: int = 0
    max_rounds: int = 3
    model: ClassVar[str] = "gpt2-h1024-L16"
    scale: ClassVar[float] = 5e-4
    redundancy_floor: int = 1
    #: Run each episode under a collecting tracer and attach a trace
    #: summary to the episode in ``ELASTIC_report.json``.
    trace: bool = False
    #: Sample a sim-time telemetry timeline per episode and attach it to
    #: the episode record.
    timeline: bool = False
    timeline_period_s: float = 60.0

    REPORTED: ClassVar[tuple[str, ...]] = (
        "episodes", "seed", "max_rounds", "model", "scale", "redundancy_floor",
        "trace",
    )


@dataclass
class ElasticEpisodeResult(EpisodeRecord):
    """One episode's membership cycles and any invariant violations."""

    #: Closed degraded windows (the manager's redundancy ledger).
    redundancy_ledger: list[dict] = field(default_factory=list)


class ElasticReport(CampaignReport):
    """All episode results plus the failure x spare x crash matrix."""

    def outcome_matrix(self) -> dict[str, dict[str, int]]:
        """``"kind/detail" -> {outcome: count}`` across all episodes."""

        def classify(cycle: dict) -> tuple[str, str]:
            if cycle["kind"] == "failure":
                return (
                    f"failure/f{cycle['num_failed']}/{cycle['save_crash'] or '-'}",
                    cycle["outcome"],
                )
            if cycle["kind"] == "join":
                return (
                    f"join/{cycle['repair_crash'] or '-'}",
                    "resumed" if cycle["resumed"] else "committed",
                )
            return cycle["kind"], cycle.get("outcome", "hit")

        return tally(classify(cycle) for cycle in self.cycles)

    def summary(self) -> dict:
        return {
            "total_cycles": len(self.cycles),
            "outcome_matrix": self.outcome_matrix(),
        }

    def render_lines(self) -> list[str]:
        """The outcome matrix under the campaign's headline counts."""
        lines = [
            f"elastic campaign: {len(self.episodes)} episodes, "
            f"{len(self.cycles)} membership cycles, "
            f"{len(self.violations)} violations",
        ]
        for key, row in self.outcome_matrix().items():
            counts = ", ".join(
                f"{outcome}={count}" for outcome, count in sorted(row.items())
            )
            lines.append(f"  {key:<32s} {counts}")
        return lines


# ----------------------------------------------------------------------
def _sample_survivable_failure(
    engine, alive: list[int], rng: np.random.Generator
) -> set[int]:
    """A random failed-rank set the oracle still calls recoverable.

    Draws a subset of the live ranks no larger than the current parity
    budget, shrinking until the independent oracle confirms an in-memory
    restore would succeed; empty when even a single loss is fatal.
    """
    max_fail = min(engine.config.m, len(alive))
    for count in range(int(rng.integers(1, max_fail + 1)), 0, -1):
        failed = {
            int(x) for x in rng.choice(alive, size=count, replace=False)
        }
        if predict(engine, failed).kind == "memory":
            return failed
    return set()


def _run_episode_impl(
    episode: int, config: ElasticConfig, clock: ManualClock
) -> ElasticEpisodeResult:
    rng = np.random.default_rng([config.seed, episode])
    result = ElasticEpisodeResult(episode=episode)
    job, engine = build_testbed(
        "eccheck", config.model, config.scale, config.seed * 7919 + episode
    )
    manager = CheckpointManager(job, engine, interval=1)
    pool = SparePool(
        size=int(rng.integers(0, 4)),
        median_delay_s=float(rng.uniform(60.0, 300.0)),
        sigma=0.5,
    )
    policy = RedundancyPolicy(
        repair_window_s=float(rng.choice([300.0, 900.0, 1800.0])),
        max_m=3,
    )
    controller = ElasticClusterController(
        manager,
        pool,
        policy=policy,
        redundancy_floor=config.redundancy_floor,
        rng=rng,
    )
    if clock.sampler is not None:
        # Probes only read controller/pool state; eager degraded-window
        # edges arrive through the manager's transition marks.
        clock.sampler.watch_tenant(
            "job",
            manager,
            {
                "degraded": lambda _t: 1.0 if manager.degraded else 0.0,
                "iteration": lambda _t: float(job.iteration),
            },
            t=0.0,
        )
    clock.watch(
        alive_ranks=lambda: len(controller.membership.alive),
        dead_ranks=lambda: len(controller.membership.dead),
        pool_remaining=lambda: pool.remaining,
        parity_m=lambda: engine.config.m,
    )
    commits = CommitLedger(manager)

    def judged(expectation, call, cycle: dict) -> bool:
        """Judge one recovery into ``cycle``; False once the job is down."""
        recovery = recover(commits, expectation, call, skip=_NOT_CHECKED)
        cycle["outcome"] = recovery.outcome
        if recovery.report is not None:
            cycle["version"] = recovery.report.version
        result.cycles.append(cycle)
        result.violations += recovery.violations
        return not recovery.fatal

    rounds = int(rng.integers(2, config.max_rounds + 1))
    for _ in range(rounds):
        # -- train + checkpoint (degraded saves audited) ----------------
        for _ in range(int(rng.integers(1, 4))):
            clock.spend(float(rng.uniform(20.0, 60.0)))
            if not controller.can_checkpoint:
                result.cycles.append({"kind": "blocked"})
                continue
            job.advance()
            manager.step()
            commits.drain()
            if controller.degraded:
                result.violations.extend(
                    check_degraded_recoverable(engine, engine.version)
                )

        # -- maybe crash a save mid-flight ------------------------------
        save_crash = None
        if (
            controller.can_checkpoint
            and engine.crash_points
            and rng.random() < P_SAVE_CRASH
        ):
            point = str(rng.choice(engine.crash_points))
            job.advance()
            plan = CrashPlan(point=point, after=int(rng.integers(0, 3)))
            if crash_next_save(engine, plan, manager.step):
                save_crash = point
                commits.torn.add(engine.version)
            else:
                commits.drain()

        # -- fail a survivable subset of live ranks ---------------------
        if commits.states and rng.random() < P_FAILURE:
            failed = _sample_survivable_failure(
                engine, controller.membership.alive, rng
            )
            if failed:
                clock.spend(float(rng.uniform(1.0, 10.0)))
                record_failure(failed)
                cycle = {
                    "kind": "failure",
                    "num_failed": len(failed),
                    "save_crash": save_crash,
                    "pool_remaining": pool.remaining,
                }
                if not judged(
                    predict(engine, failed),
                    lambda: controller.on_failure(failed, clock.t),
                    cycle,
                ):
                    break

        # -- admit provisioned spares, maybe crashing the repair --------
        clock.spend(float(rng.uniform(30.0, 400.0)))
        injector = None
        repair_crash = None
        if rng.random() < P_REPAIR_CRASH:
            repair_point = str(rng.choice(REPAIR_CRASH_POINTS))
            injector = CrashInjector(
                CrashPlan(point=repair_point, after=int(rng.integers(0, 6)))
            )
        dead_before = set(controller.membership.dead)
        try:
            joined = controller.poll_spares(
                clock.t, repair_crash_injector=injector
            )
        except InjectedCrash:
            repair_crash = injector.plan.point
            ledger = controller.repair_ledger
            result.violations.extend(
                check_repair_ledger(ledger, engine, ledger.version)
            )
            # The crashed join already took the rank; record it, then
            # resume the interrupted generation and drain the rest.
            for rank in sorted(dead_before - controller.membership.dead):
                result.cycles.append(
                    {
                        "kind": "join",
                        "rank": rank,
                        "repair_crash": repair_crash,
                        "resumed": True,
                    }
                )
            clock.spend(float(rng.uniform(5.0, 60.0)))
            controller.run_repair(clock.t)
            joined = controller.poll_spares(clock.t)
        for rank in joined:
            result.cycles.append(
                {
                    "kind": "join",
                    "rank": rank,
                    "repair_crash": None,
                    "resumed": False,
                }
            )

        # -- maybe consult the adaptive policy --------------------------
        if rng.random() < P_ADAPT:
            clock.spend(1.0)
            adopted = controller.maybe_adapt(clock.t)
            if adopted is not None:
                result.cycles.append(
                    {"kind": "adapt", "outcome": f"k{adopted[0]}m{adopted[1]}"}
                )

    # -- finalisation: every episode ends at full redundancy ------------
    while controller.membership.dead:
        # The pool ran dry (or arrivals are still in flight): model the
        # operator provisioning a machine by hand.
        clock.spend(float(rng.uniform(30.0, 200.0)))
        remaining = controller.poll_spares(clock.t)
        for rank in remaining:
            result.cycles.append(
                {"kind": "join", "rank": rank, "repair_crash": None,
                 "resumed": False}
            )
        if controller.membership.dead:
            rank = min(controller.membership.dead)
            controller.on_spare_join(rank, clock.t)
            result.cycles.append(
                {"kind": "join", "rank": rank, "repair_crash": None,
                 "resumed": False}
            )
    # At guaranteed full strength, give the adaptive policy one more
    # shot — an adopted (k, m) re-encodes the latest version, and the
    # final redundancy/restore checks below must still hold on it.
    if rng.random() < 0.5:
        clock.spend(1.0)
        adopted = controller.maybe_adapt(clock.t)
        if adopted is not None:
            result.cycles.append(
                {"kind": "adapt", "outcome": f"k{adopted[0]}m{adopted[1]}"}
            )
    if controller.repair_ledger is not None:
        result.violations.append(
            "episode ended with an uncommitted repair ledger: "
            f"{controller.repair_ledger.progress()}"
        )
    if commits.states and manager.degraded:
        result.violations.append(
            "episode ended with the degraded window still open"
        )
    expectation = predict(engine, set())
    if commits.states:
        if expectation.kind != "memory":
            result.violations.append(
                f"no in-memory version restorable at episode end "
                f"(oracle: {expectation.kind})"
            )
        else:
            result.violations.extend(
                f"final redundancy: {v}"
                for v in check_eccheck_redundancy(engine, expectation.version)
            )
            # A pure process restart must land on the oracle's version
            # with bit-exact worker states.
            judged(
                expectation,
                lambda: manager.on_failure(set()),
                {"kind": "final_restore"},
            )
    result.redundancy_ledger = list(manager.stats.redundancy_ledger)
    clock.close()
    if clock.sampler is not None:
        # Self-audit: the timeline's degraded-time integral over closed
        # windows must reconstruct the manager's ledger exactly.
        integrated = clock.sampler.tenants["job"].closed_integral_s
        ledger = sum(
            e["degraded_seconds"] for e in result.redundancy_ledger
        )
        tol = max(abs(ledger), abs(integrated)) * RECONCILE_REL_TOL + 1e-9
        if abs(ledger - integrated) > tol:
            result.violations.append(
                f"timeline degraded integral {integrated!r} != ledger "
                f"degraded_seconds {ledger!r} (tol {tol:g})"
            )
    return result


def run_elastic_episode(
    episode: int, config: ElasticConfig
) -> ElasticEpisodeResult:
    """One seeded elastic episode; traced when the config asks for it."""
    return observed_episode(
        lambda _tracer, sampler: _run_episode_impl(
            episode, config, ManualClock(sampler)
        ),
        config=config,
        trace=config.trace,
    )


def run_elastic_campaign(config: ElasticConfig | None = None) -> ElasticReport:
    """Run ``config.episodes`` elastic episodes."""
    config = config or ElasticConfig()
    episodes = [
        run_elastic_episode(episode, config)
        for episode in range(config.episodes)
    ]
    return ElasticReport(config=config, episodes=episodes)
