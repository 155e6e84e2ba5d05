"""The campaign kernel: what every seeded campaign is, written once.

Five scenarios (chaos, tier, elastic, hybrid, fleet) script different
adversity, but each builds a testbed, commits checkpoints while
remembering what every version captured, injects faults, asks the
independent oracle what a correct engine must do *before* the restore
wipes the evidence, recovers, judges, and serializes a report.  This
module owns those shared parts; a scenario keeps its script — the order
of its rng draws and injections, which *is* the scenario — plus its own
cycle fields, checks and aggregates.  DESIGN.md ("Campaign harness")
has the report schema and the judge's check list.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro import obs
from repro.chaos import invariants
from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.checkpoint.job import TrainingJob
from repro.core.eccheck import ECCheckConfig
from repro.core.integrity import corrupt_buffer
from repro.core.registry import build_engine
from repro.errors import RecoveryError
from repro.obs.alerts import AlertEngine
from repro.obs.timeseries import TimeSeriesSampler, use_sampler
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec


# -- Reports -----------------------------------------------------------
@dataclass
class EpisodeRecord:
    """One episode: its cycles, its violations, its optional telemetry.

    Scenarios subclass this with their own sections; every field
    serializes under its own name and a field left at ``None`` is
    omitted, so a ``trace``/``timeline`` run differs from a plain one
    only by the sections it adds.
    """

    episode: int
    engine: str | None = None
    cycles: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    trace_summary: dict | None = None
    timeline: dict | None = None

    def to_dict(self) -> dict:
        pairs = ((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))
        return {name: value for name, value in pairs if value is not None}


@dataclass
class CampaignReport:
    """All episodes of one campaign; the one serializer of its report.

    A scenario's subclass supplies ``summary()`` (its aggregates, merged
    into the top level) and ``render_lines()``; its config names what it
    serializes in a ``REPORTED`` tuple — never the timeline switches, so
    a ``timeline`` run differs from a plain one only in those sections.
    """

    config: object
    episodes: list

    #: Whether violations are labelled with the episode's engine.
    by_engine: ClassVar[bool] = False

    @property
    def violations(self) -> list[str]:
        return [
            f"episode {e.episode}{f' ({e.engine})' if self.by_engine else ''}: {v}"
            for e in self.episodes
            for v in e.violations
        ]

    @property
    def cycles(self) -> list[dict]:
        return [c for e in self.episodes for c in e.cycles]

    def wall_clock_sections(self) -> dict:
        """Non-deterministic sections, emitted only beside provenance."""
        return {}

    def to_dict(self) -> dict:
        """Plain-data form, deliberately provenance- and wall-clock-free
        so same-seed campaigns compare equal; :meth:`to_json` stamps."""
        reported = {name: getattr(self.config, name) for name in self.config.REPORTED}
        return {
            "config": {
                name: list(value) if isinstance(value, tuple) else value
                for name, value in reported.items()
            },
            **self.summary(),
            "violations": self.violations,
            "episodes": [e.to_dict() for e in self.episodes],
        }

    def to_json(self, provenance: bool = True) -> str:
        """``provenance=False`` omits the stamp (git SHA, timestamp,
        hostname) and wall clocks, for byte-stable comparisons."""
        payload = self.to_dict()
        if provenance:
            payload["provenance"] = obs.provenance_stamp()
            payload.update(self.wall_clock_sections())
        return json.dumps(payload, indent=2, sort_keys=True)

    def render(self) -> str:
        """ASCII summary: the scenario's tables, then every violation."""
        return "\n".join(
            self.render_lines() + [f"VIOLATION: {v}" for v in self.violations]
        )


# -- Testbed and telemetry ---------------------------------------------
#: The standard testbed: 4 nodes x 2 GPUs in two racks, run TP=2 / PP=4
#: under a (k=2, m=2) code.
TESTBED_CLUSTER = ClusterSpec(num_nodes=4, gpus_per_node=2, nodes_per_rack=2)


def build_testbed(engine: str, model: str, scale: float, seed: int):
    """A fresh ``(job, engine)`` pair on the standard testbed
    (:class:`~repro.errors.CheckpointError` for an unregistered engine)."""
    job = TrainingJob.create(
        model=model,
        cluster=TESTBED_CLUSTER,
        strategy=ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=scale,
        seed=seed,
    )
    config = ECCheckConfig(k=2, m=2, encode_threads=2)
    return job, build_engine(engine, job, config)


def observed_episode(body, *, config, trace: bool, alert_rules=None):
    """Run ``body(tracer, sampler)`` under the telemetry the run asks for.

    ``trace`` installs a collecting tracer (the rng stream is untouched,
    so traced and untraced runs make identical draws) whose digest
    becomes ``trace_summary``; ``config.timeline`` builds a sampler —
    installed, so the manager's degraded-window edges land at their
    exact sim time — whose timeline is attached once ``body`` has
    finalized it.  ``body`` gets ``None`` for an instrument that is off.
    """
    sampler = None
    if config.timeline:
        sampler = TimeSeriesSampler(
            period_s=config.timeline_period_s,
            alert_engine=AlertEngine(alert_rules) if alert_rules else None,
        )
    with contextlib.ExitStack() as stack:
        tracer = stack.enter_context(obs.use_tracer()) if trace else None
        if sampler is not None:
            stack.enter_context(use_sampler(sampler))
        result = body(tracer, sampler)
    if trace:
        result.trace_summary = obs.summarize(tracer)
    if sampler is not None:
        result.timeline = sampler.timeline_dict()
    return result


# -- Commit ledger and fault injection ---------------------------------
class CommitLedger:
    """What every committed version captured, and which versions tore.

    :meth:`drain` must run right after the committing step, before
    training advances, so each snapshot equals the bytes the save
    captured.  ``window`` bounds the retained versions (oldest dropped
    first); ``backups=False`` ignores remote-backup versions;
    ``snapshots=False`` keeps only each version's iteration, for a
    scenario that snapshots every iteration itself.
    """

    def __init__(self, manager, window=None, backups=True, snapshots=True):
        self.manager = manager
        self.window, self.backups, self.snapshots = window, backups, snapshots
        self.states: dict[int, dict] = {}
        self.iteration: dict[int, int] = {}
        self.torn: set[int] = set()
        self._newest = 0  # versions only ever grow

    def drain(self) -> list:
        """Record the versions committed since the last call; returns
        their reports (saves first, then backups)."""
        stats = self.manager.stats
        reports = stats.save_reports + (stats.backup_reports if self.backups else [])
        fresh = [r for r in reports if r.version > self._newest]
        for report in fresh:
            version = report.version
            self._newest = max(self._newest, version)
            self.iteration[version] = self.manager.iteration_of_version(version)
            if self.snapshots:
                self.states[version] = self.manager.job.snapshot_states()
        while self.window is not None and len(self.iteration) > self.window:
            oldest = min(self.iteration)
            del self.iteration[oldest]
            self.states.pop(oldest, None)
        return fresh


def crash_next_save(engine, plan: CrashPlan, step: Callable[[], object]) -> bool:
    """Arm ``plan`` on ``engine``, run ``step()``, always disarm.

    True iff the planned crash fired (``engine.version`` is then torn).
    False means the planned hit count exceeded the point's actual hits
    (``after=2`` on a once-per-save point): the save completed normally.
    """
    injector = engine.crash_injector = CrashInjector(plan)
    try:
        step()
    except InjectedCrash:
        return True
    finally:
        engine.crash_injector = None
    assert not injector.fired
    return False


def corrupt_stored_payload(store, num_nodes, pick, mask, kinds=("chunk",)):
    """Flip bits in one stored payload (silent rot); describes the victim
    and records it as a ``corruption`` event.

    ``pick(n)`` chooses an index below ``n`` — first among the
    ``repr``-sorted keys whose family is in ``kinds``, then among the
    victim's bytes — and ``mask()`` is asked last, so a scenario's draw
    order is payload, byte, mask.  Nothing is drawn (and None returned)
    when the store holds no candidate.
    """
    candidates = [
        (node, key)
        for node in range(num_nodes)
        for key in store.keys(node)
        if isinstance(key, tuple) and key[0] in kinds
    ]
    if not candidates:
        return None
    candidates.sort(key=repr)
    node, key = candidates[pick(len(candidates))]
    payload = store.get(node, key)
    corrupt_buffer(payload, byte_index=pick(payload.size), mask=mask())
    where = f"node {node} {key}"
    obs.event("corruption", where=where)
    return where


def record_failure(failed, **fields) -> None:
    """Record the machine failure a scenario injects (its one record)."""
    obs.event("failure", ranks=sorted(failed), **fields)


# -- The recovery judge ------------------------------------------------
#: Observed outcomes: the oracle's own four, plus ``"engine_error"`` for
#: an exception that is neither a clean refusal nor a recovery.
OUTCOMES = ("memory", "disk", "backup", "refused", "engine_error")

#: Post-recovery checks a scenario may name in ``skip``.
CHECKS = ("committed", "resume", "redundancy", "lost")


@dataclass(frozen=True)
class Expectation:
    """What a correct engine must do for one failure, per the oracle.

    ``kind`` is ``"memory"``, ``"disk"``, ``"backup"`` or ``"refused"``;
    ``version`` the checkpoint the restore must land on (None when
    refusing is correct), ``replayed`` the log entries it must re-apply
    on top, ``resume_iteration`` the iteration the recovered state must
    correspond to (None: the version's own).  ``failed`` is the failure
    set predicted for, so violation messages are self-describing.
    """

    kind: str
    version: int | None
    failed: tuple[int, ...] = ()
    replayed: int = 0
    resume_iteration: int | None = None

    @property
    def recoverable(self) -> bool:
        return self.kind != "refused"


def predict(engine, failed_nodes: set[int]) -> Expectation:
    """Ask the replay-aware oracle — before the restore, which wipes the
    failed nodes' stores the oracle reads."""
    pred = invariants.expected_recovery(engine, set(failed_nodes))
    return Expectation(
        kind=pred["outcome"],
        version=pred["version"],
        failed=tuple(sorted(failed_nodes)),
        replayed=pred["replayed"],
        resume_iteration=pred["resume_iteration"],
    )


def judge(
    expectation: Expectation,
    outcome: str,
    version: int | None = None,
    context: str = "",
    replayed: int = 0,
    resumed_at: int | None = None,
) -> list[str]:
    """Violations of an observed recovery against the oracle's prediction.

    Disagreement in *either* direction is a finding.  ``version``,
    ``replayed`` and ``resumed_at`` describe what the engine did;
    ``resumed_at`` is compared only when it and the expectation's
    ``resume_iteration`` are both known.  ``context`` prefixes messages.
    """
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    prefix = f"{context}: " if context else ""
    failed = list(expectation.failed)
    want = f"v{expectation.version} from {expectation.kind}"
    if outcome == "engine_error":
        doing = f"restoring {want}" if expectation.recoverable else "refusing"
        return [f"{prefix}recovery raised instead of {doing} (failed={failed})"]
    if outcome == "refused":
        if not expectation.recoverable:
            return []
        return [
            f"{prefix}refused recovery although {want} was recoverable "
            f"(failed={failed})"
        ]
    if not expectation.recoverable:
        return [
            f"{prefix}recovered v{version} from {outcome} although the "
            f"oracle proves nothing was recoverable (failed={failed})"
        ]
    violations = []
    if outcome != expectation.kind:
        violations.append(
            f"{prefix}recovered from {outcome}, oracle expected "
            f"{expectation.kind} (failed={failed})"
        )
    if version != expectation.version:
        violations.append(
            f"{prefix}restored v{version}, oracle expected "
            f"v{expectation.version} (failed={failed})"
        )
    if replayed != expectation.replayed:
        violations.append(
            f"{prefix}replayed {replayed} log entries, oracle expected "
            f"{expectation.replayed} (v{version}, failed={failed})"
        )
    expected_resume = expectation.resume_iteration
    if None not in (resumed_at, expected_resume) and resumed_at != expected_resume:
        violations.append(
            f"{prefix}job resumed at iteration {resumed_at}, expected "
            f"{expected_resume} (v{version}, replayed={replayed})"
        )
    return violations


@dataclass
class Recovery:
    """What one judged recovery did and every violation it produced."""

    outcome: str
    report: object | None = None
    error: Exception | None = None
    violations: list[str] = field(default_factory=list)
    #: The episode cannot go on: the job is down (refused, engine error)
    #: or the engine "restored" what the oracle proves unrecoverable.
    fatal: bool = False


def recover(ledger, expectation, call, skip=(), states_at=None) -> Recovery:
    """Run ``call()`` (the restore) and judge it against ``expectation``.

    A :class:`~repro.errors.RecoveryError` is a refusal; any other
    exception is an ``engine_error`` (a leak is a finding, not a crash
    of the campaign).  A recovery the oracle agrees was possible then
    gets the torn-version check and every post-recovery check of
    :data:`CHECKS` not named in ``skip``, against ``ledger``'s evidence.
    ``states_at(iteration)`` supplies the reference bytes for a scenario
    that snapshots every iteration (replay resumes between checkpoints);
    by default the ledger's per-version snapshot is the reference.

    Raises:
        ValueError: without an expectation (the oracle has to look
            before the restore), or for a check name not in CHECKS.
    """
    if expectation is None:
        raise ValueError("recover() needs the pre-restore prediction")
    if set(skip) - set(CHECKS):
        raise ValueError(f"unknown checks in {skip!r}; known: {CHECKS}")
    manager = ledger.manager
    job, stats = manager.job, manager.stats
    at_iteration, lost_before = job.iteration, stats.iterations_lost
    try:
        report = call()
    except RecoveryError as exc:
        return _down("refused", exc, expectation)
    except Exception as exc:  # noqa: BLE001 — any leak is a finding
        return _down("engine_error", exc, expectation)
    outcome = "backup" if report.tier == "remote" else report.tier
    version = report.version
    resume = expectation.resume_iteration
    if resume is None:
        resume = ledger.iteration.get(version)
    found = judge(
        dataclasses.replace(expectation, resume_iteration=resume),
        outcome,
        version,
        replayed=report.replayed_iterations,
        resumed_at=None if "resume" in skip else job.iteration,
    )
    fatal = not expectation.recoverable
    recovery = Recovery(outcome, report, violations=found, fatal=fatal)
    if fatal:
        return recovery
    if version in ledger.torn:
        found.append(f"restored torn version v{version}")
    if resume is None:
        if "committed" not in skip:
            found.append(
                f"restored v{version}, a version no completed save "
                f"ever committed"
            )
        return recovery
    reference = states_at(resume) if states_at else ledger.states.get(version)
    if reference is None:
        found.append(
            f"no recorded training state for v{version} "
            f"(resume iteration {resume})"
        )
    else:
        found += invariants.check_restored_states(job, reference)
    if "redundancy" not in skip:
        found += invariants.check_redundancy(
            manager.engine, version, from_backup=outcome == "backup"
        )
    expected_lost = max(0, at_iteration - resume)
    actual_lost = stats.iterations_lost - lost_before
    if "lost" not in skip and actual_lost != expected_lost:
        found.append(
            f"iterations_lost accounted {actual_lost}, expected "
            f"{expected_lost} (at={at_iteration}, restored v{version} "
            f"@ {resume})"
        )
    return recovery


def _down(outcome: str, exc: Exception, expectation: Expectation) -> Recovery:
    found = [
        f"{v}: {type(exc).__name__}: {exc}" for v in judge(expectation, outcome)
    ]
    # The Recovery keeps the exception, not its tracebacks: their frames
    # reach back to the episode's frame, which holds the Recovery, and
    # that cycle would keep the episode's whole testbed alive until the
    # cyclic collector runs.
    chained: BaseException | None = exc
    while chained is not None and chained.__traceback__ is not None:
        chained.__traceback__ = None
        chained = chained.__cause__ or chained.__context__
    return Recovery(outcome, error=exc, violations=found, fatal=True)
