"""Workload definitions and the closed-loop generators that drive them.

Everything here talks to the system through its public API only
(``TrainingJob.create``, ``core.registry.build_engine``,
``CheckpointManager.step/on_failure``, ``engine.save_incremental`` /
``demote_version`` / ``evict_disk_version``, ``run_fleet_episode``) and
times calls from the outside.  ``job.advance()``, snapshots and every
verification run outside the timed regions.

Load model: closed loop, one client, one generator thread.  The
program's own encode threads are pinned to ``encode_threads=2``.

Every timed op is preceded by one tick of the *yardstick* (see
``slowdown``), and its wall time is divided by how slow the machine was
at that tick: the sandbox is a few cores of a shared host that changes
speed for tens of seconds at a time, by more than any bound this
benchmark could hold.  Both numbers are kept.
"""

from __future__ import annotations

import functools
import random
import statistics
import time
from dataclasses import dataclass, field

MODEL = "gpt2-h1024-L16"
NODES, GPUS_PER_NODE = 4, 2
TENSOR_PARALLEL, PIPELINE_PARALLEL = 2, 4
K, M = 2, 2
ENCODE_THREADS = 2
SAVES_PER_CYCLE = 4
#: The exact ratios are sampled after this many timed cycles (one full
#: pattern rotation), so they do not depend on how many cycles a run's
#: time budget allows.
EXACT_SAMPLE_CYCLE = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``why`` is copied into ``BENCHMARK.json``."""

    name: str
    kind: str  # "ckpt" or "fleet"
    scale: float
    incremental: bool = False
    dirty_tensor_fraction: float = 1.0
    fleet_jobs: int = 0
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ckpt_large", "ckpt", scale=2e-3,
            why="4x2 testbed at 7.0 MB state (1.4 MB packets): per-byte costs "
            "(gf mul_region encode, copies, digests, demotion) dominate a save",
        ),
        Workload(
            "ckpt_small", "ckpt", scale=5e-5,
            why="same shape at the fleet tenant size (2.1 MB state, 287 KB cache-resident "
            "packets): decompose, pipeline threads and simulate weigh most here",
        ),
        Workload(
            "ckpt_delta", "ckpt", scale=2e-3, incremental=True,
            dirty_tensor_fraction=0.1,
            why="ckpt_large shape through save_incremental at 10% dirty tensors: "
            "the same layers used as compare, XOR-delta and in-place parity update",
        ),
        Workload(
            "fleet_episode", "fleet", scale=5e-5, fleet_jobs=8,
            why="a pinned 8-tenant fleet episode with one recovery cycle, then a tenant "
            "drill in the same process: scheduler, event loop, elastic and oracle on "
            "top of tenant-sized saves",
        ),
    )
}

#: ``--smoke`` shrinks every workload to seconds (12 saves, 3 restores,
#: 4-job fleet) for ``test_perf_smoke.py``.
SMOKE_CYCLES = 3
SMOKE_FLEET_JOBS = 4
FLEET_WARMUP_JOBS = 4
#: What one 8-job episode costs on the builder's host.  The number of
#: episodes in a run is derived from ``--seconds`` with this constant,
#: not from the clock, so every run times the same episodes.
NOMINAL_EPISODE_S = 4.0
#: The fleet's composition is pinned.  ``FleetConfig.seed`` draws each
#: tenant's checkpoint interval (1-3) and length, and events / wall
#: follows that mix: over ten seeds it spread 24 % with nothing else
#: changing.  ``--seed`` feeds the tenant drill; the episodes are these.
FLEET_SEED = 0
#: The first timed episode: at ``FLEET_SEED`` the first in which a
#: domain failure hits a tenant (one recovery cycle).
FIRST_EPISODE = 2


#: What one yardstick tick costs on the builder's host while nothing else
#: runs beside it, so a corrected time reads as a wall time on a quiet host.
YARDSTICK_NOMINAL_S = 2.6e-3
#: Ticks in a burst, where one op is too long to sit between two ticks (a
#: fleet episode, set-up): the first few after seconds of other work run
#: on cold caches, and the median of fifteen does not see them.
BURST_TICKS = 15


@functools.cache
def _yardstick_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.permutation(256).astype(np.uint8), rng.integers(0, 256, 1 << 19, dtype=np.uint8)


def slowdown(ticks: int = 1) -> float:
    """How slow the machine is right now: yardstick time over its nominal time.

    The yardstick is a fixed piece of work that belongs to the benchmark
    and calls nothing of the program: half a 512 KiB table gather (memory
    bound, the shape of ``GF.mul_region``), half a bare interpreter loop.
    When a neighbour takes the other half of the core the gather slows by
    a fifth and the loop by two thirds; saves and restores are a mix of
    both kinds of code and slow by a third to a half.  With more than one
    tick the answer is their median.
    """
    table, indices = _yardstick_inputs()
    taken = []
    for _ in range(ticks):
        started = time.perf_counter()
        table[indices]
        total = 0
        for i in range(20_000):
            total += i ^ (i >> 3)
        taken.append(time.perf_counter() - started)
    return statistics.median(taken) / YARDSTICK_NOMINAL_S


def metric(value: float, unit: str, n: int) -> dict:
    """One reported number: every metric carries its unit and sample count."""
    return {"value": value, "unit": unit, "n": n}


def exact(values: list, name: str, problems: list[str]):
    """All shards/passes must agree bit-for-bit on an exact metric."""
    distinct = sorted(set(values))
    if len(distinct) != 1:
        problems.append(f"exact metric {name} differs between runs: {distinct}")
    return distinct[0] if distinct else None


def build_testbed(scale: float, seed: int):
    """The 4-node x 2-GPU, TP2/PP4, k=2/m=2 testbed (a fleet tenant's shape)."""
    from repro.checkpoint.job import TrainingJob
    from repro.core.eccheck import ECCheckConfig
    from repro.core.registry import build_engine
    from repro.parallel.strategy import ParallelismSpec
    from repro.parallel.topology import ClusterSpec

    job = TrainingJob.create(
        MODEL,
        ClusterSpec(NODES, GPUS_PER_NODE, nodes_per_rack=2),
        ParallelismSpec(
            tensor_parallel=TENSOR_PARALLEL, pipeline_parallel=PIPELINE_PARALLEL
        ),
        scale=scale,
        seed=seed,
    )
    engine = build_engine(
        "eccheck", job, ECCheckConfig(k=K, m=M, encode_threads=ENCODE_THREADS)
    )
    return job, engine


def failure_patterns(placement, seed: int) -> list[tuple[str, frozenset[int]]]:
    """<= m-node losses hitting both paper workflows, in seed-permuted order.

    ``parity1`` leaves every data chunk alive (workflow 1: P2P re-send +
    background re-encode); the other three lose data chunks (workflow 2:
    decode from any k survivors).
    """
    data, parity = placement.data_nodes, placement.parity_nodes
    patterns = [
        ("parity1", frozenset(parity[:1])),
        ("data1", frozenset(data[:1])),
        ("data2", frozenset(data[: min(len(data), len(parity))])),
        ("data1_parity1", frozenset(data[:1] + parity[:1])),
    ]
    random.Random(seed).shuffle(patterns)
    return patterns


def worker_tensor_bytes(job, worker: int) -> int:
    from repro.tensors.state_dict import total_tensor_bytes

    return total_tensor_bytes(job.state_of(worker))


@dataclass
class CkptSamples:
    """Per-op measurements of one checkpoint loop (JSON-serialisable).

    ``save_s`` and ``restore_s`` are corrected for the machine's speed at
    the op (wall time over ``slowdown()``); ``*_wall_s`` are as timed.
    Restores are kept per failure pattern, with the bytes one restore of
    that pattern brings back.
    """

    save_s: list[float] = field(default_factory=list)
    save_wall_s: list[float] = field(default_factory=list)
    save_traced: list[bool] = field(default_factory=list)
    restore_s: dict[str, list[float]] = field(default_factory=dict)
    restore_wall_s: dict[str, list[float]] = field(default_factory=dict)
    restore_bytes: dict[str, int] = field(default_factory=dict)
    slowdowns: list[float] = field(default_factory=list)
    full_saves: int = 0
    dirty_fractions: list[float] = field(default_factory=list)
    sim_save_s: list[float] = field(default_factory=list)
    sim_restore_s: dict[str, list[float]] = field(default_factory=dict)
    host_bytes_per_state_byte: float | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


class CkptLoop:
    """Closed-loop save/restore generator over one testbed.

    A *cycle* is ``SAVES_PER_CYCLE`` timed saves followed by one timed
    restore from the next failure pattern; four cycles are one rotation
    through the patterns.  Each op is wrapped in a benchmark root span
    (``op.save`` / ``op.restore``), which is free under the default
    no-op tracer and collects the in-situ spans in a traced pass.
    """

    def __init__(self, workload: Workload, seed: int):
        from repro.checkpoint.manager import CheckpointManager
        from repro.checkpoint.tiering import TierPolicy

        self.workload = workload
        self.job, self.engine = build_testbed(workload.scale, seed)
        self.tier_policy = TierPolicy(memory_versions=2, disk_versions=1)
        # The delta workload drives the engine directly (the manager has
        # no incremental path) and applies the same tier policy by hand.
        self.manager = None if workload.incremental else CheckpointManager(
            self.job, self.engine, interval=1, tier_policy=self.tier_policy
        )
        self.patterns = failure_patterns(self.engine.placement, seed)
        self.state_bytes = sum(
            worker_tensor_bytes(self.job, w) for w in range(self.job.world_size)
        )
        self.samples = CkptSamples()
        self.cycles_done = 0
        self.exact_sample_cycle = EXACT_SAMPLE_CYCLE
        self.ops = 0
        self.traced = False
        self._committed_version = 0

    # -- ops ------------------------------------------------------------
    def save(self, record: bool = True) -> None:
        from repro import obs
        from repro.errors import ReproError

        self.job.advance(dirty_tensor_fraction=self.workload.dirty_tensor_fraction)
        self.ops += 1
        samples = self.samples
        if record:
            samples.attempted += 1
        report = None
        slow = slowdown()
        started = time.perf_counter()
        try:
            with obs.get_tracer().span("op.save", op=self.ops):
                if self.manager is not None:
                    self.manager.step()
                    report = self.manager.stats.save_reports[-1]
                else:
                    report = self.engine.save_incremental()
                    self._retire_old_versions()
        except ReproError as exc:
            self._fail(record, f"save raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        if report is not None:
            self._committed_version = report.version
            if record:
                samples.save_s.append(elapsed / slow)
                samples.save_wall_s.append(elapsed)
                samples.slowdowns.append(slow)
                samples.save_traced.append(self.traced)
                samples.sim_save_s.append(report.checkpoint_time)
                dirty = report.breakdown.get("dirty_fraction")
                if dirty is None:
                    samples.full_saves += 1
                else:
                    samples.dirty_fractions.append(dirty)

    def _retire_old_versions(self) -> None:
        from repro.errors import CheckpointError

        engine = self.engine
        decision = self.tier_policy.decide(
            engine.memory_versions(),
            engine.disk_versions(),
            pinned=engine.delta_base_version(),
        )
        for version in decision.demote:
            try:
                engine.demote_version(version)
            except CheckpointError:
                pass  # torn by an earlier failure: not demotable, as in the manager
        for version in decision.evict:
            engine.evict_disk_version(version)

    def restore(self, pattern: int, record: bool = True) -> None:
        """Fail the pattern's nodes, time the recovery, verify bit-exactness."""
        from repro import obs
        from repro.errors import ReproError
        from repro.tensors.state_dict import state_dicts_equal

        name, failed = self.patterns[pattern % len(self.patterns)]
        failed = set(failed)
        job, samples = self.job, self.samples
        committed = job.snapshot_states()
        lost_bytes = sum(
            worker_tensor_bytes(job, w)
            for node in failed
            for w in job.cluster.workers_of(node)
        )
        job.advance()  # uncommitted work the failure destroys
        self.ops += 1
        if record:
            samples.attempted += 1
        report = None
        slow = slowdown()
        started = time.perf_counter()
        try:
            with obs.get_tracer().span("op.restore", op=self.ops, pattern=name):
                if self.manager is not None:
                    report = self.manager.on_failure(failed)
                else:
                    job.fail_nodes(failed)
                    report = self.engine.restore(failed)
                    self.engine.prune_memory_index()
        except ReproError as exc:
            self._fail(record, f"restore {name} raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - started
        if report is None:
            return
        if report.version != self._committed_version:
            self._fail(
                record,
                f"restore {name} landed on v{report.version}, "
                f"last committed is v{self._committed_version}",
            )
        elif not all(
            job.state_dicts.get(w) is not None
            and state_dicts_equal(job.state_dicts[w], committed[w])
            for w in committed
        ):
            self._fail(record, f"restore {name} is not bit-exact")
        elif record:
            samples.restore_s.setdefault(name, []).append(elapsed / slow)
            samples.restore_wall_s.setdefault(name, []).append(elapsed)
            samples.slowdowns.append(slow)
            samples.sim_restore_s.setdefault(name, []).append(report.recovery_time)
            samples.restore_bytes[name] = lost_bytes

    def _fail(self, record: bool, message: str) -> None:
        if record:
            self.samples.failed += 1
            self.samples.failures.append(message)
        else:
            raise RuntimeError(f"warm-up failed: {message}")

    # -- sequences ------------------------------------------------------
    def warm_up(self) -> None:
        """Five saves and one restore per pattern, unrecorded."""
        self.save(record=False)
        for pattern in range(len(self.patterns)):
            self.save(record=False)
            self.restore(pattern, record=False)

    def cycle(self) -> None:
        for _ in range(SAVES_PER_CYCLE):
            self.save()
        self.restore(self.cycles_done)
        self.cycles_done += 1
        if self.cycles_done == self.exact_sample_cycle:
            engine = self.engine
            self.samples.host_bytes_per_state_byte = (
                engine.host.total_bytes + engine.disk.total_bytes
            ) / self.state_bytes

    def run_for(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` elapsed and the exact sample is taken."""
        deadline = time.perf_counter() + seconds
        while (
            self.cycles_done < self.exact_sample_cycle
            or time.perf_counter() < deadline
        ):
            self.cycle()


def exact_ledger(samples: list[dict], problems: list[str]) -> tuple[dict, dict]:
    """The exact side of the ledger from one or more ``CkptSamples`` dicts.

    Returns ``(ledger, metrics)``: the ledger keeps one entry per failure
    pattern so two passes that saw different patterns compare on what they
    share; the metrics are what gets printed.  Delta saves and full
    fallbacks differ in simulated time, so the median names the common one.
    """
    saves = sum(len(s["sim_save_s"]) for s in samples)
    restores = sum(len(v) for s in samples for v in s["sim_restore_s"].values())
    ledger = {
        "sim_save_s": exact(
            [statistics.median(s["sim_save_s"]) for s in samples], "sim_save_s", problems
        )
    }
    for pattern in sorted({p for s in samples for p in s["sim_restore_s"]}):
        key = f"sim_restore_s[{pattern}]"
        ledger[key] = exact(
            [v for s in samples for v in s["sim_restore_s"].get(pattern, [])], key, problems
        )
    metrics = {
        "sim_save_s": metric(ledger["sim_save_s"], "sim_s", saves),
        "sim_restore_s": metric(
            statistics.fmean(v for k, v in ledger.items() if k != "sim_save_s"),
            "sim_s", restores,
        ),
    }
    held = [s["host_bytes_per_state_byte"] for s in samples]
    if None not in held:
        ledger["host_bytes_per_state_byte"] = exact(
            held, "host_bytes_per_state_byte", problems
        )
        metrics["host_bytes_per_state_byte"] = metric(
            ledger["host_bytes_per_state_byte"], "ratio", len(samples)
        )
    return ledger, metrics


# ----------------------------------------------------------------------
# Fleet episodes
# ----------------------------------------------------------------------
def episodes_for(seconds: float, smoke: bool) -> int:
    return 1 if smoke else max(1, int(seconds / NOMINAL_EPISODE_S))


def run_episode(episode: int, jobs: int) -> dict:
    """One timed ``run_fleet_episode``; returns its time + the exact counts.

    An episode is one call, so a burst of the yardstick runs before and after it.
    """
    from repro import obs
    from repro.fleet.campaign import FleetConfig, run_fleet_episode

    config = FleetConfig(jobs=jobs, seed=FLEET_SEED)
    slow = slowdown(BURST_TICKS)
    started = time.perf_counter()
    with obs.get_tracer().span("op.episode", op=episode, jobs=jobs):
        result = run_fleet_episode(episode, config)
    wall = time.perf_counter() - started
    slow = (slow + slowdown(BURST_TICKS)) / 2
    return {
        "episode": episode,
        "s": wall / slow,
        "wall_s": wall,
        "slowdown": slow,
        "events": result.events_processed,
        "sim_seconds": result.sim_seconds,
        "recovery_cycles": sum(
            1 for c in result.cycles if c.get("kind") == "tenant_failure"
        ),
        "tenants": len(result.tenants),
        "checkpoints": sum(t.get("checkpoints", 0) for t in result.tenants),
        "violations": list(result.violations),
    }


def episode_failures(episodes: list[dict]) -> list[str]:
    """One message per episode the fleet oracle flagged."""
    return [
        f"episode {e['episode']}: {e['violations'][:3]}"
        for e in episodes
        if e["violations"]
    ]


def set_up(workload: Workload, seed: int, smoke: bool) -> tuple[CkptLoop, int]:
    """Everything before the first timed op: warm-up episode (fleet only),
    testbed, five warm-up saves and one restore per failure pattern.

    Returns the warmed-up loop and the fleet job count (0 for ``ckpt``).
    """
    jobs = 0
    if workload.kind == "fleet":
        jobs = SMOKE_FLEET_JOBS if smoke else workload.fleet_jobs
        violated = episode_failures([run_episode(0, min(jobs, FLEET_WARMUP_JOBS))])
        if violated:
            raise RuntimeError(f"warm-up {violated[0]}")
    loop = CkptLoop(workload, seed)
    if smoke:
        loop.exact_sample_cycle = SMOKE_CYCLES
    loop.warm_up()
    return loop, jobs
