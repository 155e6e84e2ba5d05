"""One experiment driver per paper table/figure.

Every driver returns an :class:`~repro.bench.harness.ExperimentTable` whose
rows mirror what the paper plots; the ``benchmarks/`` pytest targets print
the tables and assert the qualitative shapes (who wins, by roughly what
factor, where crossovers fall).
"""

from __future__ import annotations

import time as _time

import numpy as np

from repro.analysis.breakdown import serialization_fraction
from repro.analysis.overhead import communication_volume
from repro.analysis.recovery_rate import (
    cluster_recovery_rate,
    erasure_recovery_rate,
    replication_recovery_rate,
)
from repro.bench.harness import (
    ENGINES,
    PAPER_CONFIG,
    ExperimentTable,
    all_engines,
    make_testbed_job,
)
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.registry import build_engine
from repro.core.scheduler import profile_idle_slots, schedule_checkpoint_comm
from repro.models.config import CheckpointSizeModel, get_model_config, table1_configs
from repro.sim.network import TimeModel, gbps
from repro.sim.timeline import pipeline_schedule_timeline

FIG10_MODELS = [cfg.name for cfg in table1_configs()]


# ---------------------------------------------------------------------------
# Fig. 3 — recovery rate, 2000-node cluster (500 groups of 4)
# ---------------------------------------------------------------------------
def fig3_recovery_rate(
    failure_probs: tuple[float, ...] = (0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10),
    num_groups: int = 500,
) -> ExperimentTable:
    table = ExperimentTable(
        "Fig. 3 — cluster recovery rate (2000 nodes, 500 groups of 4)",
        ["p", "replication", "erasure_coding"],
    )
    for p in failure_probs:
        table.add_row(
            p=p,
            replication=cluster_recovery_rate(
                replication_recovery_rate(p, n=4, group_size=2), num_groups
            ),
            erasure_coding=cluster_recovery_rate(
                erasure_recovery_rate(p, n=4, m=2), num_groups
            ),
        )
    return table


# ---------------------------------------------------------------------------
# Fig. 4 — serialization overhead vs remote bandwidth (GPT-2 on 4 GPUs)
# ---------------------------------------------------------------------------
def fig4_serialization_overhead(
    models: tuple[str, ...] = ("gpt2-1.6B",),
    bandwidth_gbps: tuple[float, ...] = (1.0, 2.5, 5.0, 10.0, 20.0),
) -> ExperimentTable:
    table = ExperimentTable(
        "Fig. 4 — serialization share of remote checkpointing time",
        ["model", "remote_gbps", "serialize_s", "transfer_s", "serialize_fraction"],
    )
    size_model = CheckpointSizeModel()
    for name in models:
        nbytes = size_model.checkpoint_bytes(get_model_config(name))
        for bw in bandwidth_gbps:
            serialize, transfer, fraction = serialization_fraction(
                nbytes, bw, workers=4
            )
            table.add_row(
                model=name,
                remote_gbps=bw,
                serialize_s=serialize,
                transfer_s=transfer,
                serialize_fraction=fraction,
            )
    return table


# ---------------------------------------------------------------------------
# Table I — model configurations
# ---------------------------------------------------------------------------
def table1_model_configs() -> ExperimentTable:
    table = ExperimentTable(
        "Table I — model configurations",
        ["model", "hidden", "heads", "layers", "params_B", "checkpoint_GiB"],
    )
    size_model = CheckpointSizeModel()
    for cfg in table1_configs():
        table.add_row(
            model=cfg.name,
            hidden=cfg.hidden_size,
            heads=cfg.num_attention_heads,
            layers=cfg.num_layers,
            params_B=cfg.parameter_count() / 1e9,
            checkpoint_GiB=size_model.checkpoint_bytes(cfg) / 2**30,
        )
    return table


# ---------------------------------------------------------------------------
# Fig. 10 — checkpointing time across models and engines
# ---------------------------------------------------------------------------
def fig10_checkpoint_time(
    models: tuple[str, ...] = tuple(FIG10_MODELS),
) -> ExperimentTable:
    table = ExperimentTable(
        "Fig. 10 — checkpointing time (s), 4 nodes x 4 GPUs",
        ["model"] + list(ENGINES),
    )
    for name in models:
        job = make_testbed_job(model=name)
        times = {
            engine_name: engine.save().checkpoint_time
            for engine_name, engine in all_engines(job).items()
        }
        table.add_row(model=name, **times)
    return table


# ---------------------------------------------------------------------------
# Fig. 11 — ECCheck time breakdown
# ---------------------------------------------------------------------------
def fig11_time_breakdown(
    models: tuple[str, ...] = ("gpt2-1.6B", "gpt2-5.3B", "gpt2-20B"),
) -> ExperimentTable:
    table = ExperimentTable(
        "Fig. 11 — ECCheck checkpointing time breakdown (s)",
        ["model", "step1_dtoh", "step2_broadcast", "step3_async_pipeline", "total"],
    )
    for name in models:
        job = make_testbed_job(model=name)
        report = ECCheckEngine(job, ECCheckConfig(k=2, m=2)).save()
        table.add_row(
            model=name,
            step1_dtoh=report.breakdown["step1_decompose_dtoh"],
            step2_broadcast=report.breakdown["step2_metadata_broadcast"],
            step3_async_pipeline=report.breakdown["step3_encode_xor_p2p"],
            total=report.checkpoint_time,
        )
    return table


# ---------------------------------------------------------------------------
# Fig. 12 — average iteration time vs checkpoint frequency (GPT-2 5.3B)
# ---------------------------------------------------------------------------
def fig12_iteration_overhead(
    model: str = "gpt2-5.3B",
    intervals: tuple[int, ...] = (64, 32, 16, 8, 4),
    microbatches: int = 8,
    forward_time: float = 0.35,
    activation_bytes: float = 200e6,
) -> ExperimentTable:
    """Average iteration time per engine at each checkpoint interval.

    Modelled per engine:

    * base1 blocks training for its whole checkpoint time;
    * base2 blocks only for the snapshot, but a new checkpoint cannot start
      before the previous persist finished, so high frequency stalls;
    * base3/ECCheck stall for the snapshot and schedule their inter-node
      traffic into profiled idle slots; only overflow inflates iterations.
    """
    job = make_testbed_job(model=model)
    tm = job.time_model
    timeline = pipeline_schedule_timeline(
        stages=job.cluster.num_nodes,
        microbatches=microbatches,
        forward_time=forward_time,
        activation_bytes=activation_bytes,
        time_model=tm,
    )
    profile = profile_idle_slots(timeline)
    iter_time = timeline.iteration_time
    engines = all_engines(job)
    reports = {name: engine.save() for name, engine in engines.items()}

    # Per-stage checkpoint NIC seconds for the in-memory engines.
    def comm_seconds(report):
        per_node_bytes = report.bytes_inter_node / job.cluster.num_nodes
        return {
            stage: per_node_bytes / gbps(tm.inter_node_gbps)
            for stage in range(job.cluster.num_nodes)
        }

    table = ExperimentTable(
        f"Fig. 12 — avg iteration time (s) vs checkpoint interval, {model} "
        f"(baseline iteration {iter_time:.3f}s)",
        ["interval_iters"] + list(ENGINES),
    )
    for interval in intervals:
        row = {}
        budget = interval * iter_time
        for name, report in reports.items():
            if name == "base1":
                added = report.checkpoint_time / interval
            elif name == "base2":
                backlog = max(0.0, report.checkpoint_time - budget)
                added = (report.stall_time + backlog) / interval
            else:
                outcome = schedule_checkpoint_comm(
                    profile, comm_seconds(report), interval
                )
                added = (
                    report.stall_time + outcome.overflow_seconds
                ) / interval
            row[name] = iter_time + added
        table.add_row(interval_iters=interval, **row)
    return table


# ---------------------------------------------------------------------------
# Fig. 13 — recovery time, two failure scenarios
# ---------------------------------------------------------------------------
def fig13_recovery_time(
    models: tuple[str, ...] = ("gpt2-1.6B", "gpt2-5.3B"),
) -> ExperimentTable:
    """Scenario (a): parity nodes 1 and 3 fail (all data nodes survive).
    Scenario (b): nodes 2 and 3 fail (a data node is lost); base3's group
    {2, 3} is wiped, so it cannot recover in-memory."""
    table = ExperimentTable(
        "Fig. 13 — recovery time (s)",
        ["model", "scenario"] + list(ENGINES),
    )
    for name in models:
        for scenario, failed in (("a", {1, 3}), ("b", {2, 3})):
            row: dict[str, object] = {}
            for engine_name in ENGINES:
                job = make_testbed_job(model=name)
                engine = build_engine(engine_name, job, PAPER_CONFIG)
                engine.save()
                job.fail_nodes(failed)
                try:
                    row[engine_name] = engine.restore(failed).recovery_time
                except Exception:
                    row[engine_name] = float("inf")  # unrecoverable in-memory
            table.add_row(model=name, scenario=scenario, **row)
    return table


# ---------------------------------------------------------------------------
# Fig. 14 — scalability: checkpoint time vs GPU count (4 -> 32 GPUs)
# ---------------------------------------------------------------------------
def fig14_scalability(
    gpu_counts: tuple[int, ...] = (4, 8, 16, 32),
    scale_nic_with_gpus: bool = False,
) -> ExperimentTable:
    """n = 4 nodes fixed (k = m = 2); GPUs per node grows; the model's
    layer count grows with the GPU count so per-GPU state stays constant
    (hidden size 1024, layers 16 -> 128), exactly the paper's setup.

    With ``scale_nic_with_gpus`` the per-node NIC bandwidth grows with the
    GPU count (one NIC per GPU, the DGX-style fabric): the in-memory
    engines' constant per-device traffic then yields genuinely flat
    checkpoint time.  With a fixed per-node NIC, per-node traffic
    (``m * s * g``) grows with g and the curves tilt mildly.
    """
    suffix = ", per-GPU NICs" if scale_nic_with_gpus else ""
    table = ExperimentTable(
        f"Fig. 14 — checkpointing time (s) vs total GPUs{suffix}",
        ["gpus", "model"] + list(ENGINES),
    )
    for gpus in gpu_counts:
        per_node = gpus // 4
        layers = 4 * gpus
        model = f"gpt2-h1024-L{layers}"
        time_model = TimeModel(
            inter_node_gbps=100.0 * (per_node if scale_nic_with_gpus else 1)
        )
        job = make_testbed_job(
            model=model,
            num_nodes=4,
            gpus_per_node=per_node,
            tensor_parallel=per_node,
            pipeline_parallel=4,
            time_model=time_model,
        )
        times = {
            name: engine.save().checkpoint_time
            for name, engine in all_engines(job).items()
        }
        table.add_row(gpus=gpus, model=model, **times)
    return table


# ---------------------------------------------------------------------------
# Fig. 15 — fault tolerance capacity at equal redundancy (k = m = n/2)
# ---------------------------------------------------------------------------
def fig15_fault_tolerance(
    node_counts: tuple[int, ...] = (4, 8, 16, 32),
    failure_probs: tuple[float, ...] = (0.05, 0.10, 0.20),
) -> ExperimentTable:
    table = ExperimentTable(
        "Fig. 15 — recovery rate at identical redundancy (k = m = n/2)",
        ["nodes", "p", "base3", "eccheck"],
    )
    for n in node_counts:
        for p in failure_probs:
            table.add_row(
                nodes=n,
                p=p,
                base3=replication_recovery_rate(p, n=n, group_size=2),
                eccheck=erasure_recovery_rate(p, n=n, m=n // 2),
            )
    return table


# ---------------------------------------------------------------------------
# Sec. V-F — per-device communication volume stays constant
# ---------------------------------------------------------------------------
def comm_volume_scaling(
    node_counts: tuple[int, ...] = (4, 8, 16, 32),
    m: int = 2,
    shard_bytes: int = 6 * 2**30,
) -> ExperimentTable:
    """Per-device volume is ``m * s``: constant as the cluster grows
    (with the fault-tolerance level ``m`` held fixed)."""
    table = ExperimentTable(
        "Sec. V-F — ECCheck communication volume vs cluster size (m fixed)",
        ["nodes", "world", "total_GiB", "per_device_GiB"],
    )
    for n in node_counts:
        k = n - m
        gpus_per_node = k  # keeps the world size divisible by k
        vol = communication_volume(n, gpus_per_node, k, m, shard_bytes)
        world = n * gpus_per_node
        table.add_row(
            nodes=n,
            world=world,
            total_GiB=vol.total / 2**30,
            per_device_GiB=vol.total / world / 2**30,
        )
    return table


# ---------------------------------------------------------------------------
# Ablations of the paper's design choices
# ---------------------------------------------------------------------------
def ablation_placement() -> ExperimentTable:
    """Sweep-line node selection vs naive 'first k nodes are data nodes'."""
    table = ExperimentTable(
        "Ablation — data/parity node selection",
        ["placement", "inter_node_bytes", "comm_s", "checkpoint_time_s"],
    )
    for label, sweepline in (("sweepline", True), ("naive", False)):
        job = make_testbed_job(model="gpt2-1.6B", num_nodes=3, gpus_per_node=2,
                               tensor_parallel=2, pipeline_parallel=3)
        engine = ECCheckEngine(
            job, ECCheckConfig(k=2, m=1, use_sweepline_placement=sweepline)
        )
        report = engine.save()
        table.add_row(
            placement=label,
            inter_node_bytes=report.bytes_inter_node,
            comm_s=report.breakdown["step3_comm"],
            checkpoint_time_s=report.checkpoint_time,
        )
    return table


def ablation_pipelining() -> ExperimentTable:
    """Pipelined vs sequential encode/XOR/P2P execution."""
    table = ExperimentTable(
        "Ablation — pipelined step-3 execution",
        ["pipelining", "step3_s", "checkpoint_time_s"],
    )
    for label, pipelined in (("on", True), ("off", False)):
        job = make_testbed_job(model="gpt2-5.3B")
        engine = ECCheckEngine(
            job, ECCheckConfig(k=2, m=2, use_pipelining=pipelined)
        )
        report = engine.save()
        table.add_row(
            pipelining=label,
            step3_s=report.breakdown["step3_encode_xor_p2p"],
            checkpoint_time_s=report.checkpoint_time,
        )
    return table


def ablation_xor_schedule() -> ExperimentTable:
    """Smart (derivation-reuse) vs dumb XOR schedule compilation."""
    from repro.ec.base import CodeParams
    from repro.ec.cauchy import CauchyRSCode
    from repro.ec.schedule import dumb_schedule, smart_schedule

    table = ExperimentTable(
        "Ablation — XOR schedule compilation (total strip XORs)",
        ["k", "m", "w", "dumb_xors", "smart_xors", "savings_pct"],
    )
    for k, m in [(2, 2), (4, 2), (6, 3), (4, 4)]:
        code = CauchyRSCode(CodeParams(k=k, m=m))
        w = code.params.w
        dumb = dumb_schedule(code.parity_bitmatrix, k, m, w).total_xors
        smart = smart_schedule(code.parity_bitmatrix, k, m, w).total_xors
        table.add_row(
            k=k, m=m, w=w, dumb_xors=dumb, smart_xors=smart,
            savings_pct=100.0 * (dumb - smart) / dumb if dumb else 0.0,
        )
    return table


def ablation_encoding_throughput(payload_mib: int = 8) -> ExperimentTable:
    """Measured (wall-clock) Cauchy vs Vandermonde encode throughput on the
    path the engine runs: ``encode_group_into`` under the XOR-minimised
    Cauchy generator ``ECCheckEngine.code_for`` builds, against a
    Vandermonde generator of the same shape.  Each is warmed once (the
    first call builds its region tables), then timed five times; the
    median is reported.  The kernel pays one table gather per parity
    coefficient outside {0, 1}, counted in ``multiplies``."""
    from repro.core.protocol import encode_group_into
    from repro.ec.base import CodeParams
    from repro.ec.cauchy import CauchyRSCode
    from repro.ec.vandermonde import VandermondeRSCode

    params = CodeParams(k=2, m=2)
    rng = np.random.default_rng(0)
    packets = [
        rng.integers(0, 256, size=payload_mib * 2**20 // 4, dtype=np.uint8)
        for _ in range(params.k)
    ]
    parity = [np.empty_like(packets[0]) for _ in range(params.m)]
    mib = sum(p.nbytes for p in packets) / 2**20
    table = ExperimentTable(
        "Ablation — measured encode throughput, engine path (this machine)",
        ["generator", "multiplies", "throughput_MiB_s"],
    )
    codes = {
        "cauchy-good": CauchyRSCode(params, good_matrix=True),
        "vandermonde": VandermondeRSCode(params),
    }
    for name, code in codes.items():
        encode_group_into(code, packets, parity)
        seconds = []
        for _ in range(5):
            start = _time.perf_counter()
            encode_group_into(code, packets, parity)
            seconds.append(_time.perf_counter() - start)
        table.add_row(
            generator=name,
            multiplies=int((code.parity_matrix > 1).sum()),
            throughput_MiB_s=mib / float(np.median(seconds)),
        )
    return table


# ---------------------------------------------------------------------------
# Extension — end-to-end goodput under a failure process
# ---------------------------------------------------------------------------
def build_engine_profiles(model: str = "gpt2-5.3B"):
    """Measure each engine once and package it for the goodput simulator."""
    from repro.analysis.recovery_rate import replication_survives
    from repro.sim.goodput import EngineProfile

    profiles = []

    def measured(engine_name, failed):
        job = make_testbed_job(model=model)
        engine = build_engine(engine_name, job, PAPER_CONFIG)
        save = engine.save()
        job.fail_nodes(failed)
        memory_recovery = 0.0
        try:
            memory_recovery = engine.restore(failed).recovery_time
        except Exception:
            memory_recovery = float("nan")
        return save, memory_recovery

    # base1 — remote only; every save is durable.
    job = make_testbed_job(model=model)
    b1 = build_engine("base1", job, PAPER_CONFIG)
    save1 = b1.save()
    job.fail_nodes({0})
    remote_recovery = b1.restore({0}).recovery_time
    profiles.append(
        EngineProfile(
            name="base1", stall_s=save1.stall_time,
            checkpoint_time_s=save1.checkpoint_time,
            memory_recovery_s=remote_recovery,
            remote_recovery_s=remote_recovery,
            survives=lambda failed: False,
            durable_every_checkpoint=True,
        )
    )
    # base2 — async persist, still remote-durable per save.
    save2, _ = measured("base2", {0})
    profiles.append(
        EngineProfile(
            name="base2", stall_s=save2.stall_time,
            checkpoint_time_s=save2.checkpoint_time,
            memory_recovery_s=remote_recovery,
            remote_recovery_s=remote_recovery,
            survives=lambda failed: False,
            durable_every_checkpoint=True,
        )
    )
    # base3 — survives one failure per replication group.
    save3, mem3 = measured("base3", {1, 3})
    profiles.append(
        EngineProfile(
            name="base3", stall_s=save3.stall_time,
            checkpoint_time_s=save3.checkpoint_time,
            memory_recovery_s=mem3,
            remote_recovery_s=remote_recovery,
            survives=lambda failed: replication_survives(failed, n=4, group_size=2),
        )
    )
    # eccheck — survives any <= m failures; use the slower decode-path
    # recovery time as the conservative in-memory number.
    save4, mem4 = measured("eccheck", {2, 3})
    profiles.append(
        EngineProfile(
            name="eccheck", stall_s=save4.stall_time,
            checkpoint_time_s=save4.checkpoint_time,
            memory_recovery_s=mem4,
            remote_recovery_s=remote_recovery,
            survives=lambda failed: len(failed) <= 2,
        )
    )
    return profiles


def goodput_comparison(
    model: str = "gpt2-5.3B",
    mtbf_hours_per_node: tuple[float, ...] = (48.0, 12.0, 3.0),
    duration_hours: float = 24 * 14,
    iteration_s: float = 11.6,
    interval_iters: int = 16,
    seed: int = 7,
) -> ExperimentTable:
    """Extension experiment: two-week campaign goodput per engine.

    Each engine checkpoints every ``interval_iters`` iterations (clamped
    up to what it can sustain) while a Poisson failure process with the
    given per-node MTBF injects incidents on the 4-node testbed.
    """
    from repro.sim.goodput import simulate_goodput

    profiles = build_engine_profiles(model)
    table = ExperimentTable(
        f"Extension — goodput over a {duration_hours / 24:.0f}-day campaign, {model}",
        ["mtbf_h"] + [p.name for p in profiles],
    )
    for mtbf in mtbf_hours_per_node:
        row = {}
        for profile in profiles:
            rng = np.random.default_rng(seed)  # same trace for every engine
            result = simulate_goodput(
                profile,
                num_nodes=4,
                mtbf_hours=mtbf,
                duration_hours=duration_hours,
                iteration_s=iteration_s,
                checkpoint_interval_iters=interval_iters,
                rng=rng,
            )
            row[profile.name] = result.goodput
        table.add_row(mtbf_h=mtbf, **row)
    return table


def ablation_cauchy_matrix() -> ExperimentTable:
    """Original vs XOR-minimised ('good') Cauchy matrix construction."""
    from repro.ec.base import CodeParams
    from repro.ec.cauchy import CauchyRSCode
    from repro.ec.schedule import dumb_schedule, smart_schedule

    table = ExperimentTable(
        "Ablation — Cauchy matrix construction (strip XORs per codeword)",
        ["k", "m", "original", "good", "good_plus_smart", "savings_pct"],
    )
    for k, m in [(2, 2), (4, 2), (6, 3), (4, 4)]:
        plain = CauchyRSCode(CodeParams(k=k, m=m))
        good = CauchyRSCode(CodeParams(k=k, m=m), good_matrix=True)
        w = plain.params.w
        original = dumb_schedule(plain.parity_bitmatrix, k, m, w).total_xors
        good_cost = dumb_schedule(good.parity_bitmatrix, k, m, w).total_xors
        combined = smart_schedule(good.parity_bitmatrix, k, m, w).total_xors
        table.add_row(
            k=k, m=m, original=original, good=good_cost,
            good_plus_smart=combined,
            savings_pct=100.0 * (original - combined) / original,
        )
    return table


def ablation_rack_aware_grouping(
    trials: int = 4000,
    p_node: float = 0.02,
    p_rack: float = 0.05,
) -> ExperimentTable:
    """Extension ablation — rack-aligned vs rack-transversal groups.

    8 nodes in 2 racks, groups of 2 with one parity node each, under
    rack-correlated failures: aligned groups die with their rack while
    transversal groups lose at most one member per rack outage.
    """
    from repro.analysis.grouping import (
        rack_aligned_groups,
        rack_failure_survivable,
        rack_transversal_groups,
    )
    from repro.parallel.topology import ClusterSpec
    from repro.sim.failures import sample_correlated_failures

    cluster = ClusterSpec(8, 1, nodes_per_rack=4)
    layouts = {
        "aligned": rack_aligned_groups(cluster, 2),
        "transversal": rack_transversal_groups(cluster, 2),
    }
    rng = np.random.default_rng(0)
    survived = {name: 0 for name in layouts}
    for _ in range(trials):
        failed = sample_correlated_failures(cluster, p_node, p_rack, rng)
        for name, groups in layouts.items():
            if rack_failure_survivable(groups, failed, m=1):
                survived[name] += 1
    table = ExperimentTable(
        f"Ablation — group placement under rack-correlated failures "
        f"(p_node={p_node}, p_rack={p_rack}, {trials} trials)",
        ["layout", "survival_rate"],
    )
    for name in layouts:
        table.add_row(layout=name, survival_rate=survived[name] / trials)
    return table


def ablation_incremental_checkpointing() -> ExperimentTable:
    """Extension ablation — full vs incremental (delta) ECCheck saves.

    After one training step only a fraction of state bytes change; the
    delta path encodes and ships only dirty blocks, cutting checkpoint
    traffic and time proportionally (code linearity makes the resulting
    chunks byte-identical to a full save's — asserted by unit tests).
    """
    table = ExperimentTable(
        "Ablation — incremental (delta) checkpointing, gpt2-5.3B",
        ["mode", "dirty_fraction", "inter_node_GiB", "checkpoint_time_s"],
    )
    job = make_testbed_job(model="gpt2-5.3B")
    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    full = engine.save()
    table.add_row(
        mode="full",
        dirty_fraction=1.0,
        inter_node_GiB=full.bytes_inter_node / 2**30,
        checkpoint_time_s=full.checkpoint_time,
    )
    # A sparse update: a quarter of each worker's tensors change (frozen
    # layers / untouched rows leave the rest clean).
    job.advance(dirty_tensor_fraction=0.25)
    delta = engine.save_incremental(block_size=4 * 1024)
    table.add_row(
        mode="incremental",
        dirty_fraction=delta.breakdown["dirty_fraction"],
        inter_node_GiB=delta.bytes_inter_node / 2**30,
        checkpoint_time_s=delta.checkpoint_time,
    )
    return table
