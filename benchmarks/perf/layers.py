"""Per-layer metrics: in-situ spans and benchmark-owned probes.

*In-situ* metrics are wall times of spans the program's own
``repro.obs`` tracer already emits, switched on from outside with
``obs.use_tracer()``; the benchmark adds only the root span around each
op.  *Probes* time one public function of one layer, fed the workload's
real inputs (its packets, state dicts, ``k``/``m``).  A probe or span
whose import or name no longer exists is reported under
``absent_layers`` (reason -> the metrics it takes away) and those metrics
are omitted — never a crash — so a later refactor that deletes a layer
is not blocked by the instrument.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import statistics
import time
from pathlib import Path

import workloads as W

OUT = Path(__file__).resolve().parent / "out"
MIB = 2.0**20
SAVE_SPANS = ("eccheck.save", "eccheck.save_incremental", "eccheck.backup")
RESTORE_SPANS = ("eccheck.restore",)
DEMOTE_SPANS = ("eccheck.demote",)
REPAIR_SPANS = ("elastic.repair", "elastic.regroup")


metric = W.metric


def timed(fn, min_seconds: float = 0.12, max_reps: int = 400) -> tuple[float, int]:
    """Median seconds per call of ``fn`` over at least ``min_seconds``."""
    fn()  # first call pays lazy set-up (tables, caches, pools)
    samples = []
    total = 0.0
    while total < min_seconds and len(samples) < max_reps:
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
        total += samples[-1]
    return statistics.median(samples), len(samples)


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
class SpanTree:
    """Parent/child index over a tracer's finished spans."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s.wall_s is not None]
        self.children: dict[int, list] = {}
        for span in self.spans:
            self.children.setdefault(span.parent_id, []).append(span)

    def named(self, *names: str) -> list:
        return [s for s in self.spans if s.name in names]

    def descendants(self, span) -> list:
        out, stack = [], [span]
        while stack:
            for child in self.children.get(stack.pop().span_id, []):
                out.append(child)
                stack.append(child)
        return out

    def self_time(self, span) -> float:
        """``span`` minus the part of its interval its children cover.

        Children may run on other threads and overlap each other, so the
        covered part is the union of their intervals, clipped to the span.
        """
        start, end = span.start_s, span.start_s + span.wall_s
        covered, cursor = 0.0, start
        for child in sorted(
            self.children.get(span.span_id, []), key=lambda c: c.start_s
        ):
            lo = max(cursor, child.start_s)
            hi = min(end, child.start_s + child.wall_s)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.wall_s - covered


def span_metrics(tree: SpanTree, absent: dict[str, tuple[str, ...]]) -> dict:
    """Per-layer metrics read off the in-situ spans under the op roots."""
    out: dict = {}

    def report_median(metric_name: str, values: list[float], scale: float = 1e3,
                      unit: str = "ms") -> None:
        if values:
            out[metric_name] = metric(statistics.median(values) * scale, unit, len(values))
        else:
            absent[f"span behind {metric_name}"] = (metric_name,)

    save_roots = tree.named("op.save")
    per_save: dict[str, list[float]] = {}
    overlap, span_counts = [], []
    for root in save_roots:
        below = tree.descendants(root)
        span_counts.append(len(below))
        sums: dict[str, float] = {}
        for span in below:
            sums[span.name] = sums.get(span.name, 0.0) + span.wall_s
        for name, total in sums.items():
            per_save.setdefault(name, []).append(total)
        stages = sum(sums.get(n, 0.0) for n in
                     ("pipeline.encode", "pipeline.xor_reduce", "pipeline.transfer"))
        if sums.get("eccheck.save.step3"):
            overlap.append(stages / sums["eccheck.save.step3"])
    for metric_name, span_name in (
        ("core.save.step1_ms", "eccheck.save.step1"),
        ("core.save.step2_ms", "eccheck.save.step2"),
        ("core.save.step3_ms", "eccheck.save.step3"),
        ("core.pipeline.encode_stage_ms", "pipeline.encode"),
        ("core.pipeline.xor_stage_ms", "pipeline.xor_reduce"),
        ("core.pipeline.transfer_stage_ms", "pipeline.transfer"),
    ):
        report_median(metric_name, per_save.get(span_name, []))
    report_median("core.pipeline.overlap_ratio", overlap, 1.0, "ratio")
    report_median("checkpoint.tier.demote_ms_p50",
              [s.wall_s for s in tree.named(*DEMOTE_SPANS)])
    # step() minus the save and demotion spans beneath it: policy
    # decisions, stats, disk-tier eviction.
    report_median("checkpoint.manager.overhead_us",
              [tree.self_time(r) for r in save_roots], 1e6, "us")
    report_median("obs.tracer.spans_per_save", span_counts, 1.0, "count")

    by_workflow: dict[str, list[float]] = {"p2p": [], "decode": []}
    for root in tree.named("op.restore"):
        workflow = "p2p" if root.attrs.get("pattern") == "parity1" else "decode"
        by_workflow[workflow].extend(
            s.wall_s for s in tree.descendants(root) if s.name in RESTORE_SPANS
        )
    report_median("core.restore.p2p_ms_p50", by_workflow["p2p"])
    report_median("core.restore.decode_ms_p50", by_workflow["decode"])

    # Where the wall time of the workload's top-level ops goes.
    roots = tree.named("op.episode") or save_roots + tree.named("op.restore")
    total = sum(r.wall_s for r in roots)
    shares = (
        ("fleet.save_share", SAVE_SPANS),
        ("fleet.restore_share", RESTORE_SPANS),
        ("fleet.demote_share", DEMOTE_SPANS),
        ("fleet.repair_share", REPAIR_SPANS),
    )
    if not total:
        absent["op root spans"] = tuple(name for name, _ in shares) + (
            "fleet.other_share", "fleet.ms_per_save")
        return out
    below = [s for r in roots for s in tree.descendants(r)]
    for share, names in shares:
        spans = [s for s in below if s.name in names]
        out[share] = metric(sum(s.wall_s for s in spans) / total, "ratio", len(spans))
    out["fleet.other_share"] = metric(
        sum(tree.self_time(r) for r in roots) / total, "ratio", len(roots)
    )
    saves = [s for s in below if s.name in SAVE_SPANS]
    if saves:
        out["fleet.ms_per_save"] = metric(
            statistics.fmean(s.wall_s for s in saves) * 1e3, "ms", len(saves)
        )
    else:
        absent["save spans behind fleet.ms_per_save"] = ("fleet.ms_per_save",)
    return out


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class ProbeContext:
    """The workload's real inputs, as the probes need them."""

    def __init__(self, loop: W.CkptLoop):
        from repro.core.protocol import build_worker_checkpoint, packet_size_for

        self.loop = loop
        self.job, self.engine = loop.job, loop.engine
        self.code = self.engine.code
        self.k, self.m = self.code.params.k, self.code.params.m
        self.world = self.job.world_size
        self.states = [self.job.state_of(w) for w in range(self.world)]
        self.packet_size = packet_size_for(
            [W.worker_tensor_bytes(self.job, w) for w in range(self.world)],
            self.engine.config.packet_alignment,
        )
        self.groups = self.engine.reduction_plan.groups
        #: The k real packets of reduction group 0 (one codeword position).
        self.packets = [
            build_worker_checkpoint(w, self.job.state_of(w), self.packet_size)
            .packet.payload
            for w in self.groups[0].workers
        ]
        self.single_encode_s: float | None = None


def reports(*names: str):
    """Name the metrics a probe reports, so that when its layer is gone
    the gate knows which metrics went with it."""

    def mark(probe):
        probe.metrics = names
        return probe

    return mark


@reports("gf.mul_region_mib_s", "gf.matinv_us")
def probe_gf(ctx: ProbeContext) -> dict:
    from repro.gf.field import GF
    from repro.gf.matrix import gf_matinv

    field = GF(ctx.code.params.w)
    coeff = int(ctx.code.parity_matrix[0, 0])
    packet = ctx.packets[0]
    mul_s, n = timed(lambda: field.mul_region(coeff, packet))
    # Any k rows of an MDS generator are invertible; take the last k.
    square = ctx.code.generator_matrix[-ctx.k:]
    inv_s, n_inv = timed(lambda: gf_matinv(square, field), min_seconds=0.02)
    return {
        "gf.mul_region_mib_s": metric(packet.nbytes / MIB / mul_s, "MiB/s", n),
        "gf.matinv_us": metric(inv_s * 1e6, "us", n_inv),
    }


@reports("ec.encode_fast_mib_s", "ec.decode_fast_mib_s", "ec.xor_reduce_mib_s")
def probe_ec_codec(ctx: ProbeContext) -> dict:
    from repro.ec.kernels import xor_reduce_arrays

    code, data, k = ctx.code, ctx.packets, ctx.k
    group_mib = k * ctx.packet_size / MIB
    enc_s, n_enc = timed(lambda: code.encode_fast(data))
    ctx.single_encode_s = enc_s
    chunks = dict(enumerate(data + code.encode_fast(data)))
    # Worst case the code allows: the first min(k, m) data chunks are gone.
    survivors = {cid: chunks[cid] for cid in sorted(chunks)[-k:]}
    dec_s, n_dec = timed(lambda: code.decode_fast(survivors))
    xor_s, n_xor = timed(lambda: xor_reduce_arrays(data))
    return {
        "ec.encode_fast_mib_s": metric(group_mib / enc_s, "MiB/s", n_enc),
        "ec.decode_fast_mib_s": metric(group_mib / dec_s, "MiB/s", n_dec),
        "ec.xor_reduce_mib_s": metric(group_mib / xor_s, "MiB/s", n_xor),
    }


def _single_encode_s(ctx: ProbeContext) -> float:
    if ctx.single_encode_s is None:
        ctx.single_encode_s, _ = timed(lambda: ctx.code.encode_fast(ctx.packets))
    return ctx.single_encode_s


@reports("ec.threadpool_vs_single")
def probe_ec_threadpool(ctx: ProbeContext) -> dict:
    from repro.ec.threadpool import ThreadPoolEncoder

    pool = ThreadPoolEncoder(ctx.code, threads=W.ENCODE_THREADS, adaptive=False)
    pool_s, n = timed(lambda: pool.encode(ctx.packets))
    return {
        "ec.threadpool_vs_single": metric(_single_encode_s(ctx) / pool_s, "ratio", n)
    }


@reports("ec.procpool_vs_single")
def probe_ec_procpool(ctx: ProbeContext) -> dict:
    from repro.ec.procpool import make_encoder

    encoder = make_encoder(ctx.code, backend="process", threads=W.ENCODE_THREADS)
    try:
        proc_s, n = timed(lambda: encoder.encode(ctx.packets))  # timed() warms the pool
    finally:
        encoder.close()
    return {
        "ec.procpool_vs_single": metric(_single_encode_s(ctx) / proc_s, "ratio", n)
    }


@reports("ec.schedule_compile_ms")
def probe_ec_schedule(ctx: ProbeContext) -> dict:
    from repro.ec.schedule import paar_schedule

    p = ctx.code.params
    bitmatrix = ctx.code.parity_bitmatrix
    compile_s, n = timed(
        lambda: paar_schedule(bitmatrix, p.k, p.m, p.w), min_seconds=0.05
    )
    return {"ec.schedule_compile_ms": metric(compile_s * 1e3, "ms", n)}


def cache_counters(engine) -> dict:
    """Hit/miss counters of the schedule and decode caches (best effort)."""
    counters: dict = {}
    try:
        from repro.ec.cauchy import schedule_cache_info

        info = schedule_cache_info()
        counters["schedule"] = (
            info["schedule_hits"] + info["bitmatrix_hits"],
            info["schedule_misses"] + info["bitmatrix_misses"],
        )
        info = engine.code.decode_cache_info()
        counters["decode"] = (info["hits"], info["misses"])
    except (ImportError, AttributeError, KeyError):
        pass
    return counters


def cache_ratios(before: dict, after: dict, absent: dict) -> dict:
    out = {}
    for cache in ("schedule", "decode"):
        name = f"ec.{cache}_cache_hit_ratio"
        if cache not in before or cache not in after:
            absent[f"counters behind {name}"] = (name,)
            continue
        hits = after[cache][0] - before[cache][0]
        lookups = hits + after[cache][1] - before[cache][1]
        out[name] = metric(hits / lookups if lookups else 0.0, "ratio", lookups)
    return out


@reports(
    "tensors.decompose_ms_per_save",
    "tensors.recompose_ms_per_restore",
    "tensors.metadata_bytes_per_save",
)
def probe_tensors(ctx: ProbeContext) -> dict:
    from repro.core.protocol import build_worker_checkpoint, restore_state_dict
    from repro.tensors.serialization import decompose_state_dict

    dec_s, n_dec = timed(lambda: [decompose_state_dict(s) for s in ctx.states])
    checkpoints = [
        build_worker_checkpoint(w, s, ctx.packet_size) for w, s in enumerate(ctx.states)
    ]
    rec_s, n_rec = timed(
        lambda: [
            restore_state_dict(c.metadata_blob, c.packet.payload[: c.packet.original_length])
            for c in checkpoints
        ]
    )
    meta = sum(len(c.metadata_blob) for c in checkpoints)
    return {
        "tensors.decompose_ms_per_save": metric(dec_s * 1e3, "ms", n_dec),
        "tensors.recompose_ms_per_restore": metric(rec_s * 1e3, "ms", n_rec),
        "tensors.metadata_bytes_per_save": metric(meta, "bytes", len(checkpoints)),
    }


@reports("core.protocol.build_ckpt_ms_per_save", "core.integrity.digest_mib_s")
def probe_core_protocol(ctx: ProbeContext) -> dict:
    from repro.core.integrity import chunk_digest
    from repro.core.protocol import build_worker_checkpoint

    build_s, n = timed(
        lambda: [
            build_worker_checkpoint(w, s, ctx.packet_size)
            for w, s in enumerate(ctx.states)
        ]
    )
    packet = ctx.packets[0]
    digest_s, n_digest = timed(lambda: chunk_digest(packet))
    return {
        "core.protocol.build_ckpt_ms_per_save": metric(build_s * 1e3, "ms", n),
        "core.integrity.digest_mib_s": metric(
            packet.nbytes / MIB / digest_s, "MiB/s", n_digest
        ),
    }


@reports("core.pipeline.spawn_join_us")
def probe_core_pipeline(ctx: ProbeContext) -> dict:
    from repro.core.pipeline import PipelinedRunner

    items = list(range(len(ctx.groups)))

    def noop(item):
        return item

    spawn_s, n = timed(lambda: PipelinedRunner(noop, noop, noop).run(items))
    return {"core.pipeline.spawn_join_us": metric(spawn_s * 1e6, "us", n)}


@reports("core.incremental.packet_delta_mib_s", "core.incremental.dirty_fraction")
def probe_core_incremental(ctx: ProbeContext) -> dict:
    from repro.core.incremental import packet_delta
    from repro.core.protocol import build_worker_checkpoint

    worker = ctx.groups[0].workers[0]
    old = ctx.packets[0].copy()
    ctx.job.advance(dirty_tensor_fraction=0.1)
    new = build_worker_checkpoint(
        worker, ctx.job.state_of(worker), ctx.packet_size
    ).packet.payload
    delta_s, n = timed(lambda: packet_delta(old, new))
    _, summary = packet_delta(old, new)
    return {
        "core.incremental.packet_delta_mib_s": metric(
            old.nbytes / MIB / delta_s, "MiB/s", n
        ),
        "probe.dirty_fraction": metric(summary.dirty_fraction, "ratio", summary.total_blocks),
    }


@reports("core.placement.plan_us")
def probe_core_placement(ctx: ProbeContext) -> dict:
    from repro.core.placement import select_data_parity_nodes
    from repro.core.reduction import build_reduction_plan

    job = ctx.job
    origin = job.cluster.origin_groups()
    node_of = {w: job.node_of(w) for w in range(ctx.world)}
    plan_s, n = timed(
        lambda: build_reduction_plan(select_data_parity_nodes(origin, ctx.k), node_of),
        min_seconds=0.02,
    )
    return {"core.placement.plan_us": metric(plan_s * 1e6, "us", n)}


@reports("checkpoint.storage.put_get_mib_s")
def probe_checkpoint_storage(ctx: ProbeContext) -> dict:
    from repro.checkpoint.storage import HostMemoryStore

    store = HostMemoryStore(ctx.job.cluster.num_nodes)
    packet = ctx.packets[0]

    def put_get():
        store.put(0, ("probe", 0), packet)
        return store.get(0, ("probe", 0))

    s, n = timed(put_get, min_seconds=0.02)
    return {
        "checkpoint.storage.put_get_mib_s": metric(packet.nbytes / MIB / s, "MiB/s", n)
    }


def save_shaped_requests(ctx: ProbeContext) -> list:
    """The transfer list a full save hands ``network.simulate``."""
    from repro.sim.network import TransferRequest

    engine, plan = ctx.engine, ctx.engine.placement
    nbytes = engine.logical_packet_bytes()
    requests = []
    for group in ctx.groups:
        for i, target in enumerate(group.targets):
            target_node = engine.node_hosting(target)
            requests += [
                TransferRequest(engine.node_hosting(w), target_node, nbytes)
                for w in group.workers
                if w != target
            ]
            if target_node != plan.parity_nodes[i]:
                requests.append(
                    TransferRequest(target_node, plan.parity_nodes[i], nbytes)
                )
        for j, members in enumerate(plan.data_group):
            src = engine.node_hosting(members[group.index])
            if src != plan.data_nodes[j]:
                requests.append(TransferRequest(src, plan.data_nodes[j], nbytes))
    return requests


@reports("sim.network.simulate_us", "sim.events.idle_events_per_s")
def probe_sim(ctx: ProbeContext) -> dict:
    from repro.sim.events import Simulator

    requests = save_shaped_requests(ctx)
    sim_s, n = timed(lambda: ctx.engine.network.simulate(requests), min_seconds=0.05)
    events = 20_000

    def idle_loop():
        sim = Simulator()
        for i in range(events):
            sim.schedule(float(i), lambda: None)
        sim.run()

    loop_s, n_loop = timed(idle_loop, min_seconds=0.05)
    return {
        "sim.network.simulate_us": metric(sim_s * 1e6, "us", n),
        "sim.events.idle_events_per_s": metric(events / loop_s, "1/s", n_loop),
    }


@reports("models.job_create_ms", "models.advance_ms")
def probe_models(ctx: ProbeContext) -> dict:
    create_s, n = timed(
        lambda: W.build_testbed(ctx.loop.workload.scale, 0), min_seconds=0.05,
        max_reps=5,
    )
    advance_s, n_adv = timed(ctx.job.advance, min_seconds=0.05)
    return {
        "models.job_create_ms": metric(create_s * 1e3, "ms", n),
        "models.advance_ms": metric(advance_s * 1e3, "ms", n_adv),
    }


#: Order matters only where a probe mutates the job (incremental, models).
PROBES = (
    probe_gf, probe_ec_codec, probe_ec_threadpool, probe_ec_procpool,
    probe_ec_schedule, probe_tensors, probe_core_protocol, probe_core_pipeline,
    probe_core_placement, probe_checkpoint_storage, probe_sim,
    probe_core_incremental, probe_models,
)


def run_probes(ctx: ProbeContext, tracer, probes) -> tuple[dict, dict]:
    """Run each probe; one that raises lands in the absent map with its metrics."""
    metrics: dict = {}
    absent: dict[str, tuple[str, ...]] = {}
    for probe in probes:
        started = time.perf_counter()
        try:
            metrics.update(probe(ctx))
        except Exception as exc:  # noqa: BLE001 - a deleted layer must not crash the instrument
            absent[f"{probe.__name__}: {type(exc).__name__}: {exc}"] = probe.metrics
        tracer.record_span(
            f"probe.{probe.__name__[6:]}",
            start_s=tracer.rel_time(started),
            wall_s=time.perf_counter() - started,
        )
    return metrics, absent


def replay_sum(metrics: dict, ctx: ProbeContext, incremental: bool) -> float | None:
    """Milliseconds of one save re-played as a serial sum of layer probes."""
    needed = (
        "core.protocol.build_ckpt_ms_per_save", "gf.mul_region_mib_s",
        "ec.xor_reduce_mib_s", "core.integrity.digest_mib_s",
        "sim.network.simulate_us", "core.pipeline.spawn_join_us",
        "checkpoint.tier.demote_ms_p50",
    )
    if any(name not in metrics for name in needed):
        return None
    value = {name: metrics[name]["value"] for name in needed}
    packet_mib = ctx.packet_size / MIB
    groups = len(ctx.groups)
    total = (
        value["core.protocol.build_ckpt_ms_per_save"]
        # every worker multiplies its packet by m coefficients ...
        + 1e3 * ctx.world * ctx.m * packet_mib / value["gf.mul_region_mib_s"]
        # ... each group XORs k encoded packets into each of m parities ...
        + 1e3 * groups * ctx.m * ctx.k * packet_mib / value["ec.xor_reduce_mib_s"]
        # ... and every stored chunk packet gets a digest.
        + 1e3 * groups * (ctx.k + ctx.m) * packet_mib / value["core.integrity.digest_mib_s"]
        + value["sim.network.simulate_us"] / 1e3
        + value["core.pipeline.spawn_join_us"] / 1e3
        + value["checkpoint.tier.demote_ms_p50"]
    )
    if incremental and "core.incremental.packet_delta_mib_s" in metrics:
        total += 1e3 * ctx.world * packet_mib / metrics[
            "core.incremental.packet_delta_mib_s"]["value"]
    return total


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------
def traced_episodes(spec: dict, jobs: int, tracer, problems: list[str]) -> dict:
    """Run episodes twice, untraced and traced; counts must be identical."""
    from repro import obs

    pairs = []
    # Each episode runs twice, so a pair costs two nominal episodes.
    pairs_wanted = W.episodes_for(0.55 * spec["seconds"] / 2, spec["smoke"])
    for index in range(W.FIRST_EPISODE, W.FIRST_EPISODE + pairs_wanted):
        order = (False, True) if index % 2 else (True, False)
        runs = {}
        for traced in order:
            with obs.use_tracer(tracer) if traced else contextlib.nullcontext():
                runs[traced] = W.run_episode(index, jobs)
        for count in ("events", "sim_seconds", "recovery_cycles", "tenants"):
            if runs[False][count] != runs[True][count]:
                problems.append(
                    f"episode {index} {count} differs between passes: "
                    f"{runs[False][count]!r} vs {runs[True][count]!r}"
                )
        pairs.append(runs)
    traced = [p[True] for p in pairs]
    return {
        "pairs": pairs,
        "events": sum(e["events"] for e in traced),
        "recovery_cycles": sum(e["recovery_cycles"] for e in traced),
        "sim_seconds": sum(e["sim_seconds"] for e in traced),
    }


#: Cycles after which both kinds of cycle have seen every failure pattern.
TRACE_BLOCK = 8


def traced_cycles(smoke: bool):
    """Which cycles run traced: the Thue-Morse sequence U T T U T U U T ...

    Interleaving cycle by cycle puts both kinds on the same heap and the
    same stretch of machine noise; Thue-Morse (rather than U T U T) also
    gives each kind all four failure patterns within ``TRACE_BLOCK``.
    """
    if smoke:
        yield from [False] * W.SMOKE_CYCLES + [True] * W.SMOKE_CYCLES
        return
    for cycle in itertools.count():
        yield bin(cycle).count("1") % 2 == 1


def loop_metrics(loop, ctx, metrics: dict, problems: list[str], absent: dict) -> dict:
    """What the untraced and traced cycles of one loop say about each other.

    Adds to ``metrics`` and returns the exact ledger; with no successful
    save of either kind or no successful restore there is nothing to take
    a median of, so it reports that and leaves the failures to speak.
    """
    samples = loop.samples

    def split(values):
        return (
            [v for v, t in zip(values, samples.save_traced) if not t],
            [v for v, t in zip(values, samples.save_traced) if t],
        )

    plain_s, traced_s = split(samples.save_s)
    if not (plain_s and traced_s and samples.restore_s):
        problems.append("no successful save or restore to measure")
        return {}
    # Probes and spans are wall times, so they are set against the wall
    # time of a save; the two kinds of cycle against each other, corrected.
    save_p50_ms = statistics.median(split(samples.save_wall_s)[0]) * 1e3
    save_overhead = statistics.median(traced_s) / statistics.median(plain_s)
    metrics["obs.tracer.overhead_ratio"] = metric(save_overhead, "ratio", len(traced_s))
    plain_sim, traced_sim = split(samples.sim_save_s)
    if statistics.median(plain_sim) != statistics.median(traced_sim):
        problems.append(
            f"sim_save_s differs between passes: {statistics.median(plain_sim)!r} "
            f"vs {statistics.median(traced_sim)!r}"
        )
    ledger, exact_metrics = W.exact_ledger([dataclasses.asdict(samples)], problems)
    metrics.update(exact_metrics)

    saves = len(samples.save_s)
    metrics["core.incremental.full_fallback_ratio"] = metric(
        samples.full_saves / saves, "ratio", saves
    )
    probe_dirty = metrics.pop("probe.dirty_fraction", None)
    if samples.dirty_fractions:
        metrics["core.incremental.dirty_fraction"] = metric(
            statistics.median(samples.dirty_fractions), "ratio",
            len(samples.dirty_fractions),
        )
    elif probe_dirty is not None:
        metrics["core.incremental.dirty_fraction"] = probe_dirty
    replayed = ctx and replay_sum(metrics, ctx, loop.workload.incremental)
    if replayed:
        metrics["core.save.replay_sum_ratio"] = metric(
            replayed / save_p50_ms, "ratio", len(plain_s)
        )
    else:
        absent["probes behind core.save.replay_sum_ratio"] = ("core.save.replay_sum_ratio",)
    return ledger


def run_traced(spec: dict) -> dict:
    """Interleave untraced and traced cycles, then probe every layer."""
    from repro import obs

    workload = W.WORKLOADS[spec["workload"]]
    smoke, seconds = spec["smoke"], spec["seconds"]
    problems: list[str] = []
    absent: dict[str, tuple[str, ...]] = {}
    tracer = obs.Tracer()
    episodes = None
    loop, jobs = W.set_up(workload, spec["seed"], smoke)
    if workload.kind == "fleet":
        episodes = traced_episodes(spec, jobs, tracer, problems)
        seconds *= 0.45

    caches_before = cache_counters(loop.engine)
    deadline = time.perf_counter() + 0.5 * seconds
    for cycle, traced in enumerate(traced_cycles(smoke)):
        if cycle and cycle % TRACE_BLOCK == 0 and time.perf_counter() > deadline:
            break
        loop.traced = traced
        with obs.use_tracer(tracer) if traced else contextlib.nullcontext():
            loop.cycle()
    caches_after = cache_counters(loop.engine)
    samples = loop.samples

    tree = SpanTree(tracer.spans)
    metrics = span_metrics(tree, absent)
    metrics.update(cache_ratios(caches_before, caches_after, absent))
    try:
        ctx = ProbeContext(loop)
    except Exception as exc:  # noqa: BLE001 - see run_probes
        absent[f"probe inputs: {type(exc).__name__}: {exc}"] = tuple(
            name for probe in PROBES for name in probe.metrics
        )
        ctx = None
    if ctx is not None:
        probed, probe_absent = run_probes(ctx, tracer, PROBES)
        metrics.update(probed)
        absent.update(probe_absent)
    ledger = loop_metrics(loop, ctx, metrics, problems, absent)

    saves = len(samples.save_s)
    restores = sum(len(v) for v in samples.restore_s.values())
    if episodes:
        counts = (episodes["events"], episodes["recovery_cycles"], episodes["sim_seconds"])
        n = len(episodes["pairs"])
    else:
        counts = (
            saves + restores, restores,
            sum(samples.sim_save_s) + sum(v for vs in samples.sim_restore_s.values() for v in vs),
        )
        n = saves + restores
    metrics["fleet.events"] = metric(counts[0], "count", n)
    metrics["fleet.recovery_cycles"] = metric(counts[1], "count", n)
    metrics["fleet.sim_seconds"] = metric(counts[2], "sim_s", n)

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{workload.name}.jsonl"
    obs.write_jsonl(tracer, str(trace_file), workload=workload.name, seed=spec["seed"])

    episode_runs = [r for p in episodes["pairs"] for r in p.values()] if episodes else []
    violated = W.episode_failures(episode_runs)
    return {
        "metrics": dict(sorted(metrics.items())),
        "absent_layers": absent,
        "attempted": samples.attempted + len(episode_runs),
        "failed": samples.failed + len(violated),
        "problems": problems + samples.failures + violated,
        "exact": ledger,
        "trace_file": str(trace_file.relative_to(OUT.parents[2])),
    }
