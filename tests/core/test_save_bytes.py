"""The save's byte path against its oracles.

The engine packetises in one pass, encodes + reduces into the parity
buffers with pair-table gathers and hands buffers over instead of copying
them.  None of that may show in storage: every stored byte must equal what
the reference functions (``decompose_state_dict``, ``encode_packet`` +
``xor_reduce``, ``zlib.crc32``) produce, no two owners may share memory,
and a changed tensor layout must be picked up on the very next save.

The restore and the elastic repair run on the same kernel and hand buffers
over the same way (a decoded buffer becomes the stored chunk, surviving
chunks are read in place), so they are held to the same rules against
``code.decode`` + ``code.encode``.
"""

import hashlib
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro.chaos.injection import CrashInjector, CrashPlan, InjectedCrash
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.tiering import TierPolicy
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.integrity import corrupt_buffer
from repro.core.protocol import encode_packet, packet_size_for, xor_reduce
from repro.elastic.repair import RepairExecutor, plan_repair
from repro.parallel.strategy import ParallelismSpec
from repro.parallel.topology import ClusterSpec
from repro.tensors.serialization import decompose_state_dict
from repro.tensors.state_dict import state_dicts_equal, tensor_items
from repro.tensors.tensor import GPU, SimTensor

K = M = 2


def make_testbed(scale=5e-5, seed=0):
    """The 4-node x 2-GPU, TP2/PP4, k = m = 2 testbed."""
    job = TrainingJob.create(
        "gpt2-h1024-L16",
        ClusterSpec(4, 2, nodes_per_rack=2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4),
        scale=scale,
        seed=seed,
    )
    return job, ECCheckEngine(job, ECCheckConfig(k=K, m=M))


def reference_version(engine, job, version):
    """``{(node, key): value}`` the oracles say ``version`` must hold."""
    world = job.world_size
    decomps = [decompose_state_dict(job.state_of(w)) for w in range(world)]
    size = packet_size_for(
        [d.tensor_bytes for d in decomps], engine.config.packet_alignment
    )
    packets = []
    for d in decomps:
        packet = np.zeros(size, dtype=np.uint8)
        packet[: d.tensor_bytes] = np.concatenate(d.tensor_data)
        packets.append(packet)
    plan = engine.placement
    expected = {}

    def chunk(node, kind, idx, r, payload):
        expected[(node, ("chunk", version, kind, idx, r))] = payload
        expected[(node, ("digest", version, kind, idx, r))] = zlib.crc32(
            payload.tobytes()
        )

    for group in engine.reduction_plan.groups:
        r = group.index
        encoded = [
            encode_packet(engine.code, j, packets[w])
            for j, w in enumerate(group.workers)
        ]
        for i, node in enumerate(plan.parity_nodes):
            chunk(node, "parity", i, r, xor_reduce([e[i] for e in encoded]))
        for j, node in enumerate(plan.data_nodes):
            chunk(node, "data", j, r, packets[plan.data_group[j][r]])
    for w, d in enumerate(decomps):
        for node in range(job.cluster.num_nodes):
            expected[(node, ("meta", version, w))] = (d.metadata_blob(), d.tensor_bytes)
    return expected


def stored(store, num_nodes):
    return {
        (node, key): store.get(node, key)
        for node in range(num_nodes)
        for key in store.keys(node)
        if key[0] in ("chunk", "digest", "meta")
    }


def assert_same_values(actual, expected):
    assert actual.keys() == expected.keys()
    for where, want in expected.items():
        got = actual[where]
        if isinstance(want, np.ndarray):
            assert got.dtype == np.uint8 and np.array_equal(got, want), where
        else:
            assert got == want, where


def test_stored_bytes_equal_the_reference_functions():
    job, engine = make_testbed()
    expected = {}
    for incremental in (False, False, False, True):
        job.advance(dirty_tensor_fraction=0.1 if incremental else 1.0)
        report = engine.save_incremental() if incremental else engine.save()
        assert ("dirty_fraction" in report.breakdown) == incremental
        expected.update(reference_version(engine, job, report.version))
    assert_same_values(stored(engine.host, 4), expected)
    # A restore rebuilds every state dict from unpickled metadata (new key
    # objects); the blob pickle writes next must still match the oracle's.
    job.fail_nodes({0, 1})
    engine.restore({0, 1})
    for incremental in (False, True):
        job.advance()
        report = engine.save_incremental() if incremental else engine.save()
        want = reference_version(engine, job, report.version)
        have = stored(engine.host, 4)
        assert_same_values({where: have[where] for where in want}, want)


def arrays_of(mapping):
    return {k: v for k, v in mapping.items() if isinstance(v, np.ndarray)}


def test_no_buffer_is_shared_between_owners():
    """Job state, the delta base, host chunks and disk chunks never alias."""
    job, engine = make_testbed()
    for _ in range(3):
        job.advance()
        engine.save()
    engine.demote_version(1)  # a move: v1's arrays now belong to the disk
    engine._promote_version(1, engine._whole(1, engine.disk))  # disk copy kept, memory gets its own
    # Workflow 1 rebuilds job state straight from the stored data chunks;
    # the saves after it hand their packets to the delta base.
    parity_node = engine.placement.parity_nodes[0]
    job.fail_nodes({parity_node})
    engine.restore({parity_node})
    for _ in range(2):
        job.advance(dirty_tensor_fraction=0.1)
        report = engine.save_incremental()
    assert "dirty_fraction" in report.breakdown  # the last one was a real delta

    assert_owners_disjoint(
        job,
        {
            "last_packets": dict(engine._delta_base.packets),
            "host": arrays_of(stored(engine.host, 4)),
            "disk": arrays_of(stored(engine.disk, 4)),
        },
    )
    assert engine._whole(report.version) is not None
    assert engine._whole(1, engine.disk) is not None


def assert_owners_disjoint(job, buffers):
    """Flip a byte in every buffer in turn: nothing else anywhere may move."""
    job_views = [
        t.writable_view() for w in range(job.world_size) for _, t in tensor_items(job.state_of(w))
    ]
    assert all(len(arrays) >= 8 for arrays in buffers.values())
    flat = [(name, key, a) for name, arrays in buffers.items() for key, a in arrays.items()]
    snapshot = [a.copy() for _, _, a in flat]
    job_snapshot = [v.copy() for v in job_views]

    def unchanged(except_index=None):
        return all(
            np.array_equal(array, before)
            for index, ((_, _, array), before) in enumerate(zip(flat, snapshot))
            if index != except_index
        )

    # One victim at a time: nothing else anywhere may change with it.
    for index, (name, key, victim) in enumerate(flat):
        corrupt_buffer(victim, victim.size // 2)
        assert unchanged(except_index=index), (name, key)
        assert all(np.array_equal(v, b) for v, b in zip(job_views, job_snapshot)), (name, key)
        corrupt_buffer(victim, victim.size // 2)  # flip back
    # And the other way: training on rewrites every tensor in place.
    for view in job_views:
        if view.size:
            corrupt_buffer(view, view.size // 2)
    assert unchanged()
    for view, before in zip(job_views, job_snapshot):
        view[:] = before
    # A restored worker's tensors are views of one buffer: flipping a byte
    # of one may move no other tensor of any worker and no buffer.  For
    # real at each worker's first and last tensor; for every tensor by
    # address: no two of these contiguous arrays may share a byte.
    everything = job_views + [array for _, _, array in flat]
    concatenated = np.concatenate(everything)
    offsets = np.cumsum([0] + [a.size for a in everything])
    counts = [len(list(tensor_items(job.state_of(w)))) for w in range(job.world_size)]
    firsts = np.cumsum([0] + counts[:-1])
    for index in {*firsts, *(firsts + np.array(counts) - 1)}:
        view = job_views[index]
        corrupt_buffer(view, view.size // 2)
        moved = np.flatnonzero(np.concatenate(everything) != concatenated)
        assert moved.tolist() == [offsets[index] + view.size // 2], index
        corrupt_buffer(view, view.size // 2)
    ranges = sorted((a.ctypes.data, a.nbytes) for a in everything if a.size)
    assert all(start + size <= after for (start, size), (after, _) in zip(ranges, ranges[1:]))


def crash_and_verify(job, engine, failed=frozenset({0, 2})):
    """Lose both data nodes; the last save must come back bit-exact."""
    committed = job.snapshot_states()
    job.advance()  # uncommitted work the failure destroys
    job.fail_nodes(set(failed))
    report = engine.restore(set(failed))
    assert report.version == engine.version
    for w, expected in committed.items():
        assert state_dicts_equal(job.state_of(w), expected), w


@pytest.mark.parametrize("incremental", [False, True], ids=["full", "delta"])
def test_layout_changes_between_saves_are_detected(incremental):
    job, engine = make_testbed()
    save = engine.save_incremental if incremental else engine.save
    rng = np.random.default_rng(1)

    def mutate_add(model):
        model["extra.weight"] = SimTensor(rng.standard_normal((7, 3)).astype("float32"), GPU)

    def mutate_reshape(model):
        t = model["extra.weight"]
        model["extra.weight"] = SimTensor(t.data.reshape(3, 7).copy(), GPU)

    def mutate_dtype(model):
        t = model["extra.weight"]
        model["extra.weight"] = SimTensor(t.data.view(np.int32).copy(), GPU)

    def mutate_swap_dtypes(model):
        # Same tensor count, same bytes: only the per-row dtypes moved.
        first, second = list(model)[:2]
        a, b = model[first], model[second]
        model[first] = SimTensor(a.data.view(np.uint16).copy(), GPU)
        model[second] = SimTensor(b.data.view(np.int16).copy(), GPU)

    def mutate_remove(model):
        del model["extra.weight"]
        del model[next(iter(model))]

    job.advance()
    save()
    for mutate in (mutate_add, mutate_reshape, mutate_dtype, mutate_swap_dtypes, mutate_remove):
        for worker in (0, 5):
            mutate(job.state_of(worker)["model"])
        job.advance()
        report = save()
        for worker in range(job.world_size):
            blob, length = engine.host.get(0, ("meta", report.version, worker))
            oracle = decompose_state_dict(job.state_of(worker))
            assert blob == oracle.metadata_blob(), (mutate.__name__, worker)
            assert length == oracle.tensor_bytes
        crash_and_verify(job, engine)


def version_bytes(engine, job):
    """Bytes one retained version may occupy across host + disk."""
    world = job.world_size
    decomps = [decompose_state_dict(job.state_of(w), offload_to_cpu=False) for w in range(world)]
    packet = packet_size_for(
        [d.tensor_bytes for d in decomps], engine.config.packet_alignment
    )
    metadata = job.cluster.num_nodes * sum(len(d.metadata_blob()) for d in decomps)
    return (K + M) / K * world * packet + metadata


@pytest.mark.parametrize("driver", ["manager", "engine_delta"])
def test_host_and_disk_bytes_stay_bounded_across_recoveries(driver):
    """12 x (4 saves + failure + restore) under TierPolicy(2, 1).

    Every recovery tears the older in-memory version; its remnants must be
    freed when they age out of the memory tier, not kept forever.
    """
    job, engine = make_testbed()
    policy = TierPolicy(memory_versions=2, disk_versions=1)
    manager = (
        CheckpointManager(job, engine, interval=1, tier_policy=policy)
        if driver == "manager"
        else None
    )
    plan = engine.placement
    patterns = [
        set(plan.parity_nodes[:1]),
        set(plan.data_nodes[:1]),
        set(plan.data_nodes[:2]),
        {plan.data_nodes[0], plan.parity_nodes[0]},
    ]
    bound = (policy.memory_versions + policy.disk_versions + 1) * version_bytes(engine, job)
    peak = 0

    def held():
        nonlocal peak
        total = engine.host.total_bytes + engine.disk.total_bytes
        peak = max(peak, total)
        assert total <= bound, (total / bound, engine.memory_versions())

    for cycle in range(12):
        for _ in range(4):
            job.advance(dirty_tensor_fraction=0.1 if manager is None else 1.0)
            if manager is not None:
                manager.step()
            else:
                engine.save_incremental()
                decision = policy.decide(
                    engine.memory_versions(),
                    engine.disk_versions(),
                    pinned=engine.delta_base_version(),
                )
                for version in decision.demote:
                    engine.demote_version(version)
                for version in decision.evict:
                    engine.evict_disk_version(version)
            held()
        committed = job.snapshot_states()
        failed = patterns[cycle % len(patterns)]
        job.advance()
        if manager is not None:
            report = manager.on_failure(set(failed))
        else:
            job.fail_nodes(set(failed))
            report = engine.restore(set(failed))
            pruned = engine.prune_memory_index()
            # Index only: pruning deletes nothing, the remnants age out later.
            assert all(
                any(key[1] == v for node in range(4) for key in engine.host.keys(node))
                for v in pruned
            )
        assert report.version == engine.version
        assert all(
            state_dicts_equal(job.state_of(w), committed[w]) for w in committed
        )
        held()
    # The bound is not vacuous: a torn remnant waiting to age out was held
    # on top of the retained versions at some point, yet nothing grew.
    retained = policy.memory_versions + policy.disk_versions
    assert peak > 0.75 * retained * version_bytes(engine, job)
    held_versions = {
        key[1]
        for store in (engine.host, engine.disk)
        for node in range(4)
        for key in store.keys(node)
    }
    assert len(held_versions) <= retained + 1


# ---------------------------------------------------------------------------
# Restore and repair: stored bytes against code.decode + code.encode
# ---------------------------------------------------------------------------
def sha_of(mapping):
    """sha-256 over every key + value, in key order."""
    digest = hashlib.sha256()
    for where in sorted(mapping, key=repr):
        value = mapping[where]
        digest.update(repr(where).encode())
        digest.update(
            value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode()
        )
    return digest.hexdigest()


def snapshot(store, num_nodes=4):
    return {
        where: value.copy() if isinstance(value, np.ndarray) else value
        for where, value in stored(store, num_nodes).items()
    }


def reference_packets(engine, version, before, erased, plan):
    """worker -> packet, by ``code.decode`` of the chunks not in ``erased``.

    ``before`` holds the version's save-time (epoch 0) chunks under ``plan``.
    """
    code = engine.code_for(plan.k, plan.m)
    nodes = list(plan.data_nodes) + list(plan.parity_nodes)
    packets = {}
    for r in range(len(plan.data_group[0])):
        available = {}
        for cid, node in enumerate(nodes):
            kind, idx = ("data", cid) if cid < plan.k else ("parity", cid - plan.k)
            if cid not in erased:
                available[cid] = before[(node, ("chunk", version, kind, idx, r))]
        for j, packet in enumerate(code.decode(available)):
            packets[plan.data_group[j][r]] = packet
    return packets


def reference_layout(engine, version, packets, plan, epoch=0):
    """``{(node, key): value}``: the chunks + digests ``code.encode`` lays out."""
    code = engine.code_for(plan.k, plan.m)
    expected = {}
    for r in range(len(plan.data_group[0])):
        data = [packets[plan.data_group[j][r]] for j in range(plan.k)]
        placed = [(plan.data_nodes[j], "data", j, data[j]) for j in range(plan.k)]
        placed += [
            (plan.parity_nodes[i], "parity", i, parity)
            for i, parity in enumerate(code.encode(data))
        ]
        for node, kind, idx, payload in placed:
            expected[(node, engine.chunk_key(version, kind, idx, r, epoch))] = payload
            expected[(node, engine.digest_key(version, kind, idx, r, epoch))] = (
                zlib.crc32(payload.tobytes())
            )
    return expected


def assert_host_equals(engine, expected):
    actual = stored(engine.host, 4)
    assert_same_values(actual, expected)
    assert sha_of(actual) == sha_of(expected)


#: name -> (failed nodes, chunk ids silently corrupted on survivors), as
#: functions of the placement: the four benchmark patterns, then rot.
RESTORE_SCENARIOS = {
    "parity1": lambda data, parity: ({parity[0]}, []),
    "data1": lambda data, parity: ({data[0]}, []),
    "data2": lambda data, parity: (set(data[:2]), []),
    "data1_parity1": lambda data, parity: ({data[0], parity[0]}, []),
    "corrupt_surviving_data": lambda data, parity: ({parity[1]}, [1]),
    "corrupt_surviving_parity": lambda data, parity: ({data[0]}, [K + 1]),
}


@pytest.mark.parametrize("scenario", RESTORE_SCENARIOS)
def test_restore_stores_what_decode_and_encode_produce(scenario):
    job, engine = make_testbed()
    for _ in range(3):
        job.advance()
        engine.save()
    engine.demote_version(1)
    version = engine.version
    committed = job.snapshot_states()
    plan = engine.placement
    nodes = list(plan.data_nodes) + list(plan.parity_nodes)
    failed, corrupted = RESTORE_SCENARIOS[scenario](plan.data_nodes, plan.parity_nodes)
    before = snapshot(engine.host)
    for cid in corrupted:
        kind, idx = ("data", cid) if cid < K else ("parity", cid - K)
        corrupt_buffer(engine.host.get(nodes[cid], ("chunk", version, kind, idx, 1)), 5)
    job.advance()  # uncommitted work the failure destroys
    job.fail_nodes(set(failed))
    report = engine.restore(set(failed))
    assert report.version == version

    erased = {cid for cid, node in enumerate(nodes) if node in failed} | set(corrupted)
    expected = {
        where: value
        for where, value in before.items()
        if where[0] not in failed and where[1][1] != version
    }
    expected.update(
        reference_layout(
            engine, version, reference_packets(engine, version, before, erased, plan), plan
        )
    )
    expected.update(
        {where: value for where, value in before.items() if where[1][:2] == ("meta", version)}
    )
    assert_host_equals(engine, expected)
    assert all(state_dicts_equal(job.state_of(w), committed[w]) for w in committed)
    assert engine.memory_versions() == [version]  # v2 lost a node: pruned
    assert_owners_disjoint(
        job,
        {
            "host": arrays_of(stored(engine.host, 4)),
            "disk": arrays_of(stored(engine.disk, 4)),
        },
    )


@pytest.mark.parametrize("relayout", [False, True], ids=["fill_gaps", "relayout"])
def test_repair_stores_what_decode_and_encode_produce(relayout):
    job, engine = make_testbed()
    job.advance()
    engine.save()
    committed = job.snapshot_states()
    source = engine.placement
    before = snapshot(engine.host)
    if relayout:
        # (2, 2) -> (1, 2) over three nodes: every target packet is staged.
        dead, generation = source.parity_nodes[1], 1
        engine.host.wipe(dead)
        engine.reconfigure(1, 2, active_nodes=[n for n in range(4) if n != dead])
        erased = {K + 1}
    else:
        # One data and one parity chunk gone: one decoded and one
        # re-encoded row per group, the rest stays where it is.
        dead, generation = None, 0
        engine.host.wipe(source.data_nodes[0])
        engine.host.wipe(source.parity_nodes[1])
        erased = {0, K + 1}
    target = engine.placement
    report = RepairExecutor(engine, plan_repair(engine, 1, target, generation)).run()
    assert report.items_repaired > 0

    expected = reference_layout(
        engine, 1, reference_packets(engine, 1, before, erased, source), target, generation
    )
    expected.update(
        {where: value for where, value in before.items()
         if where[1][0] == "meta" and where[0] != dead}
    )
    assert_host_equals(engine, expected)
    assert_owners_disjoint(job, {"host": arrays_of(stored(engine.host, 4))})
    lost = set(target.data_nodes[:1]) | set(target.parity_nodes[:1])
    job.advance()
    job.fail_nodes(lost)
    assert engine.restore(lost).version == 1
    assert all(state_dicts_equal(job.state_of(w), committed[w]) for w in committed)


def test_a_repair_cut_before_its_commit_shares_no_buffer():
    """A data packet the repair read in place is staged as a copy: until
    the commit flip collects the source epoch, both layouts' keys hold
    its bytes, and rot in one must not reach the other."""
    job, engine = make_testbed()
    job.advance()
    engine.save()
    dead = engine.placement.parity_nodes[1]
    engine.host.wipe(dead)
    engine.reconfigure(1, 2, active_nodes=[n for n in range(4) if n != dead])
    ledger = plan_repair(engine, 1, engine.placement, 1)
    with pytest.raises(InjectedCrash):
        RepairExecutor(engine, ledger, CrashInjector(CrashPlan("pre_commit"))).run()
    assert ledger.complete and not ledger.committed
    assert_owners_disjoint(job, {"host": arrays_of(stored(engine.host, 4))})


def _modules_loaded_by(imports):
    """`repro.*` modules a fresh interpreter holds after ``import <imports>``."""
    return subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, {imports};"
            "print([m for m in sys.modules if m.startswith('repro.')])",
        ],
        capture_output=True, text=True, check=True,
    ).stdout


def test_engine_and_repair_import_no_encoder_backend():
    """The engine runs one kernel: loading it must not load the pools.
    Nor may the CLI or the tracer — start-up is part of every run's
    `setup_s` — and neither pulls in the experiment drivers."""
    loaded = _modules_loaded_by("repro.core.eccheck, repro.elastic.repair")
    assert "repro.ec.base" in loaded
    for module in ("threadpool", "procpool"):
        assert f"repro.ec.{module}" not in loaded
    loaded = _modules_loaded_by("repro.cli, repro.obs")
    assert "repro.obs.provenance" in loaded
    for module in ("repro.ec.threadpool", "repro.ec.procpool", "repro.bench"):
        assert module not in loaded
