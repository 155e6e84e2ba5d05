"""Recoverability oracle and post-recovery invariant checks.

Everything here re-derives, from raw storage contents only, what a
correct engine *must* do — deliberately without calling the engines'
own recovery helpers.  A campaign consults the oracle before asking the
engine to restore; disagreement in either direction is a finding:

* the engine refuses although the oracle proves a recoverable version
  exists (lost availability), or
* the engine "recovers" a version the oracle knows is torn or stale
  (lost correctness — the failure mode the torn-version walk-back fixes).

The oracle must run *before* ``restore`` is invoked: restoring wipes the
failed nodes' host stores, and the oracle reads the same survivor state
the engine will see.

Two storage rules carry every prediction and every check: a stored
payload is *missing*, *corrupt* or *whole* (:func:`_state` — an EC chunk
packet through :func:`_chunk_state`), and a writer's replicated payload
must be whole on its home or its cross-rack buddy node, under a commit
record identical on every survivor (:func:`_replicated`,
:func:`_committed` — the replica rule of anchors and gradient-log
entries).  Which rules an engine is judged by is one entry of
:data:`_RULES`, keyed by engine name; the hybrid engine's entry is
eccheck's, run on its inner engine, plus the gradient log's.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from repro.core.integrity import verify_chunk
from repro.tensors.state_dict import state_dicts_equal

#: Store-key kinds of one gradient-log entry and of one anchor packet:
#: payload, digest, metadata.
_GRAD_KINDS = ("grad", "graddig", "gradmeta")
_ANCHOR_KINDS = ("apkt", "adig", "ameta")
_REFUSED = ("refused", None, None)


# ----------------------------------------------------------------------
# The storage rules.
# ----------------------------------------------------------------------
def _state(store, node: int, keys: tuple) -> str:
    """``"missing"`` unless every key is on ``node``, ``"corrupt"`` unless
    the payload ``keys[0]`` passes the CRC stored under ``keys[1]``, else
    ``"whole"``."""
    if not all(store.contains(node, key) for key in keys):
        return "missing"
    if not verify_chunk(store.get(node, keys[0]), store.get(node, keys[1])):
        return "corrupt"
    return "whole"


def _chunk_state(
    store, engine, node: int, version: int, kind: str, idx: int, r: int,
    epoch: int | None = None,
) -> str:
    """The state of reduction-group packet ``r`` of a chunk on ``node``."""
    chunk = engine.chunk_key(version, kind, idx, r, epoch=epoch)
    return _state(
        store, node, (chunk, engine.digest_key(version, kind, idx, r, epoch=epoch))
    )


def _chunk_whole(store, engine, node, version, kind, idx, groups) -> bool:
    """Every reduction-group packet of a chunk whole on ``node``."""
    return all(
        _chunk_state(store, engine, node, version, kind, idx, r) == "whole"
        for r in range(groups)
    )


def _keys(kinds: tuple[str, ...], tag: int, worker: int) -> tuple:
    return tuple((kind, tag, worker) for kind in kinds)


def _replica_nodes(job, worker: int) -> tuple[int, int]:
    """A writer's home node and its cross-rack buddy."""
    from repro.gradrep.gradlog import buddy_of  # placement rule, not recovery

    home = job.node_of(worker)
    return home, buddy_of(home, job.cluster.num_nodes, job.cluster.nodes_per_rack)


def _replicated(engine, kinds, tag: int, live: set[int]) -> bool:
    """Every writer's payload whole on a live home-or-buddy node."""
    return all(
        any(
            _state(engine.host, node, _keys(kinds, tag, worker)) == "whole"
            for node in _replica_nodes(engine.job, worker)
            if node in live
        )
        for worker in range(engine.job.world_size)
    )


def _committed(engine, key: tuple, survivors) -> dict | None:
    """The commit record under ``key`` iff identical on *every* survivor
    (the commit rule of anchors and log entries alike)."""
    record = None
    for node in survivors:
        if not engine.host.contains(node, key):
            return None
        found = engine.host.get(node, key)
        if record is None:
            record = found
        elif found != record:
            return None
    return record


def _replica_violations(engine, kinds, tag: int, label: str) -> list[str]:
    """Each home or buddy copy that is not whole, named by ``label`` (a
    format string over ``worker``)."""
    return [
        f"{label.format(worker=worker)} {state} on node {node}"
        for worker in range(engine.job.world_size)
        for node in _replica_nodes(engine.job, worker)
        if (state := _state(engine.host, node, _keys(kinds, tag, worker)))
        != "whole"
    ]


def _group_writers(engine, group: list[int]) -> list[int]:
    """The writers hosted on a base3 replication group's nodes."""
    return [w for n in group for w in engine.job.cluster.workers_of(n)]


# ----------------------------------------------------------------------
# Recovery bases: (outcome, version, resume_iteration) a correct restore
# must land on before any log replay.
# ----------------------------------------------------------------------
def _tier_holds(engine, store, version: int, nodes) -> bool:
    """The commit rule on one tier, against the placement *this* version
    was written under (elastic regroups mean adjacent versions can
    differ): >= k chunks whole on ``nodes`` in host memory — every chunk
    on the disk tier, which outlives its node — and every worker's
    metadata record on one of ``nodes``."""
    plan = engine.placement_of(version)
    groups = len(plan.data_group[0])
    whole = (
        _chunk_whole(store, engine, node, version, kind, idx, groups)
        for kind, idx, node in plan.chunks
        if node in nodes
    )
    if store is engine.disk:
        if not all(whole):
            return False
    elif sum(whole) < plan.k:
        return False
    return all(
        any(store.contains(node, ("meta", version, worker)) for node in nodes)
        for worker in range(engine.job.world_size)
    )


def _remote_base(engine, survivors: list[int]) -> tuple:
    """Newest remote version holding every writer's blob."""
    for version in range(engine.version, 0, -1):
        if all(
            engine.remote.contains(("ckpt", version, worker))
            for worker in range(engine.job.world_size)
        ):
            return "backup", version, None
    return _REFUSED


def _eccheck_base(engine, survivors: list[int]) -> tuple:
    """Newest version first across memory and disk (memory preferred at
    equal version: no promotion cost), then the remote backup."""
    all_nodes = range(engine.job.cluster.num_nodes)
    for version in range(engine.version, 0, -1):
        if survivors and _tier_holds(engine, engine.host, version, survivors):
            return "memory", version, None
        if _tier_holds(engine, engine.disk, version, all_nodes):
            return "disk", version, None
    return _remote_base(engine, survivors)


def _replication_base(engine, survivors: list[int]) -> tuple:
    """base3: a survivor in every replication group and the version fully
    replicated across all survivors (full replication is base3's commit
    record — a torn broadcast leaves some survivor without a peer's key)."""
    live = set(survivors)
    groups = [(group, _group_writers(engine, group)) for group in engine.groups()]
    if any(not live.intersection(group) for group, _ in groups):
        return _REFUSED
    for version in range(engine.version, 0, -1):
        if all(
            engine.host.contains(peer, ("ckpt", version, w))
            for group, writers in groups
            for peer in group
            if peer in live
            for w in writers
        ):
            return "memory", version, None
    return _REFUSED


def _anchor_base(engine, survivors: list[int]) -> tuple:
    """gradrep: the ``("anchor", v)`` record identical on every survivor
    and every writer's full packet verified on a surviving home-or-buddy
    node."""
    if not survivors:
        return _REFUSED
    live = set(survivors)
    for version in range(engine.version, 0, -1):
        record = _committed(engine, ("anchor", version), survivors)
        if record is not None and _replicated(engine, _ANCHOR_KINDS, version, live):
            return "memory", version, int(record["iteration"])
    return _REFUSED


# ----------------------------------------------------------------------
# Gradient-stream oracle (gradrep / hybrid): the log's replay commit rule
# re-derived from raw host keys — deliberately without calling
# GradientLog's own query methods, so the hybrid campaign is a real
# differential test of the engine against an independent reading of the
# same bytes.
# ----------------------------------------------------------------------
def grad_stream_seqs(engine, survivors: list[int]) -> list[int]:
    """Every log seq with any trace in survivor storage, ascending."""
    seqs = set()
    for node in survivors:
        for key in engine.host.keys(node):
            if isinstance(key, tuple) and key[0] in (*_GRAD_KINDS, "gradcommit"):
                seqs.add(key[1])
    return sorted(seqs)


def expected_replay_tail(
    engine, base_version: int, survivors: list[int]
) -> list[dict]:
    """Commit records a correct replay must apply, in order.

    The walk ascends seqs found in raw storage and stops at the first
    entry that is torn (commit record missing or unequal on some
    survivor), bit-rotted (no verified surviving copy of some writer's
    delta) or based on a different version — everything after a gap
    XORs against the wrong predecessor state.
    """
    live = set(survivors)
    tail: list[dict] = []
    for seq in grad_stream_seqs(engine, survivors):
        record = _committed(engine, ("gradcommit", seq), survivors)
        if record is None or record["base_version"] != base_version:
            break
        if not _replicated(engine, _GRAD_KINDS, seq, live):
            break
        tail.append(record)
    return tail


# ----------------------------------------------------------------------
# Post-recovery invariant checks.  Each returns a list of violation
# strings (empty = invariant holds).
# ----------------------------------------------------------------------
def check_restored_states(job, expected_states: dict[int, dict]) -> list[str]:
    """Every worker live again, bit-identical to the checkpointed state."""
    violations = []
    for worker in range(job.world_size):
        state = job.state_dicts.get(worker)
        if state is None:
            violations.append(f"worker {worker} has no state after recovery")
            continue
        reference = expected_states.get(worker)
        if reference is None:
            violations.append(f"worker {worker} has no reference state")
        elif not state_dicts_equal(state, reference):
            violations.append(
                f"worker {worker} state differs from the checkpointed bytes"
            )
    return violations


def check_eccheck_redundancy(engine, version: int) -> list[str]:
    """All k + m chunks whole and metadata on every node again.

    Checked against the placement ``version`` was written under (or
    re-pointed to by a committed repair) and only on the nodes that
    placement uses — under a degraded regroup the chunk/metadata set
    lives entirely on the active subset.
    """
    plan = engine.placement_of(version)
    violations = [
        f"{kind} chunk {idx} packet {r} {state} on node {node}"
        for kind, idx, node in plan.chunks
        for r in range(len(plan.data_group[0]))
        if (state := _chunk_state(engine.host, engine, node, version, kind, idx, r))
        != "whole"
    ]
    return violations + [
        f"metadata for worker {worker} missing on node {node}"
        for node in engine.active_nodes
        for worker in range(engine.job.world_size)
        if not engine.host.contains(node, ("meta", version, worker))
    ]


def check_degraded_recoverable(engine, version: int) -> list[str]:
    """A degraded save must survive the loss of any m' further nodes.

    For every subset of ``m' = plan.m`` active nodes, the chunks whole on
    the remaining actives must still number >= k'.  With whole chunks on
    distinct nodes this is guaranteed combinatorially, but the check
    re-derives it from raw storage (missing/corrupt packets, double-
    hosted chunks and metadata gaps all surface here).
    """
    plan = engine.placement_of(version)
    groups = len(plan.data_group[0])
    active = engine.active_nodes
    holders = [
        node
        for kind, idx, node in plan.chunks
        if _chunk_whole(engine.host, engine, node, version, kind, idx, groups)
    ]
    violations = []
    for lost in combinations(active, plan.m):
        surviving_chunks = sum(1 for node in holders if node not in lost)
        if surviving_chunks < plan.k:
            violations.append(
                f"v{version}: losing nodes {sorted(lost)} leaves only "
                f"{surviving_chunks} of k={plan.k} chunks"
            )
    for worker in range(engine.job.world_size):
        nodes_with_meta = [
            n for n in active if engine.host.contains(n, ("meta", version, worker))
        ]
        if len(nodes_with_meta) < plan.m + 1:
            violations.append(
                f"v{version}: metadata for worker {worker} on only "
                f"{len(nodes_with_meta)} nodes (< m+1 = {plan.m + 1})"
            )
    return violations


def check_repair_ledger(ledger, engine, version: int) -> list[str]:
    """Crash consistency of a repair ledger against raw storage.

    Every item the ledger marked done must actually be present and pass
    digest verification — the store-then-mark ordering promises marked
    implies durable.  (The converse — present but unmarked — is fine:
    a crash between store and mark just redoes the transfer.)
    """
    return [
        f"ledger marked {item.kind}[{item.idx}].{item.r} done on "
        f"node {item.node} but the packet is {state}"
        for item in ledger.done_items()
        if (state := _chunk_state(
            engine.host, engine, item.node, version, item.kind, item.idx, item.r,
            ledger.epoch,
        )) != "whole"
    ]


def _replication_redundancy(engine, version: int) -> list[str]:
    """Every group member holds every group writer's snapshot again."""
    return [
        f"replica of worker {worker} missing on node {peer}"
        for group in engine.groups()
        for peer in group
        for worker in _group_writers(engine, group)
        if not engine.host.contains(peer, ("ckpt", version, worker))
    ]


def _anchor_redundancy(engine, version: int) -> list[str]:
    """The anchor record on every node, every packet on home *and* buddy."""
    violations = [
        f"anchor v{version} record missing on node {node}"
        for node in range(engine.job.cluster.num_nodes)
        if not engine.host.contains(node, ("anchor", version))
    ]
    label = f"anchor v{version} packet of worker {{worker}}"
    return violations + _replica_violations(engine, _ANCHOR_KINDS, version, label)


def _log_redundancy(engine) -> list[str]:
    """Every kept log entry back at full redundancy.

    After recovery the tail must tolerate the next failure like any
    fresh entry: commit record on every node, every writer's delta
    verified on home *and* buddy.
    """
    all_nodes = list(range(engine.job.cluster.num_nodes))
    violations = []
    for seq in grad_stream_seqs(engine, all_nodes):
        if _committed(engine, ("gradcommit", seq), all_nodes) is None:
            violations.append(
                f"log entry seq={seq} commit record not on every node"
            )
        label = f"log entry seq={seq} worker {{worker}} delta"
        violations += _replica_violations(engine, _GRAD_KINDS, seq, label)
    return violations


# ----------------------------------------------------------------------
# The dispatch table and the two entry points campaigns call.
# ----------------------------------------------------------------------
class _Rule(NamedTuple):
    """How the oracle judges one engine.

    ``base(engine, survivors)`` is the ``(outcome, version,
    resume_iteration)`` a correct restore lands on before any replay;
    ``redundancy(engine, version)`` lists what an in-memory recovery left
    below full redundancy; ``replays`` adds the gradient-log leg to both.
    """

    base: Callable
    redundancy: Callable
    replays: bool = False


def _on_inner(rule: Callable) -> Callable:
    return lambda engine, *args: rule(engine.inner, *args)


_ECCHECK = _Rule(_eccheck_base, check_eccheck_redundancy)
#: base1/base2 keep their redundancy remotely, checked by the base's walk.
_REMOTE = _Rule(_remote_base, lambda engine, version: [])

_RULES: dict[str, _Rule] = {
    "eccheck": _ECCHECK,
    "base1": _REMOTE,
    "base2": _REMOTE,
    "base3": _Rule(_replication_base, _replication_redundancy),
    "gradrep": _Rule(_anchor_base, _anchor_redundancy, replays=True),
    "hybrid": _Rule(
        _on_inner(_ECCHECK.base), _on_inner(_ECCHECK.redundancy), replays=True
    ),
}


def expected_recovery(engine, failed_nodes: set[int]) -> dict:
    """Full recovery prediction: outcome, version, replay depth, resume.

    Outcome is ``"memory"``, ``"disk"``, ``"backup"`` or ``"refused"``;
    the version is the exact checkpoint version the restore must land on
    (None when refusing is correct).  The tier hierarchy walks newest
    version first across memory and disk (a version lost from memory but
    demoted to disk recovers from disk), with the remote backup as the
    catastrophic fallback.  The temporal leg says how many log entries a
    correct engine must replay on top of the restored base and which
    absolute iteration the recovered state must correspond to
    (``resume_iteration=None`` when the engine has no replay notion or
    no committed tail survives — the manager's checkpoint ledger then
    rules).

    Raises:
        ValueError: for an engine the oracle has no rule for.
    """
    rule = _RULES.get(engine.name)
    if rule is None:
        raise ValueError(f"no oracle for engine {engine.name!r}")
    nodes = range(engine.job.cluster.num_nodes)
    survivors = [n for n in nodes if n not in failed_nodes]
    outcome, version, resume = rule.base(engine, survivors)
    tail = []
    if rule.replays and version is not None:
        tail = expected_replay_tail(engine, version, survivors)
    if tail:
        resume = int(tail[-1]["iteration"])
    return {
        "outcome": outcome,
        "version": version,
        "replayed": len(tail),
        "resume_iteration": resume,
    }


def expected_outcome(engine, failed_nodes: set[int]) -> tuple[str, int | None]:
    """``(outcome, version)`` of :func:`expected_recovery`."""
    pred = expected_recovery(engine, failed_nodes)
    return pred["outcome"], pred["version"]


def check_redundancy(engine, version: int, from_backup: bool) -> list[str]:
    """The engine's redundancy rule, after an in-memory recovery.

    Backup restores rebuild GPU state but not the in-memory layout, so
    redundancy is only asserted for in-memory recoveries.
    """
    rule = _RULES.get(engine.name)
    if from_backup or rule is None:
        return []
    violations = rule.redundancy(engine, version)
    return violations + _log_redundancy(engine) if rule.replays else violations
