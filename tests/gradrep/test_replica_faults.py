"""Every single replica fault, judged by the oracle and by the ledger.

Anchors and gradient-log entries are both buddy-replicated records: a
payload, digest and metadata triple on the writer's home node and on its
cross-rack buddy, plus a commit record on every node.  One fault goes on
the newest anchor (gradrep) or the newest log entry (gradrep, hybrid):
a deleted payload key, a deleted commit record, one flipped payload bit,
or a commit record replaced by one that lies about its iteration.  Each
fault is tried on every node, with no failure and with each single node
failure.  The restore must land where the raw-storage oracle says; the
state it installs must equal the one the ledger captured at the
iteration it resumes from; and that iteration must be the one the
manager recorded — so a lie that fools the engine and the oracle alike
still fails.
"""

from __future__ import annotations

import pytest

from repro.chaos.harness import CommitLedger, build_testbed
from repro.chaos.invariants import check_restored_states, expected_recovery
from repro.checkpoint.manager import CheckpointManager
from repro.core.integrity import corrupt_buffer
from repro.errors import RecoveryError
from repro.gradrep import buddy_of

NODES = 4

#: record family -> (payload, commit) key kinds.
FAMILIES = {"anchor": ("apkt", "anchor"), "entry": ("grad", "gradcommit")}


def drop_payload(host, node, payload_key, commit_key):
    host.delete(node, payload_key)


def drop_commit(host, node, payload_key, commit_key):
    host.delete(node, commit_key)


def flip_bit(host, node, payload_key, commit_key):
    corrupt_buffer(host.get(node, payload_key), 0, mask=0x01)


def lie_commit(host, node, payload_key, commit_key):
    host.put(node, commit_key, {**host.get(node, commit_key), "iteration": 999})


FAULTS = [drop_payload, drop_commit, flip_bit, lie_commit]

CASES = [("gradrep", "anchor"), ("gradrep", "entry"), ("hybrid", "entry")]


def sweep():
    """Every case x faulted node x fault x (no failure or one lost node).

    Node 0 holds the faulted writer's home copy and node 2 its buddy
    copy; tier-1 runs faults on those two nodes with no failure or with
    the other copy's node lost, and ``-m tier2`` runs the rest.
    """
    for name, family in CASES:
        for node in range(NODES):
            for fault in FAULTS:
                for failed in [set()] + [{n} for n in range(NODES)]:
                    quick = node in (0, 2) and failed in (set(), {(node + 2) % NODES})
                    lost = "+".join(map(str, failed)) or "none"
                    yield pytest.param(
                        name, family, node, fault, failed,
                        marks=() if quick else pytest.mark.tier2,
                        id=f"{name}-{family}-node{node}-{fault.__name__}-lost_{lost}",
                    )


#: Steps trained before the fault.  With a save every third iteration
#: (1, 4, 7), six steps end on two log entries past the newest anchor,
#: and seven end on a fresh anchor — no replay past it can hide what its
#: commit record says.
STEPS = {"anchor": 7, "entry": 6}


def trained(name, steps):
    """The ledger of committed versions, and the state of every logged
    iteration."""
    job, engine = build_testbed(name, "gpt2-h1024-L16", 5e-4, 0)
    manager = CheckpointManager(job, engine, interval=3)
    ledger = CommitLedger(manager)
    logged = {}
    for _ in range(steps):
        job.advance()
        manager.step()
        if not ledger.drain():
            logged[job.iteration] = job.snapshot_states()
    return job, engine, manager, ledger, logged


def replica_writer(job, node):
    """The first writer with a home or buddy copy on ``node``."""
    cluster = job.cluster
    for worker in range(job.world_size):
        home = job.node_of(worker)
        if node in (home, buddy_of(home, cluster.num_nodes, cluster.nodes_per_rack)):
            return worker
    raise AssertionError(f"no replica on node {node}")


def recorded_iteration(manager, version, replayed):
    """The iteration the manager recorded for the base ``version`` plus
    ``replayed`` log entries on top of it."""
    if not replayed:
        return manager.iteration_of_version(version)
    entries = sorted(
        (r for r in manager.stats.replicate_reports if r.base_version == version),
        key=lambda r: r.seq,
    )
    return entries[replayed - 1].iteration


@pytest.mark.parametrize("name,family,node,fault,failed", sweep())
def test_one_replica_fault_is_judged_by_oracle_and_ledger(name, family, node, fault, failed):
    job, engine, manager, ledger, logged = trained(name, STEPS[family])
    tag = engine.version if family == "anchor" else engine.log.seqs[-1]
    payload, commit = FAMILIES[family]
    worker = replica_writer(job, node)
    fault(engine.host, node, (payload, tag, worker), (commit, tag))
    case = f"{name}: {fault.__name__} on the newest {family} on node {node}, lost {sorted(failed)}"

    predicted = expected_recovery(engine, failed)
    try:
        report = manager.on_failure(failed)
    except RecoveryError:
        assert predicted["outcome"] == "refused", f"{case}: refused, oracle says {predicted}"
        return
    observed = {"outcome": report.tier, "version": report.version, "replayed": report.replayed_iterations}
    assert observed == {k: predicted[k] for k in observed}, f"{case}: oracle says {predicted}"
    if predicted["resume_iteration"] is not None:
        assert report.resume_iteration == predicted["resume_iteration"], case

    iteration = recorded_iteration(manager, report.version, report.replayed_iterations)
    assert job.iteration == iteration, f"{case}: resumed at {job.iteration}"
    expected = logged[iteration] if report.replayed_iterations else ledger.states[report.version]
    assert check_restored_states(job, expected) == [], case


def test_a_lying_anchor_record_does_not_steer_the_resume_iteration():
    """An anchor's commit record counts only when every survivor holds an
    identical one: a rewritten copy tears the version, and the restore
    walks back instead of resuming at the iteration the lie names."""
    job, engine = build_testbed("gradrep", "gpt2-h1024-L16", 5e-4, 0)
    manager = CheckpointManager(job, engine, interval=1)
    for _ in range(2):
        job.advance()
        manager.step()
    engine.host.put(1, ("anchor", 2), {"iteration": 999})
    assert expected_recovery(engine, {0})["version"] == 1
    report = manager.on_failure({0})
    assert report.version == 1
    assert job.iteration == manager.iteration_of_version(1)
