"""Any single lying commit record is harmless or refused whole.

A restore resolves the version's commit record once: per worker, the
``(metadata_blob, length)`` of the lowest-numbered survivor holding one.
Its decode (blocks past a length are skipped as padding), its install (a
length bounds the bytes a worker's state is rebuilt from, a blob says how)
and its rebuild all read that one record.  So one lying copy of a record
can do one of two things: nothing — the restore reads another node's copy,
or the bytes tolerate the lie — or make the restore refuse with a typed
error before any state is replaced.  Never a silent wrong state.

The sweep is exhaustive on the 4 x 2 testbed (k = m = 2): every failure
pattern of at most ``m`` nodes (none included), every surviving node as
the liar (a failed node's lie is wiped with its memory), every worker's
record, and each lie in ``LIES``.
"""

from itertools import combinations

import pytest

from repro.errors import CheckpointError, DecodeError, RecoveryError
from repro.tensors.state_dict import state_dicts_equal
from tests.core.test_save_bytes import M, make_testbed

NODES = 4

#: lie -> the record it makes of ``(blob, length)`` in a ``packet``-byte packet.
LIES = {
    "short": lambda blob, length, packet: (blob, length - 64),
    "zero": lambda blob, length, packet: (blob, 0),
    "long_within_packet": lambda blob, length, packet: (blob, packet),
    "past_packet": lambda blob, length, packet: (blob, packet + 64),
    "rotten_blob": lambda blob, length, packet: (blob[: len(blob) // 2], length),
}

FAILURES = [set(f) for n in range(M + 1) for f in combinations(range(NODES), n)]


@pytest.fixture(scope="module")
def saved():
    """A testbed with one committed version, and everything to reset it."""
    job, engine = make_testbed()
    job.advance()
    engine.save()
    stored = {n: {key: engine.host.get(n, key) for key in engine.host.keys(n)} for n in range(NODES)}
    packet = engine._delta_base.packets[0].nbytes
    return job, engine, packet, job.snapshot_states(), dict(job.state_dicts), stored


def reset(job, engine, states, stored):
    """Back to just after the save (nothing in either is mutated in place:
    a restore replaces states and puts fresh buffers)."""
    job.state_dicts.update(states)
    for node, items in stored.items():
        engine.host.wipe(node)
        for key, value in items.items():
            engine.host.put(node, key, value)


@pytest.mark.parametrize("lie", LIES)
@pytest.mark.parametrize("failed", FAILURES, ids=lambda f: "+".join(map(str, sorted(f))) or "none")
def test_one_lying_record_is_harmless_or_refused_whole(saved, failed, lie):
    job, engine, packet, committed, states, stored = saved
    survivors = sorted(set(range(NODES)) - failed)
    version = engine.version
    for liar in survivors:
        for worker in range(job.world_size):
            reset(job, engine, states, stored)
            key = ("meta", version, worker)
            engine.host.put(liar, key, LIES[lie](*engine.host.get(liar, key), packet))
            job.fail_nodes(failed)
            before = dict(job.state_dicts)
            case = f"lie {lie} on node {liar}'s record of worker {worker}, nodes {sorted(failed)} lost"
            try:
                engine.restore(failed)
            except (DecodeError, CheckpointError, RecoveryError):
                # Only the record the restore reads may refuse it.
                assert liar == survivors[0], f"{case}: refused over a record it does not read"
                assert all(job.state_dicts[w] is before[w] for w in before), f"{case}: installed on a refusal"
            else:
                assert all(
                    state_dicts_equal(job.state_of(w), committed[w]) for w in committed
                ), f"{case}: wrong state installed"
