"""A lying commit record: what a wrong ``("meta", v, w)`` length does to a restore.

Every node holds ``("meta", version, worker) -> (metadata_blob, length)``
with no digest and no agreement between copies.  The length steers the
decode (blocks past it are skipped as padding) and bounds the install.
A restore reads the version's commit record once — per worker, the copy on
the lowest-numbered survivor — and the decode, the install and the rebuild
all read that one record.

Under the ``data1_parity1`` failure on the 4 x 2 testbed (a data node and
a parity node lost; chunk packets of data group 0 decoded) the lie below
sits on that survivor, so the restore reads it, and each lie is a typed
refusal that installs nothing: the install is all or nothing, so a length
that already steered the decode of *another* worker's packet cannot leave
that worker's wrong bytes behind.  A lie on a node the restore does not
read changes nothing (``test_lying_records.py`` sweeps every node, worker
and failure pattern).  A fallback to another node's copy of the record
would turn these refusals into recoveries: set the outcome in ``CASES`` to
``None`` for each case it covers.
"""

import pytest

from repro.errors import CheckpointError, DecodeError
from repro.tensors.state_dict import state_dicts_equal
from tests.core.test_save_bytes import make_testbed

#: Lost data chunk 0's worker in reduction group 0, and its partner there
#: (data chunk 1, whose chunk survives).
LOST, PARTNER = 0, 4

#: case -> (worker whose record lies, the lie, what the restore does).
CASES = {
    "short": (LOST, lambda length, packet: length - 64, DecodeError),
    "past_packet": (LOST, lambda length, packet: packet + 64, CheckpointError),
    "zero_on_partner": (PARTNER, lambda length, packet: 0, DecodeError),
}


def lie_then_fail(worker, lie, failed_of, liar_of):
    """Save, make ``liar_of(plan, failed)``'s record of ``worker`` lie, lose
    ``failed_of(plan)``: ``(job, engine, failed, committed, states before)``."""
    job, engine = make_testbed()
    job.advance()
    engine.save()
    committed = job.snapshot_states()
    plan = engine.placement
    assert plan.data_group[0][0] == LOST and plan.data_group[1][0] == PARTNER
    failed = failed_of(plan)
    key, liar = ("meta", engine.version, worker), liar_of(plan, failed)
    blob, length = engine.host.get(liar, key)
    engine.host.put(liar, key, (blob, lie(length, engine._delta_base.packets[0].nbytes)))
    job.advance()  # uncommitted work the failure destroys
    job.fail_nodes(failed)
    return job, engine, failed, committed, dict(job.state_dicts)


@pytest.mark.parametrize("case", CASES)
def test_a_lying_length_on_the_first_survivor_is_refused_whole(case):
    worker, lie, expected = CASES[case]
    job, engine, failed, committed, before = lie_then_fail(
        worker,
        lie,
        lambda plan: {plan.data_nodes[0], plan.parity_nodes[0]},
        lambda plan, failed: min(set(range(4)) - failed),
    )
    if expected is None:
        engine.restore(failed)
        assert all(state_dicts_equal(job.state_of(w), committed[w]) for w in committed)
        return
    with pytest.raises(expected):
        engine.restore(failed)
    assert all(job.state_dicts[w] is before[w] for w in before), "installed on a refusal"


def test_a_lying_length_only_the_decode_reads_is_never_installed():
    """Under ``data1`` the first holder of a surviving chunk (data node 1)
    is not the lowest survivor.  The decode used to read the record there
    and the install the lowest survivor's, so a zero length on the
    partner's record skipped its live blocks and the lost worker's wrong
    bytes installed without a refusal.  Both now read the same record."""
    job, engine, failed, committed, before = lie_then_fail(
        PARTNER,
        lambda length, packet: 0,
        lambda plan: {plan.data_nodes[0]},
        lambda plan, failed: plan.data_nodes[1],
    )
    assert min(set(range(4)) - failed) != engine.placement.data_nodes[1]
    try:
        engine.restore(failed)
    except (CheckpointError, DecodeError):
        pass
    installed = [w for w in before if job.state_dicts[w] is not before[w]]
    assert all(state_dicts_equal(job.state_dicts[w], committed[w]) for w in installed)
