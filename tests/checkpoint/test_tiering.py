"""Tests for the tier placement policy (memory -> disk -> remote)."""

import pytest

from repro.errors import CheckpointError
from repro.checkpoint.tiering import TierDecision, TierPolicy


# ---------------------------------------------------------------------------
# TierPolicy.decide
# ---------------------------------------------------------------------------
def test_decide_demotes_versions_past_the_depth():
    policy = TierPolicy(memory_versions=2, disk_versions=8)
    decision = policy.decide([1, 2, 3, 4], [])
    assert decision.demote == (2, 1)  # newest-first past the depth
    assert decision.evict == ()


def test_decide_keeps_everything_within_depth():
    policy = TierPolicy(memory_versions=4)
    assert policy.decide([1, 2, 3], []) == TierDecision()


def test_decide_pins_the_delta_base():
    policy = TierPolicy(memory_versions=1)
    decision = policy.decide([1, 2, 3], [], pinned=2)
    assert 2 not in decision.demote
    assert decision.demote == (1,)


def test_decide_evicts_past_disk_depth():
    policy = TierPolicy(memory_versions=1, disk_versions=3)
    decision = policy.decide([4, 5], [1, 2, 3])
    # v4 demotes; disk would then hold {1,2,3,4} -> evict the oldest.
    assert decision.demote == (4,)
    assert decision.evict == (1,)


def test_decide_disk_depth_zero_evicts_every_demotion():
    policy = TierPolicy(memory_versions=1, disk_versions=0)
    decision = policy.decide([1, 2], [])
    assert decision.demote == (1,)
    assert decision.evict == (1,)


def test_policy_validation():
    with pytest.raises(CheckpointError):
        TierPolicy(memory_versions=0)
    with pytest.raises(CheckpointError):
        TierPolicy(disk_versions=-1)
