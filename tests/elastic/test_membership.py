"""Tests for the membership view."""

import pytest

from repro.errors import ShardingError
from repro.elastic.membership import MembershipView


def test_view_starts_at_full_strength():
    view = MembershipView(4)
    assert view.at_full_strength
    assert view.alive == [0, 1, 2, 3]
    assert view.dead == set()


def test_fail_returns_only_newly_dead():
    view = MembershipView(4)
    assert view.fail({1, 3}) == {1, 3}
    assert view.fail({3, 2}) == {2}
    assert view.alive == [0]
    assert not view.at_full_strength


def test_fail_out_of_range_rank_rejected():
    view = MembershipView(2)
    with pytest.raises(ShardingError):
        view.fail({2})
    with pytest.raises(ShardingError):
        view.fail({-1})


def test_join_restores_rank_and_rejects_live_rank():
    view = MembershipView(3)
    view.fail({1})
    view.join(1)
    assert view.at_full_strength
    with pytest.raises(ShardingError):
        view.join(1)


def test_view_rejects_empty_cluster():
    with pytest.raises(ShardingError):
        MembershipView(0)

