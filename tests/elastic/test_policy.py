"""Tests for degraded-shape selection and the adaptive (k, m) policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.elastic.policy import (
    RedundancyPolicy,
    admissible_shapes,
    choose_degraded_shape,
)


# ---------------------------------------------------------------------------
# admissible_shapes / choose_degraded_shape
# ---------------------------------------------------------------------------
def test_admissible_shapes_best_parity_first():
    # 3 survivors of a world of 8: k must divide 8.
    assert admissible_shapes(3, 8, floor=1) == [(1, 2), (2, 1)]
    # Raising the floor prunes the low-parity tail.
    assert admissible_shapes(3, 8, floor=2) == [(1, 2)]
    assert admissible_shapes(3, 8, floor=3) == []


def test_choose_degraded_shape_prefers_current_m():
    # m'=2 is admissible but over-provisioned vs current_m=1 -> take (2, 1).
    assert choose_degraded_shape(3, 8, current_m=1) == (2, 1)
    assert choose_degraded_shape(3, 8, current_m=2) == (1, 2)


def test_choose_degraded_shape_over_provisions_before_refusing():
    # World 6, 4 survivors: k in {1, 2, 3}; with current_m=1 the only
    # admissible shapes force m' >= 1... pick a case where every shape
    # exceeds current_m: world 5, 4 survivors -> k=1 only, m'=3 > 1.
    assert choose_degraded_shape(4, 5, current_m=1) == (1, 3)


def test_choose_degraded_shape_refuses_below_floor():
    # 2 survivors, floor 2: only (k'=1, m'=1) clears divisibility, fails floor.
    assert choose_degraded_shape(2, 8, current_m=2, floor=2) is None
    # Single survivor can never hold parity above floor 1.
    assert choose_degraded_shape(1, 8, current_m=2, floor=1) is None
    # Floor 0 allows the parity-less single-survivor shape.
    assert choose_degraded_shape(1, 8, current_m=2, floor=0) == (1, 0)


def test_choose_degraded_shape_validates_inputs():
    with pytest.raises(CheckpointError):
        choose_degraded_shape(0, 8, current_m=1)
    with pytest.raises(CheckpointError):
        choose_degraded_shape(3, 0, current_m=1)
    with pytest.raises(CheckpointError):
        choose_degraded_shape(3, 8, current_m=1, floor=-1)


@given(
    n_active=st.integers(min_value=1, max_value=12),
    world=st.integers(min_value=1, max_value=64),
    current_m=st.integers(min_value=0, max_value=8),
    floor=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_chosen_shape_is_always_admissible(n_active, world, current_m, floor):
    shape = choose_degraded_shape(n_active, world, current_m, floor)
    if shape is None:
        return
    k, m = shape
    assert k + m == n_active
    assert k >= 1 and world % k == 0
    assert m >= floor


# ---------------------------------------------------------------------------
# RedundancyPolicy
# ---------------------------------------------------------------------------
def test_policy_needs_observations_before_recommending():
    policy = RedundancyPolicy(repair_window_s=900.0)
    assert policy.mtbf_estimate() is None
    assert policy.recommend(4, current_m=2, world_size=8) is None
    policy.observe_failure(0.0)
    assert policy.recommend(4, current_m=2, world_size=8) is None


def test_mtbf_is_span_over_intervals():
    policy = RedundancyPolicy()
    policy.observe_failure(0.0)
    policy.observe_failure(100.0)
    policy.observe_failure(300.0)
    assert policy.mtbf_estimate() == pytest.approx(150.0)


def test_simultaneous_failures_give_no_estimate():
    policy = RedundancyPolicy()
    policy.observe_failure(50.0, count=3)
    assert policy.mtbf_estimate() is None


def test_policy_rejects_time_regression_and_bad_count():
    policy = RedundancyPolicy()
    policy.observe_failure(10.0)
    with pytest.raises(CheckpointError):
        policy.observe_failure(5.0)
    with pytest.raises(CheckpointError):
        policy.observe_failure(20.0, count=0)


def test_recommend_moves_up_immediately():
    # MTBF 100s, window 300s -> target m = 3: adopt at once.
    policy = RedundancyPolicy(repair_window_s=300.0)
    policy.observe_failure(0.0)
    policy.observe_failure(100.0)
    assert policy.recommend(4, current_m=1, world_size=8) == (1, 3)


def test_recommend_steps_down_one_at_a_time():
    # MTBF 1000s, window 300s -> target m = 1; from m=3 only one step.
    policy = RedundancyPolicy(repair_window_s=300.0)
    policy.observe_failure(0.0)
    policy.observe_failure(1000.0)
    assert policy.recommend(4, current_m=3, world_size=8) == (2, 2)


def test_recommend_none_when_on_target_or_no_admissible_move():
    policy = RedundancyPolicy(repair_window_s=300.0)
    policy.observe_failure(0.0)
    policy.observe_failure(300.0)  # target m = 1
    assert policy.recommend(4, current_m=1, world_size=8) is None
    # World 7 with n=4: k in {1, 7}; moving from m=3 (k=1) has no other
    # admissible shape at or below the proposed step.
    assert policy.recommend(4, current_m=3, world_size=7) is None


def test_recommend_snaps_to_divisible_k():
    # Target m=2 from m=1 on a world of 6 with n=4: (k=2, m=2) is
    # admissible directly.
    policy = RedundancyPolicy(repair_window_s=600.0)
    policy.observe_failure(0.0)
    policy.observe_failure(400.0)  # MTBF 400 -> ceil(1.5) = 2
    assert policy.recommend(4, current_m=1, world_size=6) == (2, 2)


def test_policy_validates_construction():
    with pytest.raises(CheckpointError):
        RedundancyPolicy(repair_window_s=0.0)
    with pytest.raises(CheckpointError):
        RedundancyPolicy(max_m=0)
