"""Tests for the recovery-rate math (Eqns. 1-2, Figs. 3 and 15)."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.analysis.recovery_rate import (
    cluster_recovery_rate,
    erasure_recovery_rate,
    erasure_survives,
    montecarlo_recovery_rate,
    replication_recovery_rate,
    replication_survives,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def eqn1_paper_form(p: float) -> float:
    """Eqn. 1 exactly as printed (n=4, pairwise replication)."""
    return (
        (1 - p) ** 4
        + comb(4, 1) * p * (1 - p) ** 3
        + (comb(4, 2) - 2) * p**2 * (1 - p) ** 2
    )


def eqn2_paper_form(p: float) -> float:
    """Eqn. 2 exactly as printed (n=4, m=2)."""
    return (
        (1 - p) ** 4
        + comb(4, 1) * p * (1 - p) ** 3
        + comb(4, 2) * p**2 * (1 - p) ** 2
    )


@given(p=probabilities)
def test_closed_form_matches_paper_eqn1(p):
    assert replication_recovery_rate(p, n=4, group_size=2) == pytest.approx(
        eqn1_paper_form(p), abs=1e-12
    )


@given(p=probabilities)
def test_closed_form_matches_paper_eqn2(p):
    assert erasure_recovery_rate(p, n=4, m=2) == pytest.approx(
        eqn2_paper_form(p), abs=1e-12
    )


@given(p=probabilities)
def test_paper_gap_identity(p):
    """The paper derives R_era - R_rep = 2 p^2 (1-p)^2."""
    gap = eqn2_paper_form(p) - eqn1_paper_form(p)
    assert gap == pytest.approx(2 * p**2 * (1 - p) ** 2, abs=1e-12)


@given(p=st.floats(min_value=0.001, max_value=0.999))
def test_erasure_always_at_least_replication(p):
    assert erasure_recovery_rate(p, 4, 2) >= replication_recovery_rate(p, 4, 2)


def test_boundary_probabilities():
    assert replication_recovery_rate(0.0) == 1.0
    assert erasure_recovery_rate(0.0) == 1.0
    assert replication_recovery_rate(1.0) == 0.0
    assert erasure_recovery_rate(1.0, n=4, m=4) == pytest.approx(1.0)


def test_cluster_rate_is_group_rate_power():
    assert cluster_recovery_rate(0.99, 500) == pytest.approx(0.99**500)
    with pytest.raises(ReproError):
        cluster_recovery_rate(0.5, 0)
    with pytest.raises(ReproError):
        cluster_recovery_rate(1.5, 10)


def test_fig3_advantage_widens_with_failure_rate():
    """Fig. 3: the EC advantage becomes more pronounced as p grows in the
    2000-node cluster (the recovery-rate *ratio* grows monotonically; the
    absolute gap peaks once replication has already collapsed)."""
    ratios = []
    for p in (0.01, 0.03, 0.05, 0.08):
        rep = cluster_recovery_rate(replication_recovery_rate(p), 500)
        era = cluster_recovery_rate(erasure_recovery_rate(p), 500)
        assert era >= rep
        ratios.append(era / rep)
    assert ratios == sorted(ratios)
    assert ratios[-1] > 100  # EC is dramatically more survivable at p=0.08


def test_fig15_capacity_gap_grows_with_nodes():
    """Fig. 15: at k=m=n/2, the EC advantage over paired replication grows
    with n (same redundancy on both sides)."""
    p = 0.1
    gaps = []
    for n in (4, 8, 16, 32):
        rep = replication_recovery_rate(p, n=n, group_size=2)
        era = erasure_recovery_rate(p, n=n, m=n // 2)
        assert era >= rep
        gaps.append(era - rep)
    assert gaps == sorted(gaps)


def test_parameter_validation():
    with pytest.raises(ReproError):
        replication_recovery_rate(-0.1)
    with pytest.raises(ReproError):
        replication_recovery_rate(0.1, n=4, group_size=3)
    with pytest.raises(ReproError):
        erasure_recovery_rate(0.1, n=4, m=5)
    with pytest.raises(ReproError):
        montecarlo_recovery_rate(lambda f: True, 4, 0.1, 0, np.random.default_rng(0))


def test_montecarlo_matches_closed_form_replication():
    rng = np.random.default_rng(42)
    p = 0.15
    estimate = montecarlo_recovery_rate(
        lambda failed: replication_survives(failed, n=4, group_size=2),
        n=4, p=p, trials=20000, rng=rng,
    )
    assert estimate == pytest.approx(replication_recovery_rate(p), abs=0.01)


def test_montecarlo_matches_closed_form_erasure():
    rng = np.random.default_rng(43)
    p = 0.15
    estimate = montecarlo_recovery_rate(
        lambda failed: erasure_survives(failed, m=2),
        n=4, p=p, trials=20000, rng=rng,
    )
    assert estimate == pytest.approx(erasure_recovery_rate(p), abs=0.01)


def test_montecarlo_against_real_engines():
    """The closed forms describe the actual engines: sample failure sets
    and check the real recoverability predicates."""
    from repro.checkpoint.job import TrainingJob
    from repro.checkpoint.replication import GeminiReplicationEngine
    from repro.core.eccheck import ECCheckConfig, ECCheckEngine
    from repro.parallel.strategy import ParallelismSpec
    from repro.parallel.topology import ClusterSpec

    job = TrainingJob.create(
        "gpt2-h1024-L16", ClusterSpec(4, 2),
        ParallelismSpec(tensor_parallel=2, pipeline_parallel=4), scale=5e-4,
    )
    base3 = GeminiReplicationEngine(job)
    ec = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    # Enumerate all 2-failure patterns: EC survives all 6, base3 only 4.
    import itertools

    ec_ok = base3_ok = 0
    for pair in itertools.combinations(range(4), 2):
        if erasure_survives(set(pair), m=2):
            ec_ok += 1
        if replication_survives(set(pair), n=4, group_size=2):
            base3_ok += 1
    assert ec_ok == 6
    assert base3_ok == 4
    # And the real engines agree with the predicates on one fatal pattern.
    base3.save()
    ec.save()
    job.fail_nodes({0, 1})
    from repro.errors import RecoveryError

    with pytest.raises(RecoveryError):
        base3.restore({0, 1})
    ec.restore({0, 1})  # must succeed
