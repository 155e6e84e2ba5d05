"""Recovery-rate math: the paper's Eqns. 1-2 and their generalisations.

With independent per-node failure probability ``p``:

* A **replication** unit of ``n`` nodes organised into ``n/G`` replication
  groups of size ``G`` recovers iff no group loses all members:
  ``R_rep = (1 - p^G)^(n/G)``.  For the paper's n=4, G=2 this expands to
  exactly Eqn. 1: ``(1-p)^4 + C(4,1) p (1-p)^3 + (C(4,2)-2) p^2 (1-p)^2``.
* An **erasure-coded** unit with ``m`` parity nodes out of ``n`` recovers
  iff at most ``m`` nodes fail: ``R_era = sum_{i<=m} C(n,i) p^i (1-p)^(n-i)``
  (Eqn. 2 for n=4, m=2).

Cluster-level rates (Fig. 3's 2000-node cluster of 500 groups) are the
per-group rate raised to the number of groups.  Monte-Carlo estimators
cross-check every closed form against direct failure sampling.
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.errors import ReproError
from repro.sim.failures import sample_node_failures


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ReproError(f"failure probability must be in [0, 1], got {p}")


def replication_recovery_rate(p: float, n: int = 4, group_size: int = 2) -> float:
    """Probability a replication unit recovers (generalised Eqn. 1).

    Args:
        p: per-node failure probability.
        n: nodes in the unit.
        group_size: replication group size ``G`` (2 = pairwise, GEMINI).

    Raises:
        ReproError: if ``group_size`` does not divide ``n``.
    """
    _check_p(p)
    if group_size < 1 or n % group_size:
        raise ReproError(
            f"group_size {group_size} must divide unit size {n}"
        )
    return float((1.0 - p**group_size) ** (n // group_size))


def erasure_recovery_rate(p: float, n: int = 4, m: int = 2) -> float:
    """Probability an erasure-coded unit survives (generalised Eqn. 2)."""
    _check_p(p)
    if not 0 <= m <= n:
        raise ReproError(f"m={m} out of range [0, {n}]")
    return float(
        sum(comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(m + 1))
    )


def cluster_recovery_rate(group_rate: float, num_groups: int) -> float:
    """Whole-cluster recovery: every group must recover independently."""
    if num_groups < 1:
        raise ReproError(f"num_groups must be >= 1, got {num_groups}")
    if not 0.0 <= group_rate <= 1.0:
        raise ReproError(f"group_rate must be in [0, 1], got {group_rate}")
    return float(group_rate**num_groups)


def montecarlo_recovery_rate(
    survives,
    n: int,
    p: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Estimate a recovery rate by direct failure injection.

    Args:
        survives: predicate ``set_of_failed_nodes -> bool``.
        n: nodes per unit.
        p: per-node failure probability.
        trials: Monte-Carlo samples.
        rng: numpy generator.
    """
    if trials < 1:
        raise ReproError(f"trials must be >= 1, got {trials}")
    hits = 0
    for _ in range(trials):
        failed = sample_node_failures(n, p, rng)
        if survives(failed):
            hits += 1
    return hits / trials


def replication_survives(failed: set[int], n: int = 4, group_size: int = 2) -> bool:
    """Survival predicate of a grouped-replication unit."""
    for start in range(0, n, group_size):
        group = set(range(start, start + group_size))
        if group <= failed:
            return False
    return True


def erasure_survives(failed: set[int], m: int = 2) -> bool:
    """Survival predicate of an erasure-coded unit."""
    return len(failed) <= m
