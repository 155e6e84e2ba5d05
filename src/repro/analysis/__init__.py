"""Closed-form models from the paper, plus Monte-Carlo cross-checks.

* :mod:`repro.analysis.recovery_rate` — Eqns. 1-2 (replication vs erasure
  coding recovery rates), the cluster-level products behind Fig. 3, and
  the Fig. 15 capacity comparison.
* :mod:`repro.analysis.grouping` — the conclusion's future work: the
  optimal group-size planner over those formulas, and rack-aligned vs
  rack-transversal group layouts with their survival predicate.
* :mod:`repro.analysis.overhead` — the Sec. V-F communication-volume
  accounting (XOR reduction, P2P data, P2P parity; total ``m * s * W``).
* :mod:`repro.analysis.breakdown` — helpers that turn engine reports into
  the Fig. 11 time breakdown and the Fig. 4 serialization-fraction model.
"""

from repro.analysis.recovery_rate import (
    cluster_recovery_rate,
    erasure_recovery_rate,
    montecarlo_recovery_rate,
    replication_recovery_rate,
)
from repro.analysis.grouping import (
    GroupingPlan,
    plan_grouping,
    rack_aligned_groups,
    rack_failure_survivable,
    rack_transversal_groups,
)
from repro.analysis.overhead import (
    CommVolume,
    communication_volume,
    per_device_comm_bytes,
)
from repro.analysis.breakdown import (
    normalise_breakdown,
    serialization_fraction,
    sum_breakdowns,
)

__all__ = [
    "cluster_recovery_rate",
    "erasure_recovery_rate",
    "montecarlo_recovery_rate",
    "replication_recovery_rate",
    "GroupingPlan",
    "plan_grouping",
    "rack_aligned_groups",
    "rack_failure_survivable",
    "rack_transversal_groups",
    "CommVolume",
    "communication_volume",
    "per_device_comm_bytes",
    "normalise_breakdown",
    "serialization_fraction",
    "sum_breakdowns",
]
