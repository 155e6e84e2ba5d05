"""Elastic cluster membership for erasure-coded checkpointing.

Four cooperating pieces layered on the existing engines:

* :mod:`~repro.elastic.membership` — who is in the cluster: per-rank
  liveness.
* :mod:`~repro.elastic.repair` — background redundancy repair: when a
  spare joins, a planner derives the lost chunks from any ``k``
  survivors and puts them back through the engine's restore routine,
  tracked by a crash-consistent resumable ledger.
* :mod:`~repro.elastic.policy` — degraded-shape selection under a
  redundancy floor, plus an online MTBF-driven ``(k, m)`` recommender.
* :mod:`~repro.elastic.controller` — the cluster controller tying them
  together around a :class:`~repro.checkpoint.manager.CheckpointManager`.
"""

from repro.elastic.controller import ElasticClusterController
from repro.elastic.membership import MembershipView
from repro.elastic.policy import RedundancyPolicy, choose_degraded_shape
from repro.elastic.repair import RepairExecutor, RepairItem, RepairLedger, plan_repair

__all__ = [
    "ElasticClusterController",
    "MembershipView",
    "RedundancyPolicy",
    "RepairExecutor",
    "RepairItem",
    "RepairLedger",
    "choose_degraded_shape",
    "plan_repair",
]
