"""The ECCheck system: erasure-coded in-memory checkpointing.

Modules map one-to-one onto the paper's design sections:

* :mod:`repro.core.placement` — optimal data/parity node selection via the
  maximum-overlap interval pairing problem and a sweep-line solver
  (Sec. IV-B1).
* :mod:`repro.core.reduction` — reduction groups and optimal XOR-reduction
  target selection for the k=m / k>m / k<m cases (Sec. IV-B2).
* :mod:`repro.core.protocol` — the serialization-free encoding/decoding
  protocol over decomposed ``state_dict`` components (Sec. III-C).
* :mod:`repro.core.pipeline` — pipelined encode / XOR / P2P execution
  (Sec. IV-C).
* :mod:`repro.core.scheduler` — checkpoint communication scheduling into
  profiled network idle slots (Sec. IV-B3).
* :mod:`repro.core.eccheck` — the engine tying it together
  (``initialize`` / ``save`` / ``load``), including both recovery
  workflows (Sec. III-B).
"""

from repro.core.placement import (
    PlacementPlan,
    max_overlap_pairing_bruteforce,
    max_overlap_pairing_sweepline,
    select_data_parity_nodes,
)
from repro.core.reduction import ReductionGroup, ReductionPlan, build_reduction_plan
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.grouped import GroupedECCheckEngine, GroupingPlan, plan_grouping
from repro.core.integrity import chunk_digest, verify_chunk
from repro.core.registry import build_engine, engine_names

__all__ = [
    "ECCheckConfig",
    "ECCheckEngine",
    "build_engine",
    "engine_names",
    "GroupedECCheckEngine",
    "GroupingPlan",
    "plan_grouping",
    "chunk_digest",
    "verify_chunk",
    "PlacementPlan",
    "max_overlap_pairing_bruteforce",
    "max_overlap_pairing_sweepline",
    "select_data_parity_nodes",
    "ReductionGroup",
    "ReductionPlan",
    "build_reduction_plan",
]
