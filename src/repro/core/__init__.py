"""The ECCheck system: erasure-coded in-memory checkpointing.

Modules map one-to-one onto the paper's design sections:

* :mod:`repro.core.placement` — optimal data/parity node selection via the
  maximum-overlap interval pairing problem and a sweep-line solver
  (Sec. IV-B1).
* :mod:`repro.core.reduction` — reduction groups and optimal XOR-reduction
  target selection for the k=m / k>m / k<m cases (Sec. IV-B2).
* :mod:`repro.core.protocol` — the serialization-free encoding/decoding
  protocol over decomposed ``state_dict`` components (Sec. III-C).
* :mod:`repro.core.pipeline` — encode / XOR / P2P stages, run in line,
  and the pipelined makespan the bill uses (Sec. IV-C).
* :mod:`repro.core.scheduler` — checkpoint communication scheduling into
  profiled network idle slots (Sec. IV-B3).
* :mod:`repro.core.eccheck` — the engine tying it together
  (``initialize`` / ``save`` / ``load``), one module per concern:
  ``layout``, ``stored``, ``save``, ``tiers`` and ``restore`` (both
  recovery workflows, Sec. III-B).

Splitting a large cluster into node groups (the paper's future work) is
closed-form planning, not another engine: see :mod:`repro.analysis.grouping`.
"""

from repro.core.placement import (
    PlacementPlan,
    max_overlap_pairing_bruteforce,
    max_overlap_pairing_sweepline,
    select_data_parity_nodes,
)
from repro.core.reduction import ReductionGroup, ReductionPlan, build_reduction_plan
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.integrity import chunk_digest, verify_chunk
from repro.core.registry import build_engine, engine_names

__all__ = [
    "ECCheckConfig",
    "ECCheckEngine",
    "build_engine",
    "engine_names",
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
