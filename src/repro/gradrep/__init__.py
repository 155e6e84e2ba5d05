"""Gradient-replication subsystem: the ``gradrep`` and ``hybrid`` engines.

The first engines whose recovery path is *temporal* (replay a replicated
per-iteration gradient log onto the last committed base state) rather
than spatial (reconstruct chunks from surviving redundancy).  See
DESIGN.md "Gradient replication & hybrid recovery".
"""

from repro.gradrep.engine import GradRepEngine
from repro.gradrep.gradlog import GradientLog, ReplicaStore, buddy_of
from repro.gradrep.hybrid import HybridEngine

__all__ = [
    "GradRepEngine",
    "GradientLog",
    "HybridEngine",
    "ReplicaStore",
    "buddy_of",
]
