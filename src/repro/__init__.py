"""ECCheck reproduction: erasure-coded in-memory checkpointing for distributed DNN training.

This package reproduces the system described in "ECCheck: Enhancing In-Memory
Checkpoint with Erasure Coding in Distributed DNN Training" (ICDCS 2025).

Layout
------
``repro.gf``
    Finite-field arithmetic over GF(2^8) and GF(2) bitmatrices.
``repro.ec``
    Erasure codes (Cauchy Reed-Solomon, Vandermonde RS, replication, XOR
    parity) plus block encoders and XOR schedules.
``repro.tensors``
    Simulated tensors, ``state_dict`` construction, serialization and the
    serialization-free decomposition used by ECCheck.
``repro.models``
    The paper's Table-I model zoo (GPT-2 / BERT / T5) and Adam optimizer
    state generation.
``repro.parallel``
    Cluster topology and TP/PP/DP hybrid-parallel sharding.
``repro.sim``
    Discrete-event cluster simulation: network links, training timelines
    with idle slots, and failure injection.
``repro.checkpoint``
    Baseline checkpoint engines (base1/base2/base3 from the paper) and
    storage models.
``repro.core``
    The ECCheck system itself: placement, reduction-target selection, the
    serialization-free protocol, pipelined execution, idle-slot scheduling
    and both recovery workflows.
``repro.analysis``
    Closed-form models from the paper (recovery rates, communication
    volume, time breakdowns).
``repro.bench``
    Experiment drivers that regenerate every table and figure.
"""

from repro._version import __version__

__all__ = ["__version__"]
