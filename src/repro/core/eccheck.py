"""The ECCheck engine: erasure-coded in-memory checkpointing.

Implements the full system of the paper on top of the shared engine
interface: initialization (placement, reduction plan, code, buffers),
``save`` (the four-step checkpointing flow of Fig. 5) and ``restore``
(both recovery workflows of Fig. 7), all moving **real bytes** through the
real Cauchy Reed-Solomon code while reporting simulated full-scale timing.
Any ``k`` surviving chunks reconstruct every worker's packet, hence every
worker's ``state_dict``.

The engine is one class over five parts, one module per concern, each
holding the state only it writes: :mod:`~repro.core.layout` (the live and
per-version layouts), :mod:`~repro.core.stored` (the key layout and every
reader and writer of a stored version), :mod:`~repro.core.save`,
:mod:`~repro.core.tiers` and :mod:`~repro.core.restore`.

Crash consistency: the byte work (encode -> XOR -> P2P chunk placement)
runs *first* and the metadata broadcast runs *last*, as the commit record.
``restore`` only accepts a version whose metadata is complete on the
survivors (one reader, ``ECCheckEngine._records``, applies that rule and
hands the record it read to every later step), so a crash anywhere inside
``save`` — at any of the :data:`ECCheckEngine.crash_points`
fault-injection hooks — leaves a torn version that recovery provably
walks back past.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.checkpoint.base import CheckpointEngine
from repro.checkpoint.job import TrainingJob
from repro.core.layout import Layout
from repro.core.restore import Restores
from repro.core.save import Saves
from repro.core.stored import StoredVersions
from repro.core.tiers import Tiers


@dataclass(frozen=True)
class ECCheckConfig:
    """Tunables of the ECCheck engine (paper defaults).

    Attributes:
        k: number of data nodes.
        m: number of parity nodes (``k + m`` must equal the node count).
        encode_threads: CPU encoding threads the ``TimeModel`` bills
            encode/decode seconds for.
        use_sweepline_placement: pick data nodes by max-overlap sweep line
            (False = naive "first k nodes", the ablation baseline).
        use_pipelining: overlap encode / XOR / P2P per buffer (False =
            strictly sequential steps, the ablation baseline).
        packet_alignment: packets are padded to a multiple of this.

    :func:`repro.core.registry.build_engine` hands the config to every
    engine: non-EC engines ignore the coding parameters, and the hybrid
    engine feeds them to its inner EC core.  The code's field is not a
    tunable: every code runs GF(2^8) (:mod:`repro.gf.tables`).
    """

    k: int = 2
    m: int = 2
    encode_threads: int = 4
    use_sweepline_placement: bool = True
    use_pipelining: bool = True
    packet_alignment: int = 64


class ECCheckEngine(Layout, StoredVersions, Saves, Tiers, Restores, CheckpointEngine):
    """ECCheck (paper Sec. III-IV)."""

    name = "eccheck"

    #: Fault-injection hooks inside ``save``, in pipeline order: after a
    #: group's packets are encoded, after they are XOR-reduced, between
    #: individual chunk-packet placements (leaving torn chunks), after a
    #: group's transfer stage completes, and before/during the metadata
    #: broadcast that commits the version.
    crash_points = (
        "post_encode",
        "post_xor",
        "mid_p2p",
        "post_transfer",
        "pre_metadata_broadcast",
        "mid_metadata_broadcast",
    )

    def __init__(self, job: TrainingJob, config: ECCheckConfig | None = None):
        """Determine coding matrix, placement and communication strategy.

        Raises:
            CheckpointError: if (k, m) does not match the cluster or k does
                not divide the worker count.
        """
        super().__init__(job)
        self.config = config or ECCheckConfig()
        self._layouts = {}
        self._code_cache = {}
        self._dtype_names = defaultdict(list)
        self._chunk_versions = set()
        self._disk_versions = set()
        self._stale_versions = set()
        nodes = list(range(job.cluster.num_nodes))
        self._install_layout(self.config.k, self.config.m, nodes, None)
