"""The ECCheck engine: erasure-coded in-memory checkpointing.

Implements the full system of the paper on top of the shared engine
interface: ``initialize`` (placement, reduction plan, code, buffers),
``save`` (the four-step checkpointing flow of Fig. 5) and ``restore``
(both recovery workflows of Fig. 7), all moving **real bytes** through the
real Cauchy Reed-Solomon code while reporting simulated full-scale timing.

Checkpoint layout in host memory after ``save``:

* every node: ``("meta", version, worker) -> (metadata_blob, length)`` —
  the broadcast serialization-free metadata;
* data node ``j``: ``("chunk", version, "data", j, r) -> packet`` for each
  reduction group ``r`` (together: data chunk ``D_j``);
* parity node ``i``: ``("chunk", version, "parity", i, r) -> packet``
  (together: parity chunk ``P_i``).

Chunk/digest keys grow an epoch suffix after a committed layout-changing
repair (see :meth:`ECCheckEngine.chunk_key`): repairs stream into staging
keys and the placement/epoch flip makes them authoritative atomically, so
a mid-repair crash can never corrupt the old layout's bytes.

Any ``k`` surviving chunks reconstruct every worker's packet, hence every
worker's ``state_dict``.

Crash consistency: the byte work (encode -> XOR -> P2P chunk placement)
runs *first* and the metadata broadcast runs *last*, as the commit record.
``restore`` only accepts a version whose metadata is complete on the
survivors (one reader, :meth:`ECCheckEngine._records`, applies that rule
and hands the record it read to every later step), so a crash anywhere
inside ``save`` — at any of the
:data:`~repro.core.eccheck.ECCheckEngine.crash_points` fault-injection
hooks — leaves a torn version that recovery provably walks back past.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace as dataclass_replace

import numpy as np

from repro import obs
from repro.errors import CheckpointError
from repro.checkpoint.base import (
    CheckpointEngine,
    DemotionReport,
    RecoveryReport,
    SaveReport,
)
from repro.checkpoint.job import TrainingJob
from repro.checkpoint.storage import _nbytes
from repro.core.incremental import packet_delta
from repro.core.integrity import chunk_digest, live_prefix, patch_digest, verify_chunk
from repro.core.placement import (
    PlacementPlan,
    build_data_group,
    regroup_plan,
)
from repro.core.pipeline import (
    STAGE_TRANSFER,
    PipelinedRunner,
    pipeline_makespan,
    serial_makespan,
)
from repro.core.protocol import (
    decode_group_into,
    derived_digest,
    encode_group_into,
    packet_size_for,
    packetise,
    restore_state_dict,
    xor_rows,
)
from repro.core.reduction import ReductionPlan, build_reduction_plan
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.sim.network import TransferRequest, gbps
from repro.sim.timeline import Interval, merge_intervals
from repro.tensors.serialization import Decomposition, decompose_state_dict
from repro.tensors.tensor import GPU

#: Size of one data/encoding buffer (64 MB in the paper's settings); sets
#: the pipelining granularity of step 3.
BUFFER_BYTES = 64 * 2**20


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


class ECCheckEngine(CheckpointEngine):
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
        super().__init__(job)
        self.config = config or ECCheckConfig()
        if job.strategy.data_parallel != 1 and job.sharding_style != "fsdp":
            raise CheckpointError(
                "ECCheckEngine expects data_parallel == 1 (or FSDP sharding); "
                "replicated data parallelism already duplicates state "
                "(see paper Sec. III-A)"
            )
        self.placement: PlacementPlan | None = None
        self.reduction_plan: ReductionPlan | None = None
        self.code: CauchyRSCode | None = None
        self._last_packets: dict[int, np.ndarray] = {}
        self._last_full_version: int | None = None
        #: Committed versions whose chunks are resident in host memory /
        #: in the local-disk tier.  Advisory indices for the tier policy
        #: (candidates for demotion/eviction); the restore walk re-derives
        #: availability from raw storage and never trusts them.
        self._chunk_versions: set[int] = set()
        self._disk_versions: set[int] = set()
        #: Versions :meth:`prune_memory_index` dropped (torn, never
        #: demotable); :meth:`demote_version` frees their remnants.
        self._stale_versions: set[int] = set()
        #: worker -> layout cache of :func:`decompose_state_dict`.
        self._dtype_names: defaultdict[int, list] = defaultdict(list)
        #: Ranks currently hosting chunks (all of them at full strength;
        #: a subset after an elastic degraded :meth:`reconfigure`).
        self.active_nodes: list[int] = list(range(job.cluster.num_nodes))
        #: worker -> hosting rank override for workers whose home rank is
        #: inactive (degraded oversubscription); None = job topology.
        self._node_of_worker: dict[int, int] | None = None
        #: Placement each version's chunks were laid out under.  Recorded
        #: at save *start* so torn versions map to the plan they used;
        #: versions predating the map fall back to the current placement.
        self._placement_of_version: dict[int, PlacementPlan] = {}
        #: Storage epoch per version: 0 = the save-time keys; a committed
        #: layout-changing repair bumps it to its generation so staged
        #: chunks become authoritative only at the placement flip.
        self._epoch_of_version: dict[int, int] = {}
        self._code_cache: dict[tuple[int, int], CauchyRSCode] = {}
        self.initialize()

    # ------------------------------------------------------------------
    # eccheck.initialize
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Determine coding matrix, placement and communication strategy.

        Raises:
            CheckpointError: if (k, m) does not match the cluster or k does
                not divide the worker count.
        """
        n = self.job.cluster.num_nodes
        self._install_layout(self.config.k, self.config.m, list(range(n)), None)

    # ------------------------------------------------------------------
    # Elastic reconfiguration: regroup to a (possibly shrunk) shape.
    # ------------------------------------------------------------------
    def reconfigure(
        self,
        k: int,
        m: int,
        active_nodes: list[int] | None = None,
        node_of_worker: dict[int, int] | None = None,
    ) -> PlacementPlan:
        """Re-derive placement, reduction plan and code for a new shape.

        Elastic membership uses this in two ways: *degraded regrouping*
        (``k + m == len(active_nodes) < num_nodes`` after unreplaced
        failures) and *adaptive (k, m) reconfiguration* at full strength.
        Future saves use the new layout; already-saved versions keep the
        placement they were written under (see :meth:`placement_of`), so
        restores of old versions still find their chunks.

        Args:
            k: data-node count; must divide the world size (the XOR
                reduction plan needs equal groups).
            m: parity-node count; ``k + m`` must equal the active count.
            active_nodes: ranks hosting chunks (default: all ranks).
            node_of_worker: hosting rank per worker.  Defaults to the job
                topology, with workers of inactive ranks rescheduled
                round-robin over the active ranks.

        Returns:
            The new :class:`PlacementPlan`.

        Raises:
            CheckpointError: for an inconsistent shape.
        """
        n = self.job.cluster.num_nodes
        active = sorted(active_nodes) if active_nodes is not None else list(range(n))
        if not active:
            raise CheckpointError("reconfigure needs at least one active node")
        plan = self._install_layout(k, m, active, node_of_worker)
        self.config = dataclass_replace(self.config, k=k, m=m)
        # A regroup invalidates the delta base (chunk layout changed).
        self._last_packets = {}
        self._last_full_version = None
        tracer = obs.get_tracer()
        if tracer.enabled:
            tracer.event(
                "reconfigure",
                engine=self.name,
                k=k,
                m=m,
                active_nodes=list(active),
            )
        return plan

    def _install_layout(
        self,
        k: int,
        m: int,
        active: list[int],
        node_of_worker: dict[int, int] | None,
    ) -> PlacementPlan:
        """Check a ``(k, m)`` shape over the ``active`` ranks, then derive and
        install its placement, reduction plan and code.

        The sweep line (or the naive "first k" ablation) picks data nodes
        among ``active``.  ``node_of_worker`` defaults to the job topology,
        with workers of inactive ranks rescheduled round-robin over the
        active ones.  Nothing is installed when a check fails.

        Raises:
            CheckpointError: for an inconsistent shape.
        """
        if k + m != len(active):
            raise CheckpointError(
                f"k + m = {k + m} must equal active node count {len(active)}"
            )
        if k < 1 or m < 0:
            raise CheckpointError(f"bad code shape k={k}, m={m}")
        world = self.job.world_size
        if world % k:
            raise CheckpointError(f"k={k} must divide world size {world}")
        if self.config.use_sweepline_placement:
            plan = regroup_plan(self.job.cluster.origin_groups(), active, k)
        else:
            plan = PlacementPlan(
                data_nodes=active[:k],
                parity_nodes=active[k:],
                data_group=build_data_group(world, k),
            )
        homes = [self.job.node_of(w) for w in range(world)]
        if node_of_worker is None:
            active_set = set(active)
            node_of_worker = {
                w: home if home in active_set else active[w % len(active)]
                for w, home in enumerate(homes)
            }
        self.placement = plan
        self.reduction_plan = build_reduction_plan(plan, node_of_worker)
        self.code = self.code_for(k, m)
        self.active_nodes = active
        identity = all(node_of_worker[w] == home for w, home in enumerate(homes))
        self._node_of_worker = None if identity else dict(node_of_worker)
        return plan

    def code_for(self, k: int, m: int) -> CauchyRSCode:
        """The (cached) Cauchy RS code for a chunk shape, on the XOR-minimised
        generator (Sec. IV-A): parity 0 is the plain XOR of the data chunks,
        and at (2, 2) one coefficient of four needs a multiplication."""
        key = (k, m)
        if key not in self._code_cache:
            self._code_cache[key] = CauchyRSCode(CodeParams(k=k, m=m), good_matrix=True)
        return self._code_cache[key]

    def placement_of(self, version: int) -> PlacementPlan:
        """The placement ``version``'s chunks were laid out under."""
        assert self.placement is not None
        return self._placement_of_version.get(version, self.placement)

    def set_placement_of(
        self, version: int, plan: PlacementPlan, epoch: int | None = None
    ) -> None:
        """Re-point a version at a new layout (after a committed repair).

        The flip is the repair's commit record: chunks streamed under a
        staging ``epoch`` become the version's authoritative bytes here,
        atomically with the placement (no crash point sits between).
        """
        self._placement_of_version[version] = plan
        if epoch is not None:
            self._epoch_of_version[version] = epoch

    def commit_repair(
        self, version: int, plan: PlacementPlan, epoch: int, records: list[tuple]
    ) -> None:
        """Commit a repair that put ``version`` back together as ``plan``
        lays it out, under storage ``epoch``.

        Every node of ``plan`` gets the commit ``records`` first; the flip
        (:meth:`set_placement_of`) comes last, mirroring the save's
        metadata-last rule.  A superseded epoch's chunks are dead weight
        once it lands and are collected: a crash before the flip leaves
        the old epoch whole for restore, a crash after merely leaks.
        """
        source_epoch = self.epoch_of(version)
        self._put_records(version, records, sorted({*plan.data_nodes, *plan.parity_nodes}))
        self.set_placement_of(version, plan, epoch)
        if source_epoch != epoch:
            self._move(version, self.host, epoch=source_epoch)

    def epoch_of(self, version: int) -> int:
        """The storage epoch the version's authoritative chunks live under."""
        return self._epoch_of_version.get(version, 0)

    def chunk_key(
        self, version: int, kind: str, idx: int, r: int, epoch: int | None = None
    ) -> tuple:
        """Host-store key of one chunk packet (epoch-suffixed when > 0)."""
        epoch = self.epoch_of(version) if epoch is None else epoch
        base = ("chunk", version, kind, idx, r)
        return base if epoch == 0 else base + (epoch,)

    def digest_key(
        self, version: int, kind: str, idx: int, r: int, epoch: int | None = None
    ) -> tuple:
        """Host-store key of a chunk packet's digest record."""
        epoch = self.epoch_of(version) if epoch is None else epoch
        base = ("digest", version, kind, idx, r)
        return base if epoch == 0 else base + (epoch,)

    def node_hosting(self, worker: int) -> int:
        """Rank hosting ``worker`` (degraded override or job topology)."""
        if self._node_of_worker is not None:
            return self._node_of_worker[worker]
        return self.job.node_of(worker)

    # ------------------------------------------------------------------
    # Worker indexing within the placement
    # ------------------------------------------------------------------
    def group_and_index(
        self, worker: int, plan: PlacementPlan | None = None
    ) -> tuple[int, int]:
        """(data group j, relative index r) of a worker's packet."""
        plan = plan if plan is not None else self.placement
        assert plan is not None
        for j, members in enumerate(plan.data_group):
            if worker in members:
                return j, members.index(worker)
        raise CheckpointError(f"worker {worker} not in any data group")

    def logical_packet_bytes(self) -> int:
        """Full-scale packet size: the largest shard, aligned."""
        return packet_size_for(
            [self.job.logical_shard_bytes(w) for w in self.job.writers],
            self.config.packet_alignment,
        )

    # ------------------------------------------------------------------
    # Chunk storage with integrity digests
    # ------------------------------------------------------------------
    def _store_chunk_packet(
        self,
        node: int,
        version: int,
        kind: str,
        idx: int,
        r: int,
        payload: np.ndarray,
        digest: int | None = None,
        epoch: int | None = None,
        live: int | None = None,
    ) -> None:
        """Store one chunk packet plus its CRC digest in a node's host RAM.

        ``digest`` is for a caller that derived it (a delta save); by
        default the payload (``live`` bytes, then zeros) is CRC'd here.
        ``epoch`` lets a repair stream into staging keys while the
        version's authoritative epoch still points at the old bytes.
        """
        if digest is None:
            digest = chunk_digest(payload, live)
        self.host.put(node, self.chunk_key(version, kind, idx, r, epoch), payload)
        self.host.put(node, self.digest_key(version, kind, idx, r, epoch), digest)

    # ------------------------------------------------------------------
    # One view of a stored version: its commit record, its whole chunks,
    # and the mover that carries its keys between tiers.
    # ------------------------------------------------------------------
    def _records(self, version: int, nodes, store=None) -> list[tuple] | None:
        """``version``'s commit record: per worker, the ``(metadata_blob,
        length)`` of the first node in ``nodes`` (in that order) holding
        one in ``store`` (default: host memory).  None when some worker's
        is on none of them — the commit rule: such a version is torn.

        An operation resolves it once and hands it down, so every step
        that reads a length or a blob (decode, install, rebuild, delta,
        promotion, repair) sees the same record.
        """
        store = store or self.host
        records = []
        for worker in range(self.job.world_size):
            key = ("meta", version, worker)
            holder = next((node for node in nodes if store.contains(node, key)), None)
            if holder is None:
                return None
            records.append(store.get(holder, key))
        return records

    def _put_records(self, version: int, records: list[tuple], nodes) -> None:
        """Every node in ``nodes`` holds the operation's one record."""
        for worker, record in enumerate(records):
            for node in nodes:
                self.host.put(node, ("meta", version, worker), record)

    def _survey(
        self, version: int, nodes, store=None, verify: bool = True, records=None
    ) -> dict[int, int]:
        """``version``'s chunks whole on ``nodes``: chunk id (0..k-1 data,
        k.. parity) -> the node its placement put it on.

        Whole means every packet and digest record of the chunk is in
        ``store`` (default: host memory) under the version's epoch and,
        with ``verify``, every packet passes its digest.  ``records`` only
        tell a check where each packet's padding starts, which makes it
        cheaper and never changes its verdict.
        """
        store = store or self.host
        plan = self.placement_of(version)
        groups = range(len(plan.data_group[0]))
        placed = [("data", j, node) for j, node in enumerate(plan.data_nodes)]
        placed += [("parity", i, node) for i, node in enumerate(plan.parity_nodes)]
        whole = {}
        for cid, (kind, idx, node) in enumerate(placed):
            keys = [
                (self.chunk_key(version, kind, idx, r), self.digest_key(version, kind, idx, r))
                for r in groups
            ]
            if node not in nodes or not all(store.contains(node, k) for pair in keys for k in pair):
                continue
            if verify and not all(
                verify_chunk(
                    store.get(node, chunk),
                    store.get(node, digest),
                    self.live_bytes(plan, records, kind, idx, r),
                )
                for r, (chunk, digest) in zip(groups, keys)
            ):
                continue
            whole[cid] = node
        return whole

    def _whole(self, version: int, store=None, verify: bool = True) -> list[tuple] | None:
        """``version``'s commit record if it is intact in a tier — all ``k +
        m`` chunks whole in ``store`` and the record complete on its nodes
        — else None."""
        plan = self.placement_of(version)
        nodes = range(self.job.cluster.num_nodes)
        records = self._records(version, nodes, store)
        if records is None:
            return None
        whole = self._survey(version, nodes, store, verify, records)
        return records if len(whole) == plan.k + plan.m else None

    def decodable(self, version: int, nodes) -> tuple[list[tuple], dict[int, int]] | None:
        """Whether ``version`` can be decoded from ``nodes`` alone: its
        commit record is complete there and at least ``k`` of its chunks
        are whole there.  Returns ``(records, whole)`` — the record every
        later step reads and the whole chunks (id -> node) — or None.
        """
        records = self._records(version, nodes)
        if records is None:
            return None
        whole = self._survey(version, nodes, records=records)
        return (records, whole) if len(whole) >= self.placement_of(version).k else None

    def _move(
        self, version: int, src, dst=None, copy: bool = False, epoch: int | None = None
    ) -> list[int]:
        """Carry ``version``'s keys out of tier ``src``, node by node.

        Every chunk, digest and metadata key of the version (with
        ``epoch``: only its chunk and digest keys of that storage epoch)
        is put into tier ``dst`` — a copy, the ``src`` key kept, when
        ``copy``: tiers must not share a buffer a fault could rot — and
        deleted from ``src`` unless ``copy``; with no ``dst`` it is only
        deleted.  Returns the bytes moved per node.
        """
        kinds = ("chunk", "digest", "meta") if epoch is None else ("chunk", "digest")
        moved = [0] * self.job.cluster.num_nodes
        for node in range(len(moved)):
            for key in src.keys(node):
                if not (
                    isinstance(key, tuple)
                    and len(key) >= 2
                    and key[0] in kinds
                    and key[1] == version
                    and (epoch is None or (key[5] if len(key) > 5 else 0) == epoch)
                ):
                    continue
                value = src.get(node, key)
                moved[node] += _nbytes(value)
                if dst is not None:
                    tiered = value.copy() if copy and isinstance(value, np.ndarray) else value
                    dst.put(node, key, tiered)
                if not copy:
                    src.delete(node, key)
        return moved

    @staticmethod
    def live_bytes(
        plan: PlacementPlan, records: list[tuple] | None, kind: str, idx: int, r: int
    ) -> int | None:
        """Bytes before chunk packet ``(kind, idx, r)``'s zero padding: its
        worker's payload length, or reduction group ``r``'s longest for a
        parity (None without ``records``)."""
        members = [plan.data_group[idx]] if kind == "data" else plan.data_group
        return records and max(records[group[r]][1] for group in members)

    # ------------------------------------------------------------------
    # eccheck.save
    # ------------------------------------------------------------------
    def save(self) -> SaveReport:
        assert self.placement and self.reduction_plan and self.code
        self.version += 1
        version = self.version
        # Recorded at save *start* so even a torn version maps to the
        # placement its partial chunks were written under.
        self._placement_of_version[version] = self.placement
        tracer = obs.get_tracer()
        with tracer.span("eccheck.save", kind="save", version=version) as span:
            report = self._save_full(version, tracer)
            span.add_sim(report.checkpoint_time)
            if tracer.enabled:
                tracer.metrics.counter("p2p.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
                tracer.metrics.counter("save.bytes_dtoh").inc(report.bytes_dtoh)
        return report

    def _save_full(self, version: int, tracer) -> SaveReport:
        plan = self.placement

        # --- Step 1: decompose state_dicts, offload tensor data (DtoH). ---
        with tracer.span(
            "eccheck.save.step1",
            kind="save",
            phase="step1_decompose_dtoh",
            version=version,
        ) as step1_span:
            decompositions, packet_size = self._decompose_workers()
            checkpoints = {
                w: packetise(w, d, packet_size) for w, d in enumerate(decompositions)
            }

        lengths = [wc.packet.original_length for wc in checkpoints.values()]
        if tracer.enabled:
            # What the landing digests CRC / fold in (gauges: counters enter traced reports).
            groups, metrics = self.reduction_plan.groups, tracer.metrics
            reach = [live_prefix(packet_size, n) for n in lengths]
            crcd_parities = plan.m - len(xor_rows(self.code))  # the rest are derived
            crcd = sum(reach) + crcd_parities * sum(max(reach[w] for w in g.workers) for g in groups)
            stored = (len(reach) + plan.m * len(groups)) * packet_size
            metrics.gauge("save.padding_share").set(1 - sum(lengths) / (len(reach) * packet_size))
            metrics.gauge("integrity.bytes_digested").set(crcd)
            metrics.gauge("integrity.bytes_closed_form").set(stored - crcd)

        # --- Step 3: encode -> XOR reduction -> P2P. ---
        # Runs *before* the metadata broadcast: metadata is the commit
        # record, so all chunk placement must already be durable-in-RAM
        # when it lands (see the module docstring on crash consistency).
        # The byte work walks the stages of Sec. IV-C group by group, in
        # line: a group's parity packets are encoded, then they and its
        # data packets land on their nodes, then the next group starts.
        # (Overlap between stages lives in the *timing formula*, which is
        # all the ``use_pipelining`` flag switches.)
        def stage_encode(group):
            packets = [checkpoints[w].packet.payload for w in group.workers]
            parity_packets = [np.empty_like(packets[0]) for _ in group.targets]
            encode_group_into(
                self.code, packets, parity_packets,
                lengths=[lengths[w] for w in group.workers],
            )
            return group, parity_packets

        def stage_xor_reduce(item):
            # Already reduced: the m parity buffers were the accumulators.
            # The stage stays for its span and the post_xor crash point.
            return item

        def stage_transfer(item):
            group, parity_packets = item
            r = group.index
            # Landing digests: a data chunk's is its source packet's, taken
            # before the copy lands; an all-ones parity row's is derived.
            sources = [checkpoints[members[r]].packet for members in plan.data_group]
            known = {j: chunk_digest(p.payload, p.original_length) for j, p in enumerate(sources)}
            # P2P: the reduced parity packets move to their parity nodes,
            # this group's data packets settle onto their data nodes.
            for i, parity_node in enumerate(plan.parity_nodes):
                self.fire("mid_p2p", version=version, group=r, kind="parity", chunk=i)
                self._store_chunk_packet(
                    parity_node, version, "parity", i, r, parity_packets[i],
                    digest=derived_digest(self.code, known, plan.k + i, packet_size),
                    live=max(lengths[w] for w in group.workers),
                )
            for j, source in enumerate(sources):
                self.fire("mid_p2p", version=version, group=r, kind="data", chunk=j)
                self._store_chunk_packet(
                    plan.data_nodes[j], version, "data", j, r,
                    source.payload.copy(), digest=known[j],
                )
            return r

        def stage_hook(stage, item):
            point = ("post_encode", "post_xor", "post_transfer")[stage]
            group = item if stage == STAGE_TRANSFER else item[0].index
            self.fire(point, version=version, group=group)

        with tracer.span(
            "eccheck.save.step3",
            kind="save",
            phase="step3_encode_xor_p2p",
            version=version,
        ) as step3_span:
            PipelinedRunner(
                stage_encode, stage_xor_reduce, stage_transfer, item_hook=stage_hook
            ).run(list(self.reduction_plan.groups))

        return self._commit(version, checkpoints, step1_span, step3_span, tracer)

    def _commit(
        self,
        version: int,
        checkpoints: dict,
        step1_span,
        step3_span,
        tracer,
        dirty_fractions: list[float] | None = None,
    ) -> SaveReport:
        """Step 2 and the books: commit ``version``, bill the save, report it.

        Fig. 5 numbers the metadata broadcast step 2, but it executes last
        as the commit record: ``restore`` only trusts versions with
        complete metadata.  A delta save passes each worker's
        ``dirty_fractions``: the share of its packet it encodes and ships.
        """
        tm = self.job.time_model
        cfg = self.config
        plan = self.placement
        with tracer.span(
            "eccheck.save.step2",
            kind="save",
            phase="step2_metadata_broadcast",
            version=version,
        ) as step2_span:
            self.fire("pre_metadata_broadcast", version=version)
            meta_bytes = 0
            for worker, wc in checkpoints.items():
                self.fire("mid_metadata_broadcast", version=version, worker=worker)
                record = (wc.metadata_blob, wc.packet.original_length)
                meta_bytes += len(wc.metadata_blob)
                for node in self.active_nodes:
                    self.host.put(node, ("meta", version, worker), record)
        step2 = meta_bytes * (len(self.active_nodes) - 1) / gbps(tm.inter_node_gbps)

        # Remember the packets for incremental (delta) saves: step 1's
        # packet is handed over (stored data chunks are copies of it).
        self._last_packets = {w: wc.packet.payload for w, wc in checkpoints.items()}
        self._last_full_version = version
        self._chunk_versions.add(version)

        # DtoH moves the full shard even for a delta (the snapshot is
        # unavoidable); encoding/communication scale with the dirty share.
        step1 = (
            max(tm.dtoh_time(self.job.logical_shard_bytes(w)) for w in checkpoints)
            + tm.decompose_overhead_s
        )
        logical_packet = self.logical_packet_bytes()
        breakdown = {}
        shipped = [logical_packet] * len(checkpoints)
        if dirty_fractions is not None:
            breakdown["dirty_fraction"] = max(dirty_fractions)
            shipped = [int(share * logical_packet) for share in dirty_fractions]
        requests: list[TransferRequest] = []
        for group in self.reduction_plan.groups:
            for i, target in enumerate(group.targets):
                # Senders ship their encoded packet to the reduction
                # target, which forwards the reduced one to its parity node.
                target_node = self.node_hosting(target)
                requests += [
                    TransferRequest(self.node_hosting(w), target_node, shipped[w])
                    for w in group.workers
                    if w != target
                ]
                if target_node != plan.parity_nodes[i]:
                    biggest = max(shipped[w] for w in group.workers)
                    requests.append(
                        TransferRequest(target_node, plan.parity_nodes[i], biggest)
                    )
            for j, members in enumerate(plan.data_group):
                src = self.node_hosting(members[group.index])
                if src != plan.data_nodes[j]:
                    requests.append(
                        TransferRequest(src, plan.data_nodes[j], shipped[members[group.index]])
                    )
        comm_makespan = self.network.bill(requests).makespan
        encode_total = tm.encode_time(cfg.m * max(shipped), threads=cfg.encode_threads)
        # XOR compute at reduction targets: each target XORs k-1 packets,
        # m times per reduction group it serves.
        xor_total = tm.memcpy_time((plan.k - 1) * max(shipped)) * cfg.m
        step3 = self._step3_time(encode_total, xor_total, comm_makespan, logical_packet)

        # Phase sims attach only now that the save is complete: a crash
        # anywhere above leaves the step spans without simulated time, so
        # trace phase totals reconcile with *completed* SaveReports.
        step1_span.add_sim(step1)
        step2_span.add_sim(step2)
        step3_span.add_sim(step3)

        return SaveReport(
            engine=self.name,
            version=version,
            stall_time=step1,
            checkpoint_time=step1 + step2 + step3,
            breakdown={
                "step1_decompose_dtoh": step1,
                "step2_metadata_broadcast": step2,
                "step3_encode_xor_p2p": step3,
                "step3_encode_compute": encode_total,
                "step3_comm": comm_makespan,
                **breakdown,
            },
            bytes_dtoh=self.job.total_logical_bytes(),
            bytes_inter_node=sum(q.nbytes for q in requests if q.src != q.dst),
        )

    def _decompose_workers(self) -> tuple[list[Decomposition], int]:
        """Walk every worker's state once; size the cluster-wide packet."""
        decompositions = [
            decompose_state_dict(
                self.job.state_of(w),
                offload_to_cpu=False,
                dtype_names=self._dtype_names[w],
            )
            for w in range(self.job.world_size)
        ]
        return decompositions, packet_size_for(
            [d.tensor_bytes for d in decompositions], self.config.packet_alignment
        )

    def _step3_time(
        self,
        encode_total: float,
        xor_total: float,
        comm_makespan: float,
        logical_packet: int,
    ) -> float:
        """Makespan of step 3 with/without pipelined buffer execution."""
        buffers = max(1, -(-logical_packet // BUFFER_BYTES))
        stage_times = [
            encode_total / buffers,
            xor_total / buffers,
            comm_makespan / buffers,
        ]
        if self.config.use_pipelining:
            return pipeline_makespan(stage_times, buffers)
        return serial_makespan(stage_times, buffers)

    # ------------------------------------------------------------------
    # Incremental (delta) checkpointing — an extension built on the
    # code's linearity; see repro.core.incremental.
    # ------------------------------------------------------------------
    def save_incremental(self, block_size: int = 64 * 1024) -> SaveReport:
        """Checkpoint by patching the previous version's chunks where state changed.

        Byte work runs on the dirty ranges only (64 KiB granularity, see
        :mod:`repro.core.incremental`): each new chunk is a copy of the
        base's with ``encode(delta)`` (parity) or the delta (data) XORed
        into those ranges, and its digest is derived from the base's
        (:func:`~repro.core.integrity.patch_digest`).  ``block_size`` is
        the *accounting* granularity behind ``dirty_fraction`` and the
        simulated bytes.

        Falls back to a full :meth:`save` when there is no delta base, the
        packet size changed, or any chunk, digest or metadata record of
        the base is *absent* from host memory (a refused recovery, an
        eviction or a demotion can wipe it out from under the
        bookkeeping).  A base chunk that has *rotted* is not detected
        here: its successor inherits the rot and a digest that does not
        match it, so every reader treats it as the erasure it is.

        Raises:
            CheckpointError: on a non-positive ``block_size`` (nothing is
                mutated).
        """
        assert self.placement and self.reduction_plan and self.code
        if block_size < 1:
            raise CheckpointError(f"block_size must be >= 1, got {block_size}")
        # The delta base is the last version whose *chunks* live in host
        # memory — not ``self.version``, which an interleaved remote backup
        # (chunkless) may have advanced past it.
        base = self._last_full_version
        records = None
        if self._last_packets and base is not None:
            records = self._whole(base, verify=False)
        if records is None:
            return self.save()
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.save_incremental", kind="save", version=self.version + 1
        ) as span:
            report = self._save_delta(base, records, block_size, tracer)
            if report is not None:
                span.add_sim(report.checkpoint_time)
                if tracer.enabled:
                    tracer.metrics.counter("p2p.bytes_inter_node").inc(
                        report.bytes_inter_node
                    )
                return report
        return self.save()  # the packet size changed: nothing to XOR against

    def _save_delta(
        self, base: int, records: list[tuple], block_size: int, tracer
    ) -> SaveReport | None:
        """The delta save proper, over the base's commit ``records``; None
        (nothing mutated) if packets resized."""
        plan = self.placement
        version = self.version + 1

        # Step 1 equivalent: decompose and compute per-worker deltas.
        with tracer.span(
            "eccheck.save.step1",
            kind="save",
            phase="step1_decompose_dtoh",
            version=version,
        ) as step1_span:
            decompositions, packet_size = self._decompose_workers()
            if packet_size != self._last_packets[0].nbytes:
                return None
            checkpoints = {
                w: packetise(w, d, packet_size) for w, d in enumerate(decompositions)
            }
            live = [  # old, new and so their delta are zero past the longer payload
                max(length, checkpoints[w].packet.original_length)
                for w, (_, length) in enumerate(records)
            ]
            deltas, summaries = zip(
                *(
                    packet_delta(
                        self._last_packets[w], wc.packet.payload, block_size, live[w]
                    )
                    for w, wc in checkpoints.items()
                )
            )
        self.version = version
        self._placement_of_version[version] = plan

        def patched(node: int, kind: str, idx: int, r: int) -> list:
            """[a copy of the base's chunk packet, its stored digest]."""
            return [
                self.host.get(node, self.chunk_key(base, kind, idx, r)).copy(),
                self.host.get(node, self.digest_key(base, kind, idx, r)),
            ]

        def xor_in(chunk: list, start: int, piece: np.ndarray) -> None:
            chunk[0][start : start + piece.size] ^= piece
            chunk[1] = patch_digest(chunk[1], packet_size, start, piece)

        def store(node: int, kind: str, idx: int, r: int, chunk: list) -> None:
            self.fire("mid_p2p", version=version, group=r, kind=kind, chunk=idx)
            self._store_chunk_packet(node, version, kind, idx, r, *chunk)

        # Step 3: per reduction group, encode the union of its workers'
        # dirty ranges and XOR the pieces into copies of the base's parity
        # packets, then XOR each worker's own ranges into a copy of its
        # data packet; digests follow by the same small-write rule.  The
        # base is never written.  As in the full save, chunk placement
        # precedes the metadata commit.
        with tracer.span(
            "eccheck.save.step3",
            kind="save",
            phase="step3_encode_xor_p2p",
            version=version,
        ) as step3_span:
            for group in self.reduction_plan.groups:
                r = group.index
                runs = merge_intervals(
                    [Interval(*run) for w in group.workers for run in summaries[w].dirty_runs]
                )
                parities = [
                    patched(node, "parity", i, r)
                    for i, node in enumerate(plan.parity_nodes)
                ]
                # One scratch per parity row, as long as the longest run.
                scratch = np.empty(
                    (plan.m, max((run.duration for run in runs), default=0)),
                    dtype=np.uint8,
                )
                for run in runs:
                    pieces = list(scratch[:, : run.duration])
                    encode_group_into(
                        self.code,
                        [deltas[w][run.start : run.end] for w in group.workers],
                        pieces,
                        lengths=[
                            min(max(live[w] - run.start, 0), run.duration)
                            for w in group.workers
                        ],
                    )
                    for parity, piece in zip(parities, pieces):
                        xor_in(parity, run.start, piece)
                for i, node in enumerate(plan.parity_nodes):
                    store(node, "parity", i, r, parities[i])
                for j, members in enumerate(plan.data_group):
                    data = patched(plan.data_nodes[j], "data", j, r)
                    for start, end in summaries[members[r]].dirty_runs:
                        xor_in(data, start, deltas[members[r]][start:end])
                    store(plan.data_nodes[j], "data", j, r, data)

        # Step 2 equivalent: the metadata rebroadcast (iteration counters
        # changed) commits the delta version.
        return self._commit(
            version, checkpoints, step1_span, step3_span, tracer,
            dirty_fractions=[s.dirty_fraction for s in summaries],
        )

    # ------------------------------------------------------------------
    # Step 4: low-frequency remote backup for catastrophic failures.
    # ------------------------------------------------------------------
    def save_remote_backup(self) -> SaveReport:
        """Persist the current state to remote storage (Fig. 5, step 4).

        Runs at low frequency and entirely off the training critical path;
        it is also the fallback ``restore`` uses when more than ``m`` nodes
        fail simultaneously.
        """
        version = self.version = self.version + 1
        tm = self.job.time_model
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.backup", kind="save", version=version
        ) as span:
            serialize = max(
                tm.serialize_time(self.job.logical_shard_bytes(w))
                for w in self.job.writers
            )
            transfer, total = self._persist_all_to_remote(version)
            report = SaveReport(
                engine=self.name,
                version=version,
                stall_time=0.0,
                checkpoint_time=serialize + transfer,
                breakdown={"serialize": serialize, "transfer_remote": transfer},
                bytes_to_remote=total,
            )
            span.add_sim(report.checkpoint_time)
            span.set(bytes_to_remote=total)
            obs.record_phases(tracer, span, report.breakdown, kind="save")
        return report

    # ------------------------------------------------------------------
    # Tier management: asynchronous demotion to the local-disk tier,
    # promotion on restore, and disk-tier GC (see checkpoint/tiering.py
    # for the policy that drives these).
    # ------------------------------------------------------------------
    def memory_versions(self) -> list[int]:
        """Committed versions with chunks resident in host memory."""
        return sorted(self._chunk_versions)

    def disk_versions(self) -> list[int]:
        """Versions currently held by the local-disk tier."""
        return sorted(self._disk_versions)

    def delta_base_version(self) -> int | None:
        """Version the next incremental save XORs against (pinned hot)."""
        return self._last_full_version

    def prune_memory_index(self, verify: bool = True) -> list[int]:
        """Drop no-longer-intact versions from the demotion candidate index.

        Called after failures: versions whose chunks were partially wiped
        must never be demoted (the disk tier only accepts fully intact
        versions), so they stop being candidates.  Only the index shrinks —
        no bytes are deleted, and the restore walk is unaffected
        (:meth:`demote_version` frees the remnants once they age out of
        the memory tier).  Returns the pruned versions.

        :meth:`restore` ends with the ``verify=False`` form: it has just
        verified or freshly digested every packet of the version it
        restored, and a failure takes older versions by wiping, which
        presence shows; :meth:`demote_version` re-verifies every digest
        before anything reaches the disk tier either way.
        """
        stale = [
            v for v in sorted(self._chunk_versions) if self._whole(v, verify=verify) is None
        ]
        self._chunk_versions.difference_update(stale)
        self._stale_versions.update(stale)
        return stale

    def demote_version(self, version: int) -> DemotionReport:
        """Move a cold version's chunks + metadata from memory to disk.

        Runs off the training critical path (the reported ``demote_time``
        is background disk-write seconds).  Refuses to demote the
        incremental-delta base (the next ``save_incremental`` reads its
        chunks from host memory) and any version that is not fully intact
        in memory — a torn demotion would poison the disk tier.

        A demotion is a *move* (no copy).  It also deletes the host
        remnants of every pruned version older than ``version``: a torn
        version stays a decodable fallback exactly as long as an intact
        one of its age would stay in memory.

        Raises:
            CheckpointError: when the version is not demotable.
        """
        tracer = obs.get_tracer()
        with tracer.span("eccheck.demote", kind="tier", version=version) as span:
            report = self._demote_impl(version)
            span.add_sim(report.demote_time)
            span.set(bytes_to_disk=report.bytes_to_disk)
            obs.record_phases(tracer, span, report.breakdown, kind="tier")
        return report

    def _demote_impl(self, version: int) -> DemotionReport:
        if version not in self._chunk_versions:
            raise CheckpointError(
                f"version {version} has no in-memory chunks to demote"
            )
        if version == self._last_full_version and self._last_packets:
            raise CheckpointError(
                f"version {version} is the incremental-delta base; demoting "
                "it would break the next save_incremental"
            )
        if self._whole(version) is None:
            raise CheckpointError(
                f"version {version} is not fully intact in memory; refusing "
                "a torn demotion"
            )
        tm = self.job.time_model
        per_node_bytes = self._move(version, self.host, self.disk)
        aged_out = sorted(v for v in self._stale_versions if v < version)
        self._stale_versions.difference_update(aged_out)
        for stale in aged_out:
            self._move(stale, self.host)
        demote_time = max(
            (tm.disk_write_time(b) for b in per_node_bytes if b), default=0.0
        )
        self._chunk_versions.discard(version)
        self._disk_versions.add(version)
        return DemotionReport(
            engine=self.name,
            version=version,
            demote_time=demote_time,
            breakdown={"demote_disk_write": demote_time},
            bytes_to_disk=sum(per_node_bytes),
        )

    def evict_disk_version(self, version: int) -> int:
        """GC one version from the disk tier; returns bytes reclaimed."""
        freed = sum(self._move(version, self.disk))
        self._disk_versions.discard(version)
        tracer = obs.get_tracer()
        if tracer.enabled and freed:
            tracer.metrics.counter("tier.disk_bytes_evicted").inc(freed)
        return freed

    def _promote_version(
        self, version: int, records: list[tuple]
    ) -> tuple[float, int]:
        """Copy a disk version back into host memory (disk copy kept).

        Returns ``(promote_seconds, bytes_read)``.  After the per-node
        copy-back every active node holds ``records``, the commit record
        the restore walk read off the disks (a replacement machine's empty
        disk leaves gaps that the surviving disks fill).
        """
        tm = self.job.time_model
        per_node_bytes = self._move(version, self.disk, self.host, copy=True)
        self._put_records(version, records, self.active_nodes)
        promote_s = max(
            (tm.disk_read_time(b) for b in per_node_bytes if b), default=0.0
        )
        self._chunk_versions.add(version)
        return promote_s, sum(per_node_bytes)

    # ------------------------------------------------------------------
    # eccheck.load — both recovery workflows
    # ------------------------------------------------------------------
    def restore(self, failed_nodes: set[int]) -> RecoveryReport:
        tracer = obs.get_tracer()
        with tracer.span(
            "eccheck.restore", kind="restore", failed=sorted(failed_nodes)
        ) as span:
            report = self._restore_impl(failed_nodes)
            # Everything this call verified or wrote is whole; what the
            # failure wiped shows by presence (see prune_memory_index).
            self.prune_memory_index(verify=False)
            span.set(version=report.version, tier=report.tier)
            if report.bytes_from_disk:
                span.set(bytes_from_disk=report.bytes_from_disk)
            if report.bytes_from_remote:
                span.set(bytes_from_remote=report.bytes_from_remote)
            span.add_sim(report.recovery_time)
            obs.record_phases(tracer, span, report.breakdown, kind="restore")
            if tracer.enabled:
                tracer.metrics.counter("restore.bytes_inter_node").inc(
                    report.bytes_inter_node
                )
        return report

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        assert self.placement and self.code
        self.on_failure(failed_nodes)
        # After any failure the delta base is unreliable; the next
        # incremental save falls back to a full one.  The version pointer
        # goes too: leaving it aimed at a wiped version would misreport
        # delta_base_version() and un-pin the demotion guard.
        self._last_packets = {}
        self._last_full_version = None
        latest = self.latest_version()
        surviving = [
            node for node in range(self.job.cluster.num_nodes)
            if node not in failed_nodes
        ]

        # A save interrupted by the crash may have left a torn version
        # behind; walk back to the newest version restorable from *any*
        # tier, exactly as a restart would: in-memory chunks first (>= k
        # whole chunks plus a complete commit record on the survivors),
        # then the local-disk tier (which survives memory loss — including
        # a full cluster power-cycle, where ``surviving`` is empty).  Each
        # candidate is judged against the placement *it* was saved under —
        # elastic regroups mean adjacent versions can have different
        # layouts.  Demotion only ever moves versions older than everything
        # still in memory, so checking memory before disk per candidate
        # preserves strict newest-first order across tiers.  The record
        # that admits a version is the one every later step reads.
        version = records = None
        from_disk = False
        chunk_available: dict[int, int] = {}
        promote_s = 0.0
        promote_bytes = 0
        recovery_failed = failed_nodes
        with obs.get_tracer().span("eccheck.restore.step1", step="step1_locate_verify"):
            for candidate in range(latest, 0, -1):
                found = self.decodable(candidate, surviving)
                if found is not None:
                    version, (records, chunk_available) = candidate, found
                    break
                records = self._whole(candidate, self.disk)
                if records is not None:
                    version, from_disk = candidate, True
                    break
            if from_disk:
                # Promotion re-materialises the whole version in host
                # memory (failed nodes have rebooted with empty RAM but
                # live disks), after which recovery proceeds as if
                # nothing was lost.
                promote_s, promote_bytes = self._promote_version(version, records)
                every = range(self.job.cluster.num_nodes)
                chunk_available = self._survey(version, every, records=records)
                recovery_failed = set()
        if version is None:
            return self._restore_newest_remote("load_remote_backup")

        report = self._recover(version, recovery_failed, chunk_available, records)
        if from_disk:
            report.recovery_time += promote_s
            report.breakdown["promote_disk_read"] = promote_s
            report.bytes_from_disk = promote_bytes
            report.tier = "disk"
        return report

    # -- helpers --------------------------------------------------------
    def data_packets(
        self, version: int, whole: dict[int, int], records: list[tuple]
    ) -> dict[int, np.ndarray]:
        """``worker -> packet`` for all of ``version``'s data.

        Whole data chunks are read in place (the survey just verified
        them); only the lost ones are decoded, one fused pass per
        reduction group into fresh buffers, from any ``k`` of the
        ``whole`` chunks (id -> node, see :meth:`decodable`) with data
        chunks preferred.  ``records``' lengths say where each packet's
        padding starts.

        Raises:
            CheckpointError: if a record's length runs past the packets: a
                lie the install could not see, refused before anything is.
        """
        plan = self.placement_of(version)
        code = self.code_for(plan.k, plan.m)
        lost = [j for j in range(plan.k) if j not in whole]
        chunk_of = {c: ("data", c) if c < plan.k else ("parity", c - plan.k) for c in whole}
        packets: dict[int, np.ndarray] = {}
        for r in range(len(plan.data_group[0])):
            available = {
                cid: self.host.get(node, self.chunk_key(version, *chunk_of[cid], r))
                for cid, node in whole.items()
            }
            if lost:
                decoded = [np.empty_like(next(iter(available.values()))) for _ in lost]
                live = {
                    cid: self.live_bytes(plan, records, *chunk_of[cid], r) for cid in available
                }
                decode_group_into(code, available, lost, decoded, live)
                available.update(zip(lost, decoded))
            packets.update({members[r]: available[j] for j, members in enumerate(plan.data_group)})
        size = packets[0].size
        if any(not 0 <= length <= size for _, length in records):
            raise CheckpointError(
                f"v{version}: a commit record's length is outside its {size}-byte packet"
            )
        return packets

    def _install_packets(
        self,
        version: int,
        packets: dict[int, np.ndarray],
        failed_nodes: set[int],
        records: list[tuple],
    ) -> None:
        """Every worker gets its state back; training can resume.

        Each tensor is one copy out of its packet straight onto the GPU,
        so ``packets`` may be (and are) the stored chunks themselves.
        Replacement nodes also get the metadata copies they lost.  All or
        nothing: a record's length also steered the decode of its group's
        packets — the decode read the same ``records`` — so no state is
        replaced until every worker's is rebuilt.
        """
        with obs.get_tracer().span("eccheck.restore.step3", step="step3_install"):
            states = [
                restore_state_dict(blob, packets[w][:length], GPU)
                for w, (blob, length) in enumerate(records)
            ]
            for worker, state in enumerate(states):
                self.job.state_dicts[worker] = state
            self._put_records(version, records, failed_nodes)

    def put_back(
        self,
        version: int,
        packets: dict[int, np.ndarray],
        plan: PlacementPlan,
        wanted: list[tuple[int, int]],
        epoch: int,
        whole: dict[int, int],
        records: list[tuple],
        landed=None,
    ) -> tuple[int, int]:
        """Store ``version``'s chunk packets ``wanted`` — ``(chunk id, group
        r)`` pairs, in that order — as ``plan`` lays them out, under
        storage ``epoch``: the one step that puts rebuilt chunks back, for
        the restore's step 4 and the elastic repair alike.

        ``packets`` are every worker's (:meth:`data_packets`).  The wanted
        parity rows are re-encoded first, one fused pass per reduction
        group.  A decoded data packet is stored as it is; one read in place
        (its chunk is in ``whole``, the survivors :meth:`decodable` found)
        is stored as a copy, so no two keys share a buffer.  A digest is
        derived (:func:`derived_digest`) when algebra determines it from
        the digests known — the ``whole`` chunks' when ``plan`` and
        ``epoch`` are the version's own (a relayout knows none), then each
        stored before it — else CRC'd.  ``landed(n)`` is called once
        ``wanted[n]`` is stored.  Returns ``(digests CRC'd, derived)``.
        """
        code = self.code_for(plan.k, plan.m)
        source = self.placement_of(version)
        groups = range(len(plan.data_group[0]))
        chunk_of = [("data", j) for j in range(plan.k)] + [("parity", i) for i in range(plan.m)]
        nodes = [*plan.data_nodes, *plan.parity_nodes]
        seeds = whole if plan == source and epoch == self.epoch_of(version) else {}
        known = [  # per group: chunk id -> digest, the verified survivors' first
            {c: self.host.get(node, self.digest_key(version, *chunk_of[c], r))
             for c, node in seeds.items()}
            for r in groups
        ]
        in_place = {w for j in whole if j < source.k for w in source.data_group[j]}
        rows: dict[int, list[int]] = defaultdict(list)
        for cid, r in wanted:
            if cid >= plan.k:
                rows[r].append(cid - plan.k)
        parity: dict[tuple[int, int], np.ndarray] = {}
        for r, lost in rows.items():
            group = [packets[members[r]] for members in plan.data_group]
            rebuilt = [np.empty_like(group[0]) for _ in lost]
            encode_group_into(
                code, group, rebuilt, rows=lost,
                lengths=[records[members[r]][1] for members in plan.data_group],
            )
            parity.update({(plan.k + i, r): packet for i, packet in zip(lost, rebuilt)})
        counts = [0, 0]
        for n, (cid, r) in enumerate(wanted):
            if cid >= plan.k:
                payload = parity[cid, r]
            else:
                worker = plan.data_group[cid][r]
                payload = packets[worker].copy() if worker in in_place else packets[worker]
            digest = derived_digest(code, known[r], cid, payload.size)
            counts[digest is not None] += 1
            if digest is None:
                digest = chunk_digest(payload, self.live_bytes(plan, records, *chunk_of[cid], r))
            known[r][cid] = digest
            self._store_chunk_packet(nodes[cid], version, *chunk_of[cid], r, payload, digest, epoch)
            if landed is not None:
                landed(n)
        return counts[0], counts[1]

    def _recover(
        self,
        version: int,
        failed_nodes: set[int],
        chunk_available: dict[int, int],
        records: list[tuple],
    ) -> RecoveryReport:
        """Both recovery workflows of Fig. 7: one byte path, two bills.

        Bytes: collect every data packet (decoding the lost ones), install,
        put back what was lost.  Time: billed as the paper runs it —
        workflow 1 when every data chunk is intact (data nodes re-send),
        workflow 2 otherwise.  A data chunk may be unavailable because its
        node failed OR its packets failed digest verification (silent
        corruption); either way it is an erasure.  The placement
        ``version`` was saved under picks the (k, m) code, not necessarily
        the live one.  ``records`` is the commit record that admitted the
        version: decode, install and rebuild all read it.
        """
        tm = self.job.time_model
        plan = self.placement_of(version)
        surviving = [
            n for n in range(self.job.cluster.num_nodes) if n not in failed_nodes
        ]
        tracer = obs.get_tracer()
        with tracer.span("eccheck.restore.step2", step="step2_decode"):
            packets = self.data_packets(version, chunk_available, records)
        self._install_packets(version, packets, failed_nodes, records)
        # Background: put back exactly the chunks that were lost, so the
        # original fault-tolerance capacity returns: each lost data chunk,
        # then each group's lost parity rows.  The re-encode is billed as
        # one pass per group however many parities were lost.
        groups = len(plan.data_group[0])
        lost_parities = [i for i in range(plan.m) if plan.k + i not in chunk_available]
        wanted = [(j, r) for j in range(plan.k) if j not in chunk_available for r in range(groups)]
        wanted += [(plan.k + i, r) for r in range(groups) for i in lost_parities]
        with tracer.span("eccheck.restore.step4", step="step4_rebuild_redundancy"):
            crcd, derived = self.put_back(
                version, packets, plan, wanted, self.epoch_of(version), chunk_available, records
            )
        if tracer.enabled:  # gauges of the last restore: counters enter traced reports
            tracer.metrics.gauge("restore.digests_crcd").set(crcd)
            tracer.metrics.gauge("restore.digests_derived").set(derived)

        logical_packet = self.logical_packet_bytes()
        if all(j in chunk_available for j in range(plan.k)):
            breakdown, bytes_inter, redo_requests = self._bill_resend(plan, lost_parities)
        else:
            breakdown, bytes_inter, redo_requests = self._bill_decode(
                plan, failed_nodes, surviving, chunk_available, lost_parities
            )
        breakdown["htod"] = max(
            tm.htod_time(self.job.logical_shard_bytes(w))
            for w in range(self.job.world_size)
        )
        redundancy = self.network.bill(redo_requests).makespan
        if lost_parities:
            redundancy += tm.encode_time(
                logical_packet * groups, threads=self.config.encode_threads
            )
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=sum(breakdown.values()),
            breakdown=breakdown,
            bytes_inter_node=bytes_inter,
            restore_redundancy_time=redundancy,
        )

    def _bill_resend(
        self, plan: PlacementPlan, lost_parities: list[int]
    ) -> tuple[dict[str, float], int, list[TransferRequest]]:
        """Workflow 1 (Fig. 7 precondition inverted): data chunks intact.

        Data nodes send every worker its packet; each streams its chunk
        through the encoder pipeline to every replacement parity node.
        Returns ``(breakdown, inter-node bytes, background requests)``.
        """
        logical_packet = self.logical_packet_bytes()
        groups = len(plan.data_group[0])
        requests: list[TransferRequest] = []
        bytes_inter = 0
        for worker in range(self.job.world_size):
            data_node = plan.data_nodes[self.group_and_index(worker, plan)[0]]
            dst = self.node_hosting(worker)
            requests.append(
                TransferRequest(src=data_node, dst=dst, nbytes=logical_packet)
            )
            if data_node != dst:
                bytes_inter += logical_packet
        redo_requests = [
            TransferRequest(
                src=plan.data_nodes[j],
                dst=plan.parity_nodes[i],
                nbytes=logical_packet * groups // plan.k,
            )
            for i in lost_parities
            for j in range(plan.k)
        ]
        transfer = self.network.bill(requests).makespan
        return {"fetch_packets": transfer}, bytes_inter, redo_requests

    def _bill_decode(
        self,
        plan: PlacementPlan,
        failed_nodes: set[int],
        surviving: list[int],
        chunk_available: dict[int, int],
        lost_parities: list[int],
    ) -> tuple[dict[str, float], int, list[TransferRequest]]:
        """Workflow 2 (Fig. 7): data chunks lost; decode from any k chunks.

        Every reduction group gathers k chunks (data preferred, to
        minimise decode work) on a decode node — round-robin across the
        survivors, as the paper spreads it — which scatters the packets.
        Returns ``(breakdown, inter-node bytes, background requests)``.
        """
        logical_packet = self.logical_packet_bytes()
        groups = len(plan.data_group[0])
        chosen = sorted(chunk_available, key=lambda c: (c >= plan.k, c))[: plan.k]
        gather_requests: list[TransferRequest] = []
        scatter_requests: list[TransferRequest] = []
        bytes_inter = 0
        for r in range(groups):
            decode_node = surviving[r % len(surviving)]
            for node in (chunk_available[cid] for cid in chosen):
                gather_requests.append(
                    TransferRequest(src=node, dst=decode_node, nbytes=logical_packet)
                )
                if node != decode_node:
                    bytes_inter += logical_packet
            for j in range(plan.k):
                dst = self.node_hosting(plan.data_group[j][r])
                scatter_requests.append(
                    TransferRequest(src=decode_node, dst=dst, nbytes=logical_packet)
                )
                if decode_node != dst:
                    bytes_inter += logical_packet
        redo_requests = [
            TransferRequest(
                src=surviving[j % len(surviving)],
                dst=data_node,
                nbytes=logical_packet * groups,
            )
            for j, data_node in enumerate(plan.data_nodes)
            if data_node in failed_nodes
        ] + [
            TransferRequest(
                src=surviving[i % len(surviving)],
                dst=plan.parity_nodes[i],
                nbytes=logical_packet * groups,
            )
            for i in lost_parities
        ]
        breakdown = {
            "gather_chunks": self.network.bill(gather_requests).makespan,
            "decode": self.job.time_model.encode_time(
                plan.k * logical_packet * groups / max(1, len(surviving)),
                threads=self.config.encode_threads,
            ),
            "scatter_packets": self.network.bill(scatter_requests).makespan,
        }
        return breakdown, bytes_inter, redo_requests
