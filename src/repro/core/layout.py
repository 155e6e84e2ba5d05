"""Where the ECCheck engine's chunks go: the live ``(k, m)`` layout and
every stored version's own.

The live layout (placement, reduction plan, code, hosting ranks) is what
the next save writes under; :meth:`Layout.reconfigure` installs a new one
for elastic membership.  Each version keeps the placement it was saved
under and its storage epoch: 0 for the save-time keys, a repair's
generation once :meth:`Layout.commit_repair` flips it.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

from repro import obs
from repro.core.placement import PlacementPlan, build_data_group, regroup_plan
from repro.core.protocol import packet_size_for
from repro.core.reduction import ReductionPlan, build_reduction_plan
from repro.ec.base import CodeParams
from repro.ec.cauchy import CauchyRSCode
from repro.errors import CheckpointError


class Layout:
    """The layout half of :class:`~repro.core.eccheck.ECCheckEngine`."""

    placement: PlacementPlan
    reduction_plan: ReductionPlan
    code: CauchyRSCode
    #: Ranks currently hosting chunks (all of them at full strength; a
    #: subset after an elastic degraded :meth:`reconfigure`).
    active_nodes: list[int]
    #: worker -> hosting rank: its home rank, or an active one standing in
    #: for an inactive home (degraded oversubscription).
    _node_of_worker: dict[int, int]
    #: version -> (placement, storage epoch), recorded at save *start* so
    #: a torn version maps to the plan its partial chunks used.
    _layouts: dict[int, tuple[PlacementPlan, int]]
    _code_cache: dict[tuple[int, int], CauchyRSCode]

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
        self._delta_base = None  # a regroup changes the chunk layout
        obs.event("reconfigure", engine=self.name, k=k, m=m, active_nodes=list(active))
        return plan

    def _install_layout(
        self, k: int, m: int, active: list[int], node_of_worker: dict[int, int] | None
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
        if node_of_worker is None:
            active_set = set(active)
            homes = [self.job.node_of(w) for w in range(world)]
            node_of_worker = {
                w: home if home in active_set else active[w % len(active)]
                for w, home in enumerate(homes)
            }
        self.placement = plan
        self.reduction_plan = build_reduction_plan(plan, node_of_worker)
        self.code = self.code_for(k, m)
        self.active_nodes = active
        self._node_of_worker = dict(node_of_worker)
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
        """The placement ``version``'s chunks were laid out under (the live
        one for a version that never wrote chunks)."""
        return self._layouts.get(version, (self.placement, 0))[0]

    def epoch_of(self, version: int) -> int:
        """The storage epoch the version's authoritative chunks live under."""
        return self._layouts.get(version, (None, 0))[1]

    def commit_repair(
        self, version: int, plan: PlacementPlan, epoch: int, records: list[tuple]
    ) -> None:
        """Commit a repair that put ``version`` back together as ``plan``
        lays it out, under storage ``epoch``.

        Every node of ``plan`` gets the commit ``records`` first; the flip
        of the version's placement and epoch comes last, mirroring the
        save's metadata-last rule: chunks streamed under a staging epoch
        become authoritative there, atomically with the placement.  A
        superseded epoch's chunks are dead weight once it lands and are
        collected: a crash before the flip leaves the old epoch whole for
        restore, a crash after merely leaks.
        """
        source_epoch = self.epoch_of(version)
        self._put_records(version, records, sorted({*plan.data_nodes, *plan.parity_nodes}))
        self._layouts[version] = (plan, epoch)
        if source_epoch != epoch:
            self._move(version, self.host, epoch=source_epoch)

    def node_hosting(self, worker: int) -> int:
        """Rank hosting ``worker``."""
        return self._node_of_worker[worker]

    def logical_packet_bytes(self) -> int:
        """Full-scale packet size: the largest shard, aligned."""
        return packet_size_for(
            [self.job.logical_shard_bytes(w) for w in range(self.job.world_size)],
            self.config.packet_alignment,
        )
