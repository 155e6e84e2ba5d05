"""base3: GEMINI-style grouped in-memory replication.

Nodes are organised into fixed groups; within a group every node broadcasts
its checkpoint data to all peers, so each node's host memory holds the full
group checkpoint.  With group size ``G`` each node stores ``G``x its own
data — the same 2x redundancy (at G=2) that ECCheck spends on parity — but
the group can only survive failures that leave at least one copy of every
node's data alive: two failures *within one group* are fatal, the case
Fig. 13b and Fig. 15 exercise.
"""

from __future__ import annotations

from repro.errors import CheckpointError, RecoveryError
from repro.checkpoint.base import CheckpointEngine, RecoveryReport, SaveReport
from repro.checkpoint.job import TrainingJob
from repro.sim.network import TransferRequest
from repro.tensors.state_dict import map_tensors
from repro.tensors.tensor import CPU, GPU


class GeminiReplicationEngine(CheckpointEngine):
    """The paper's **base3** (GEMINI is not open source; reimplemented).

    Nodes pair up as in the paper's testbed ({0,1} and {2,3}).
    """

    name = "base3"

    #: Nodes per replication group: the paper's pairs.
    group_size = 2

    #: Fault injection: after all snapshots landed on their own nodes
    #: (no replication yet) and before each peer broadcast.
    crash_points = ("post_snapshot", "mid_broadcast")

    def __init__(self, job: TrainingJob):
        super().__init__(job)
        if job.cluster.num_nodes % self.group_size:
            raise CheckpointError(
                f"group_size {self.group_size} must divide node count "
                f"{job.cluster.num_nodes}"
            )

    def groups(self) -> list[list[int]]:
        """Replication groups: consecutive runs of ``group_size`` nodes."""
        g = self.group_size
        return [
            list(range(i, i + g))
            for i in range(0, self.job.cluster.num_nodes, g)
        ]

    def group_of(self, node: int) -> list[int]:
        return self.groups()[node // self.group_size]

    # ------------------------------------------------------------------
    def _save_impl(self) -> SaveReport:
        self.version += 1
        tm = self.job.time_model
        # Snapshot every writer's state into its own node's host memory.
        dtoh_times = []
        bytes_dtoh = 0
        for worker in range(self.job.world_size):
            snapshot = map_tensors(self.job.state_of(worker), lambda t: t.to(CPU))
            node = self.job.node_of(worker)
            self.host.put(node, ("ckpt", self.version, worker), snapshot)
            logical = self.job.logical_shard_bytes(worker)
            bytes_dtoh += logical
            dtoh_times.append(tm.dtoh_time(logical))
        stall = max(dtoh_times)
        self.fire("post_snapshot", version=self.version)

        # Broadcast each node's data to its group peers.
        requests = []
        bytes_inter_node = 0
        for group in self.groups():
            for node in group:
                node_bytes = self.job.node_logical_bytes(node)
                for peer in group:
                    if peer == node:
                        continue
                    self.fire(
                        "mid_broadcast", version=self.version, src=node, dst=peer
                    )
                    for worker in self.job.cluster.workers_of(node):
                        snapshot = self.host.get(node, ("ckpt", self.version, worker))
                        self.host.put(peer, ("ckpt", self.version, worker), snapshot)
                    bytes_inter_node += node_bytes
                    requests.append(
                        TransferRequest(
                            src=node, dst=peer, nbytes=node_bytes, start_delay=stall
                        )
                    )
        result = self.network.bill(requests)
        return SaveReport(
            engine=self.name,
            version=self.version,
            stall_time=stall,
            checkpoint_time=result.makespan,
            breakdown={
                "snapshot_dtoh": stall,
                "broadcast": result.makespan - stall,
            },
            bytes_dtoh=bytes_dtoh,
            bytes_inter_node=bytes_inter_node,
        )

    # ------------------------------------------------------------------
    def _version_recoverable(self, version: int, failed_nodes: set[int]) -> bool:
        """True iff ``version`` is fully replicated on the survivors.

        A crash during :meth:`save` (``post_snapshot`` / ``mid_broadcast``)
        leaves a torn version: some nodes hold only their own snapshot.
        Replication completing everywhere is the commit record, so a
        version only counts when every surviving group member holds every
        group writer's snapshot — a torn broadcast always leaves at least
        one survivor missing a peer's key.
        """
        for group in self.groups():
            survivors = [n for n in group if n not in failed_nodes]
            if not survivors:
                return False
            workers = [w for n in group for w in self.job.cluster.workers_of(n)]
            for peer in survivors:
                for worker in workers:
                    if not self.host.contains(peer, ("ckpt", version, worker)):
                        return False
        return True

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        self.on_failure(failed_nodes)
        latest = self.latest_version()
        tm = self.job.time_model

        # Feasibility: every failed node needs a surviving group peer.
        for node in failed_nodes:
            if all(peer in failed_nodes for peer in self.group_of(node)):
                raise RecoveryError(
                    f"replication group {self.group_of(node)} lost every "
                    f"member; base3 cannot recover in-memory"
                )

        # Walk back past torn versions to the newest fully replicated one.
        version = next(
            (
                v
                for v in range(latest, 0, -1)
                if self._version_recoverable(v, failed_nodes)
            ),
            None,
        )
        if version is None:
            raise RecoveryError(
                f"{self.name}: no fully replicated checkpoint version "
                f"survives failures {sorted(failed_nodes)}"
            )

        source_of: dict[int, int] = {
            node: next(
                peer
                for peer in self.group_of(node)
                if peer not in failed_nodes
            )
            for node in failed_nodes
        }

        requests = []
        bytes_inter_node = 0
        local_copy_times = [0.0]
        htod_times = [0.0]
        for worker in range(self.job.world_size):
            node = self.job.node_of(worker)
            logical = self.job.logical_shard_bytes(worker)
            htod_times.append(tm.htod_time(logical))
            if node in failed_nodes:
                source = source_of[node]
                snapshot = self.host.get(source, ("ckpt", version, worker))
                # Re-populate the replaced node's host memory, then load.
                self.host.put(node, ("ckpt", version, worker), snapshot)
                requests.append(
                    TransferRequest(src=source, dst=node, nbytes=logical)
                )
                bytes_inter_node += logical
            else:
                snapshot = self.host.get(node, ("ckpt", version, worker))
                local_copy_times.append(tm.memcpy_time(logical))
            self.job.state_dicts[worker] = map_tensors(
                snapshot, lambda t: t.to(GPU)
            )
        transfer = self.network.bill(requests).makespan if requests else 0.0
        htod = max(htod_times)
        recovery_time = max(transfer, max(local_copy_times)) + htod

        # Restore redundancy: replaced nodes must hold their peers' data
        # again (background work, off the critical path).
        redo_requests = []
        for node in failed_nodes:
            for peer in self.group_of(node):
                if peer == node:
                    continue
                peer_bytes = self.job.node_logical_bytes(peer)
                for worker in self.job.cluster.workers_of(peer):
                    self.host.put(
                        node,
                        ("ckpt", version, worker),
                        self.host.get(peer, ("ckpt", version, worker)),
                    )
                redo_requests.append(
                    TransferRequest(src=peer, dst=node, nbytes=peer_bytes)
                )
        redo_time = self.network.bill(redo_requests).makespan if redo_requests else 0.0
        return RecoveryReport(
            engine=self.name,
            version=version,
            recovery_time=recovery_time,
            breakdown={
                "fetch_peer": transfer,
                "local_copy": max(local_copy_times),
                "htod": htod,
            },
            bytes_inter_node=bytes_inter_node,
            restore_redundancy_time=redo_time,
        )
