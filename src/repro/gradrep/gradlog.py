"""Buddy-replicated records and the per-iteration gradient log.

Instead of snapshotting state every checkpoint interval, a gradient-
replication engine ships the *per-iteration update* — the XOR delta
between consecutive packetised states, computed by
:func:`repro.core.incremental.packet_delta` — to a cross-rack buddy node
every iteration.  Recovery is then **temporal**: restore the last
committed base checkpoint and re-apply the logged deltas in order.

Both kinds of record the gradrep engines keep — anchor packets and log
entries — are one :class:`ReplicaStore` family each, with one key
layout in the engine's host store (per node):

* ``(payload, tag, worker)`` — the worker's payload (``apkt`` for an
  anchor's full packet, ``grad`` for a log entry's XOR delta);
* ``(digest, tag, worker)`` — CRC-32 of that payload (``adig`` /
  ``graddig``);
* ``(metadata, tag, worker)`` — the worker's metadata blob (``ameta`` /
  ``gradmeta``: tensor layout plus the non-tensor fields — iteration
  counter, optimizer step — that packet bytes alone cannot restore);
* ``(commit, tag)`` — the commit record (``("anchor", version)``:
  ``{"iteration"}``; ``("gradcommit", seq)``: ``{"iteration",
  "base_version", "packet_size", ...}``), broadcast to **every** node
  last.

**Replay commit rule.**  Payload bytes land on the home node and its
buddy first; the commit record is broadcast only afterwards.  A record
— an anchor, or a log entry — is usable after a failure iff

1. every surviving node holds an identical commit record (a broadcast
   torn by a crash leaves at least one survivor without it, and a
   rewritten copy disagrees — the record is torn and must never be
   used),
2. for every writer, some surviving node out of {home, buddy} holds a
   payload whose digest verifies (bit rot demotes the record to torn),
3. for a log entry, its ``base_version`` matches the restored base and
   its seq is contiguous with the replayed prefix (a gap ends the
   replay).

The same rule is re-derived independently from raw storage by the chaos
oracle (:func:`repro.chaos.invariants.expected_recovery`), which is what
makes the gradrep and hybrid campaigns real differential tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.incremental import apply_delta
from repro.core.integrity import chunk_digest, verify_chunk
from repro.errors import CheckpointError, RecoveryError


def buddy_of(node: int, num_nodes: int, nodes_per_rack: int | None) -> int:
    """The cross-rack replication buddy of ``node``.

    Shifting by the rack width pairs each node with one in the next rack
    (0<->2, 1<->3 on the 2x2 testbed), so the buddy copy survives a whole-
    rack loss and the replication flow genuinely crosses the trunk.  A
    single-rack cluster falls back to a shift of 1.
    """
    shift = nodes_per_rack if nodes_per_rack and nodes_per_rack < num_nodes else 1
    buddy = (node + shift) % num_nodes
    if buddy == node:
        raise CheckpointError(
            f"cannot pick a replication buddy for node {node} in a "
            f"{num_nodes}-node cluster"
        )
    return buddy


class ReplicaStore:
    """One buddy-replicated record family in a host store.

    ``kinds`` names the payload, digest and metadata keys of one writer's
    record, ``commit`` the commit record's key; ``tag`` is the anchor
    version or the log seq.  Each writer's record lives on its home node
    and on the home's cross-rack buddy.  Every read goes through
    :meth:`whole` and :meth:`committed`: a record is used only when its
    commit record is identical on every live node and some live replica
    of each writer passes its digest.
    """

    def __init__(self, host, job, kinds: tuple[str, str, str], commit: str):
        self.host = host
        self.job = job
        self.kinds = kinds
        self.commit = commit

    def replicas(self, worker: int) -> tuple[int, int]:
        """``(home, buddy)`` of a writer's record."""
        home, cluster = self.job.node_of(worker), self.job.cluster
        return home, buddy_of(home, cluster.num_nodes, cluster.nodes_per_rack)

    def _keys(self, tag: int, worker: int) -> list[tuple]:
        return [(kind, tag, worker) for kind in self.kinds]

    # -- writes ---------------------------------------------------------
    def put(
        self, node: int, tag: int, worker: int,
        payload: np.ndarray, digest: int, metadata: bytes,
    ) -> None:
        """Store one writer's ``(payload, digest, metadata)`` on ``node``."""
        for key, value in zip(self._keys(tag, worker), (payload, digest, metadata)):
            self.host.put(node, key, value)

    def put_commit(self, node: int, tag: int, record: dict) -> None:
        self.host.put(node, (self.commit, tag), dict(record))

    # -- reads ----------------------------------------------------------
    def whole(self, node: int, tag: int, worker: int) -> bool:
        """``node`` holds all three keys and the payload passes its digest."""
        payload, digest, meta = self._keys(tag, worker)
        if not all(self.host.contains(node, key) for key in (payload, digest, meta)):
            return False
        return verify_chunk(self.host.get(node, payload), self.host.get(node, digest))

    def committed(self, tag: int, live_nodes) -> dict | None:
        """The commit record iff *every* live node holds an identical one."""
        record: dict | None = None
        for node in live_nodes:
            if not self.host.contains(node, (self.commit, tag)):
                return None
            found = self.host.get(node, (self.commit, tag))
            if record is None:
                record = found
            elif found != record:
                return None
        return record

    def intact(self, tag: int, live_nodes) -> bool:
        """Every writer whole on a live home or buddy node."""
        live = set(live_nodes)
        return all(
            any(self.whole(node, tag, worker) for node in self.replicas(worker) if node in live)
            for worker in self.job.writers
        )

    def read(self, tag: int, worker: int, live_nodes) -> tuple[np.ndarray, bytes, int]:
        """A whole live copy ``(payload, metadata, node)``, home first.

        Raises:
            RecoveryError: when no live home or buddy copy is whole.
        """
        live = set(live_nodes)
        for node in self.replicas(worker):
            if node in live and self.whole(node, tag, worker):
                payload, _, meta = self._keys(tag, worker)
                return self.host.get(node, payload), self.host.get(node, meta), node
        raise RecoveryError(
            f"{self.commit} record {tag} of worker {worker} has no whole "
            f"surviving copy"
        )

    # -- redundancy -----------------------------------------------------
    def rereplicate(self, tag: int, wiped_nodes: set[int]) -> int:
        """Put a committed record back at full redundancy after a failure.

        Each home or buddy node without a whole copy gets one from a node
        that has it (an independent payload copy), and every wiped node
        gets the commit record.  A record not committed on the nodes
        that kept their memory is left alone.  Returns the payload bytes
        copied (the engine prices the transfer).
        """
        nodes = range(self.job.cluster.num_nodes)
        record = self.committed(tag, [n for n in nodes if n not in wiped_nodes])
        if record is None:
            return 0
        copied = 0
        for worker in self.job.writers:
            replicas = self.replicas(worker)
            holders = [n for n in replicas if self.whole(n, tag, worker)]
            if not holders:
                continue
            payload, digest, meta = (
                self.host.get(holders[0], key) for key in self._keys(tag, worker)
            )
            for node in replicas:
                if node not in holders:
                    self.put(node, tag, worker, payload.copy(), digest, meta)
                    copied += payload.nbytes
        for node in wiped_nodes:
            self.put_commit(node, tag, record)
        return copied


class GradientLog:
    """The gradient-log tail hanging off one committed base version.

    Owns only the tail's bookkeeping and the commit discipline of an
    append; its entries are the :class:`ReplicaStore` ``entries``, and
    all timing lives in the engines.  ``fire`` is the owning engine's
    ``fire`` so crash injection reaches every store/broadcast boundary.
    """

    def __init__(self, host, job, fire=None):
        self.job = job
        self.entries = ReplicaStore(
            host, job, ("grad", "graddig", "gradmeta"), "gradcommit"
        )
        self._fire = fire or (lambda point, **ctx: None)
        self.base_version: int | None = None
        self.base_iteration: int | None = None
        self.next_seq = 1
        #: Live entry seqs in append order (bookkeeping only — replay and
        #: the oracle always re-derive survivability from raw storage).
        self.seqs: list[int] = []

    def depth(self) -> int:
        """Entries in the tail (the timeline's ``log_depth`` signal)."""
        return len(self.seqs)

    # -- lifecycle ------------------------------------------------------
    def rebase(self, base_version: int | None, base_iteration: int | None) -> None:
        """A new base checkpoint committed: the old tail is superseded."""
        self._scrub(set())
        self.seqs = []
        self.base_version = base_version
        self.base_iteration = base_iteration

    def _scrub(self, keep: set[int]) -> None:
        """Delete every log key whose seq is not in ``keep``.

        A *storage scan*, not a bookkeeping walk: a crash mid-append
        leaves debris under a seq that never made ``self.seqs``, and that
        debris must not outlive the next rebase/prune (the oracle
        re-derives replayability from raw keys and would otherwise see
        entries the engine no longer tracks).
        """
        host = self.entries.host
        families = (*self.entries.kinds, self.entries.commit)
        for node in range(self.job.cluster.num_nodes):
            for key in list(host.keys(node)):
                if isinstance(key, tuple) and key[0] in families and key[1] not in keep:
                    host.delete(node, key)

    def prune_to(self, keep_seqs: list[int]) -> None:
        """Keep only ``keep_seqs`` (the replayed prefix); drop the rest —
        including debris of torn entries that never committed."""
        keep = set(keep_seqs)
        self._scrub(keep)
        self.seqs = [s for s in self.seqs if s in keep]

    # -- append ---------------------------------------------------------
    def append(
        self,
        iteration: int,
        deltas: dict[int, np.ndarray],
        metadata: dict[int, bytes],
        packet_size: int,
        worker_logical: dict[int, int] | None = None,
    ) -> int:
        """Write one entry: payloads home+buddy first, commit record last.

        ``worker_logical`` maps each writer to the full-scale dirty bytes
        its delta represents; the sums ride in the commit record so the
        replay path (and the oracle) can price fetches without trusting
        engine memory.  Returns the entry's seq.  Raises through the
        crash injector when armed — leaving a genuinely torn entry
        behind.
        """
        if self.base_version is None:
            raise CheckpointError("gradient log has no committed base version")
        seq = self.next_seq
        self.next_seq += 1
        self._fire("pre_grad_store", seq=seq, iteration=iteration)
        for worker, delta in deltas.items():
            home, buddy = self.entries.replicas(worker)
            digest = chunk_digest(delta)
            self.entries.put(home, seq, worker, delta, digest, metadata[worker])
            self._fire("mid_grad_replicate", seq=seq, worker=worker, dst=buddy)
            # The buddy holds an independent copy: bit rot on one
            # replica must not be visible on the other.
            self.entries.put(buddy, seq, worker, delta.copy(), digest, metadata[worker])
        worker_logical = dict(worker_logical or {})
        record = {
            "iteration": int(iteration),
            "base_version": int(self.base_version),
            "packet_size": int(packet_size),
            "logical_bytes": int(sum(worker_logical.values())),
            "worker_logical": worker_logical,
        }
        self._fire("pre_grad_commit", seq=seq, iteration=iteration)
        for node in range(self.job.cluster.num_nodes):
            self._fire("mid_grad_broadcast", seq=seq, dst=node)
            self.entries.put_commit(node, seq, record)
        self.seqs.append(seq)
        return seq

    # -- replay-side queries (survivor storage only) --------------------
    def replayable_tail(
        self, base_version: int, live_nodes: list[int]
    ) -> list[tuple[int, dict]]:
        """Committed, intact, contiguous entries based on ``base_version``.

        Stops at the first torn/missing entry — replaying past a gap
        would apply deltas against the wrong predecessor state.
        """
        tail: list[tuple[int, dict]] = []
        for seq in self.seqs:
            record = self.entries.committed(seq, live_nodes)
            if record is None or record["base_version"] != base_version:
                break
            if not self.entries.intact(seq, live_nodes):
                break
            tail.append((seq, record))
        return tail

    def replay_packet(
        self,
        base_payload: np.ndarray,
        worker: int,
        tail: list[tuple[int, dict]],
        live_nodes: list[int],
    ) -> tuple[np.ndarray, bytes | None, int]:
        """Apply the tail's deltas for one worker onto its base packet.

        Returns ``(payload, metadata_of_last_entry, buddy_fetches)``;
        metadata is ``None`` for an empty tail (the base's own metadata
        rules).
        """
        payload = base_payload
        metadata: bytes | None = None
        buddy_fetches = 0
        home, _ = self.entries.replicas(worker)
        for seq, _record in tail:
            delta, metadata, node = self.entries.read(seq, worker, live_nodes)
            payload = apply_delta(payload, delta)
            buddy_fetches += int(node != home)
        return payload, metadata, buddy_fetches

    def restore_redundancy(self, wiped_nodes: set[int]) -> int:
        """Re-replicate the kept entries onto wiped ranks, so the tail
        tolerates the next failure like any fresh entry.  Returns logical
        real bytes copied (the engine prices the transfer)."""
        return sum(self.entries.rereplicate(seq, wiped_nodes) for seq in self.seqs)
