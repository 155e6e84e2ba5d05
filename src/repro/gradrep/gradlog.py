"""Replicated per-iteration gradient log (Checkmate-style, PAPERS.md).

Instead of snapshotting state every checkpoint interval, a gradient-
replication engine ships the *per-iteration update* — the XOR delta
between consecutive packetised states, computed by
:func:`repro.core.incremental.packet_delta` — to a cross-rack buddy node
every iteration.  Recovery is then **temporal**: restore the last
committed base checkpoint and re-apply the logged deltas in order.

Log entry layout in the engine's host store (per node):

* ``("grad", seq, worker)`` — the worker's XOR delta payload;
* ``("graddig", seq, worker)`` — CRC-32 of that payload;
* ``("gradmeta", seq, worker)`` — the worker's metadata blob *at that
  iteration* (tensor layout plus the non-tensor fields — iteration
  counter, optimizer step — that packet bytes alone cannot restore);
* ``("gradcommit", seq)`` — the commit record ``{"iteration",
  "base_version", "packet_size"}``, broadcast to **every** node last.

**Replay commit rule.**  Payload bytes land on the home node and its
buddy first; the commit record is broadcast only afterwards.  An entry
is replayable after a failure iff

1. every surviving node holds its commit record (a broadcast torn by a
   crash leaves at least one survivor without it — the entry is torn and
   must never be replayed),
2. for every writer, some surviving node out of {home, buddy} holds a
   payload whose digest verifies (bit rot demotes the entry to torn),
3. the entry's ``base_version`` matches the restored base and its seq is
   contiguous with the replayed prefix (a gap ends the replay).

The same rule is re-derived independently from raw storage by the chaos
oracle (:func:`repro.chaos.invariants.expected_recovery`), which is what
makes the hybrid campaign a real differential test.
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


class GradientLog:
    """The gradient-log tail hanging off one committed base version.

    Owns only byte placement and the commit discipline; all timing lives
    in the engines.  ``fire`` is the owning engine's ``fire`` so crash
    injection reaches every store/broadcast boundary.
    """

    def __init__(self, host, job, fire=None):
        self.host = host
        self.job = job
        self._fire = fire or (lambda point, **ctx: None)
        self.base_version: int | None = None
        self.base_iteration: int | None = None
        self.next_seq = 1
        #: Live entry seqs in append order (bookkeeping only — replay and
        #: the oracle always re-derive survivability from raw storage).
        self.seqs: list[int] = []

    # -- placement ------------------------------------------------------
    def home_of(self, worker: int) -> int:
        return self.job.node_of(worker)

    def buddy_node(self, node: int) -> int:
        cluster = self.job.cluster
        return buddy_of(node, cluster.num_nodes, cluster.nodes_per_rack)

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
        for node in range(self.job.cluster.num_nodes):
            for key in list(self.host.keys(node)):
                if (
                    isinstance(key, tuple)
                    and key[0] in ("grad", "graddig", "gradmeta", "gradcommit")
                    and key[1] not in keep
                ):
                    self.host.delete(node, key)

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
            home = self.home_of(worker)
            digest = chunk_digest(delta)
            for node in (home, self.buddy_node(home)):
                if node != home:
                    self._fire(
                        "mid_grad_replicate", seq=seq, worker=worker, dst=node
                    )
                # The buddy holds an independent copy: bit rot on one
                # replica must not be visible on the other.
                payload = delta if node == home else delta.copy()
                self.host.put(node, ("grad", seq, worker), payload)
                self.host.put(node, ("graddig", seq, worker), digest)
                self.host.put(node, ("gradmeta", seq, worker), metadata[worker])
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
            self.host.put(node, ("gradcommit", seq), dict(record))
        self.seqs.append(seq)
        return seq

    # -- replay-side queries (survivor storage only) --------------------
    def committed_record(self, seq: int, live_nodes: list[int]) -> dict | None:
        """The commit record iff *every* live node holds it, else None."""
        record: dict | None = None
        for node in live_nodes:
            if not self.host.contains(node, ("gradcommit", seq)):
                return None
            found = self.host.get(node, ("gradcommit", seq))
            if record is None:
                record = found
            elif found != record:
                return None
        return record

    def entry_intact(self, seq: int, live_nodes: list[int]) -> bool:
        """True iff every writer's payload verifies on some survivor."""
        live = set(live_nodes)
        for worker in self.job.writers:
            home = self.home_of(worker)
            if not any(
                self._holds_verified(node, seq, worker)
                for node in (home, self.buddy_node(home))
                if node in live
            ):
                return False
        return True

    def _holds_verified(self, node: int, seq: int, worker: int) -> bool:
        if not (
            self.host.contains(node, ("grad", seq, worker))
            and self.host.contains(node, ("graddig", seq, worker))
            and self.host.contains(node, ("gradmeta", seq, worker))
        ):
            return False
        return verify_chunk(
            self.host.get(node, ("grad", seq, worker)),
            self.host.get(node, ("graddig", seq, worker)),
        )

    def replayable_tail(
        self, base_version: int, live_nodes: list[int]
    ) -> list[tuple[int, dict]]:
        """Committed, intact, contiguous entries based on ``base_version``.

        Stops at the first torn/missing entry — replaying past a gap
        would apply deltas against the wrong predecessor state.
        """
        tail: list[tuple[int, dict]] = []
        for seq in self.seqs:
            record = self.committed_record(seq, live_nodes)
            if record is None or record["base_version"] != base_version:
                break
            if not self.entry_intact(seq, live_nodes):
                break
            tail.append((seq, record))
        return tail

    def collect(
        self, seq: int, worker: int, live_nodes: list[int]
    ) -> tuple[np.ndarray, bytes, bool]:
        """A verified ``(payload, metadata, from_buddy)`` for one writer.

        Raises:
            RecoveryError: when no survivor holds a verified copy.
        """
        live = set(live_nodes)
        home = self.home_of(worker)
        for node in (home, self.buddy_node(home)):
            if node in live and self._holds_verified(node, seq, worker):
                return (
                    self.host.get(node, ("grad", seq, worker)),
                    self.host.get(node, ("gradmeta", seq, worker)),
                    node != home,
                )
        raise RecoveryError(
            f"gradient-log entry seq={seq} worker={worker} has no verified "
            f"surviving copy"
        )

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
        for seq, _record in tail:
            delta, meta, from_buddy = self.collect(seq, worker, live_nodes)
            payload = apply_delta(payload, delta)
            metadata = meta
            buddy_fetches += int(from_buddy)
        return payload, metadata, buddy_fetches

    # -- redundancy -----------------------------------------------------
    def restore_redundancy(self, wiped_nodes: set[int]) -> int:
        """Re-replicate surviving entries onto wiped ranks.

        After recovery the tail must tolerate the next failure like any
        other entry: home/buddy copies and commit records that lived on a
        wiped rank are re-pushed from survivors.  Returns logical real
        bytes copied (the engine prices the transfer).
        """
        copied = 0
        for seq in self.seqs:
            live = [
                n
                for n in range(self.job.cluster.num_nodes)
                if n not in wiped_nodes
            ]
            record = self.committed_record(seq, live)
            if record is None:
                continue
            for worker in self.job.writers:
                home = self.home_of(worker)
                buddy = self.buddy_node(home)
                holders = [
                    n for n in (home, buddy)
                    if self._holds_verified(n, seq, worker)
                ]
                if not holders:
                    continue
                source = holders[0]
                for node in (home, buddy):
                    if node not in holders:
                        payload = self.host.get(
                            source, ("grad", seq, worker)
                        ).copy()
                        self.host.put(node, ("grad", seq, worker), payload)
                        self.host.put(
                            node,
                            ("graddig", seq, worker),
                            self.host.get(source, ("graddig", seq, worker)),
                        )
                        self.host.put(
                            node,
                            ("gradmeta", seq, worker),
                            self.host.get(source, ("gradmeta", seq, worker)),
                        )
                        copied += payload.nbytes
            for node in wiped_nodes:
                self.host.put(node, ("gradcommit", seq), dict(record))
        return copied
