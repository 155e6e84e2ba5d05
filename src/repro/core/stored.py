"""One view of a stored ECCheck version: its keys, its commit record, its
whole chunks, and the routines that read, store and move them.

Host-memory layout of version ``v`` (the only module that builds these
keys; ``tests/core/test_key_layout.py`` lints ``src/`` for that):

* every node: ``("meta", v, worker) -> (metadata_blob, length)`` — the
  commit record, broadcast last;
* data node ``j``: ``("chunk", v, "data", j, r) -> packet`` per reduction
  group ``r`` (together: data chunk ``D_j``);
* parity node ``i``: ``("chunk", v, "parity", i, r) -> packet`` (together:
  parity chunk ``P_i``);
* beside each packet, ``("digest", v, kind, idx, r) -> crc32``.

Chunk and digest keys grow an epoch suffix after a committed
layout-changing repair: repairs stream into staging keys, and the
placement/epoch flip makes them authoritative atomically, so a mid-repair
crash never corrupts the old layout's bytes.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.checkpoint.storage import _nbytes
from repro.core.integrity import chunk_digest, verify_chunk
from repro.core.placement import PlacementPlan
from repro.core.protocol import decode_group_into, derived_digest, encode_group_into
from repro.errors import CheckpointError


class StoredVersions:
    """The stored-version half of :class:`~repro.core.eccheck.ECCheckEngine`."""

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
        """Host-store key of a chunk packet's digest record: its chunk key
        under the ``"digest"`` kind."""
        return ("digest", *self.chunk_key(version, kind, idx, r, epoch)[1:])

    def _store_chunk_packet(
        self, node: int, version: int, kind: str, idx: int, r: int, payload: np.ndarray,
        digest: int | None = None, epoch: int | None = None, live: int | None = None,
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

    def _put_records(
        self, version: int, records: list[tuple], nodes, point: str | None = None
    ) -> None:
        """Every node in ``nodes`` holds the operation's one record; with a
        ``point``, that crash point fires before each worker's lands."""
        for worker, record in enumerate(records):
            if point is not None:
                self.fire(point, version=version, worker=worker)
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
        whole = {}
        for cid, (kind, idx, node) in enumerate(plan.chunks):
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
        chunk_of = [chunk[:2] for chunk in plan.chunks]
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

    def put_back(
        self, version: int, packets: dict[int, np.ndarray], plan: PlacementPlan,
        wanted: list[tuple[int, int]], epoch: int, whole: dict[int, int],
        records: list[tuple], landed=None,
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
        chunks = plan.chunks
        seeds = whole if plan == source and epoch == self.epoch_of(version) else {}
        known = [  # per group: chunk id -> digest, the verified survivors' first
            {c: self.host.get(node, self.digest_key(version, *chunks[c][:2], r))
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
            kind, idx, node = chunks[cid]
            if digest is None:
                digest = chunk_digest(payload, self.live_bytes(plan, records, kind, idx, r))
            known[r][cid] = digest
            self._store_chunk_packet(node, version, kind, idx, r, payload, digest, epoch)
            if landed is not None:
                landed(n)
        return counts[0], counts[1]
