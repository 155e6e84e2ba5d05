"""Shared-memory process-pool encoder: the GIL-free encoder backend.

``ThreadPoolEncoder`` tops out well below memory bandwidth because the
kernel's per-block numpy calls are short and each re-acquires the GIL,
so adding threads mostly adds lock convoy.  This module moves the
fan-out across *processes* instead:

* The encoder owns two ``multiprocessing.shared_memory`` segments — one
  carved into ``k`` data-block slots, one into ``m`` parity slots — and
  stages each encode call's blocks into the data segment once.
* Worker processes attach the segments **by name** and run the fused
  kernel (:func:`repro.ec.kernels.apply_rows`) over zero-copy numpy
  views of their assigned stripe.  A task submission is a tuple of names
  and byte offsets; tensor bytes are never pickled.
* Stripe assignment reuses :func:`repro.ec.threadpool.split_ranges` — the
  identical word-aligned splitting the thread pool uses.

Lifecycle: segments are unlinked on :meth:`close`, on a worker crash
(``BrokenProcessPool`` tears the pool down and releases the segments
before re-raising), on :meth:`reconfigure` (the next encode reallocates
at the new shape), and — as a last resort — by a ``weakref.finalize``
when the encoder is garbage collected.  Workers attach segments lazily
and unregister them from their own ``resource_tracker`` so a worker exit
never unlinks a segment the parent still owns.

Worker wall time is reported back to the parent, which records child
spans under the coordinating ``procpool.encode`` span via the tracer's
explicit cross-thread/cross-process parent mechanism (``perf_counter``
is ``CLOCK_MONOTONIC`` system-wide on Linux, so worker timestamps live
on the parent's clock).
"""

from __future__ import annotations

import os
import time
import uuid
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from multiprocessing import shared_memory

import numpy as np

from repro import obs
from repro.errors import CodeConfigError, EncodeError
from repro.ec.base import ErasureCode
from repro.ec.kernels import apply_rows
from repro.ec.threadpool import EncodeStats, ThreadPoolEncoder, split_ranges
from repro.gf.field import GF
from repro.gf.tables import W

#: Prefix of every shared-memory segment this module creates; the test
#: suite sweeps ``/dev/shm`` for it to prove nothing leaks.
SEGMENT_PREFIX = "repro-ec"

#: Segment slots are padded to whole pages so adjacent blocks never share
#: a cache line across stripe boundaries.
_SLOT_ALIGN = 4096

#: Processes pay far more per task than threads (pickle + queue + wakeup),
#: so the default sub-task floor is much higher than the thread pool's.
DEFAULT_MIN_SUBTASK_BYTES = 1 << 20


def _round_slot(nbytes: int) -> int:
    return max(_SLOT_ALIGN, -(-nbytes // _SLOT_ALIGN) * _SLOT_ALIGN)


# ---------------------------------------------------------------------------
# Worker side.  Everything here is module-level so the spawn start method
# pickles tasks by reference; caches live per worker process.
# ---------------------------------------------------------------------------

_WORKER_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach (and cache) a parent-owned segment by name.

    On 3.13+ we attach with ``track=False``: the parent owns the
    lifecycle.  Before 3.13 attaching registers the name with the
    resource tracker, but pool workers inherit the *parent's* tracker
    process (spawn passes ``tracker_fd``), so the register is an
    idempotent set-add of a name the parent already tracks — crucially we
    must NOT unregister here, or the parent's own unlink would find the
    name gone and leak-on-crash protection would be lost.
    """
    seg = _WORKER_SEGMENTS.get(name)
    if seg is None:
        try:
            seg = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # track= is 3.13+
            seg = shared_memory.SharedMemory(name=name)
        _WORKER_SEGMENTS[name] = seg
    return seg


def _evict_stale_segments(keep: set[str]) -> None:
    """Close attachments to segments the parent has since reallocated."""
    for name in [n for n in _WORKER_SEGMENTS if n not in keep]:
        seg = _WORKER_SEGMENTS.pop(name)
        try:
            seg.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass


def _worker_encode(task: tuple) -> tuple[int, float, float]:
    """Encode one stripe of the shared segments; returns (pid, t0, t1).

    The task carries only segment names, the ``m x k`` parity matrix and
    byte offsets.  Timestamps are ``perf_counter`` readings for the
    parent's span reconstruction.
    """
    data_name, parity_name, parity, data_stride, parity_stride, start, end = task
    m, k = len(parity), len(parity[0])
    t0 = time.perf_counter()
    data_seg = _attach_segment(data_name)
    parity_seg = _attach_segment(parity_name)
    _evict_stale_segments({data_name, parity_name})
    dbuf = np.frombuffer(data_seg.buf, dtype=np.uint8)
    pbuf = np.frombuffer(parity_seg.buf, dtype=np.uint8)
    ins = [dbuf[j * data_stride + start : j * data_stride + end] for j in range(k)]
    outs = [
        pbuf[i * parity_stride + start : i * parity_stride + end] for i in range(m)
    ]
    apply_rows(GF(W), np.asarray(parity), ins, outs)
    return (os.getpid(), t0, time.perf_counter())


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _cleanup_state(state: dict) -> None:
    """Idempotent teardown shared by close(), crash paths and the finalizer."""
    pool = state.get("pool")
    state["pool"] = None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    segments = state.get("segments") or []
    state["segments"] = []
    for seg in segments:
        try:
            seg.close()
        except BufferError:  # a caller still holds a view; unlink anyway
            pass
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SharedMemoryProcessPoolEncoder:
    """Encode ``k`` blocks across worker processes over shared memory.

    Byte-identical to ``code.encode`` (the same guarantee — and the same
    stripe splitting — as :class:`~repro.ec.threadpool.ThreadPoolEncoder`),
    but immune to the GIL: each worker process runs the fused kernel over
    its stripe of the shared segments.

    Args:
        code: the erasure code to apply.
        workers: pool size (default: ``min(4, cpu_count)``).
        min_subtask_bytes: stripe floor; stripes smaller than this are
            merged so small buffers skip process overhead entirely.
        mp_context: multiprocessing start method (default ``"spawn"`` —
            fork would duplicate whatever threads the parent happens to
            be running; workers are persistent so the startup cost is
            paid once).
    """

    def __init__(
        self,
        code: ErasureCode,
        workers: int | None = None,
        min_subtask_bytes: int = DEFAULT_MIN_SUBTASK_BYTES,
        mp_context: str = "spawn",
    ):
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if workers < 1:
            raise CodeConfigError(f"workers must be >= 1, got {workers}")
        self.code = code
        self.workers = workers
        self.min_subtask_bytes = min_subtask_bytes
        self.last_stats: EncodeStats | None = None
        self._ctx = get_context(mp_context)
        self._stride = 0
        self._alloc_shape: tuple[int, int] | None = None
        # Pool + segments live in a dict shared with the finalizer so
        # teardown never needs (and never resurrects) ``self``.
        self._state: dict = {"pool": None, "segments": []}
        self._finalizer = weakref.finalize(self, _cleanup_state, self._state)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut the pool down and unlink the shared segments."""
        _cleanup_state(self._state)

    def __enter__(self) -> "SharedMemoryProcessPoolEncoder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def reconfigure(self, code: ErasureCode) -> None:
        """Swap to a new code shape, releasing the old segments.

        The worker pool survives (tasks carry the parity rows); the
        segments are unlinked immediately — encode is synchronous, so no
        worker can hold a stripe of them mid-flight — and the next encode
        allocates fresh ones sized for the new ``(k, m)``.  This is the
        hook the elastic path must call instead of resizing buffers under
        a live pool.
        """
        self.code = code
        self._release_segments()

    def _release_segments(self) -> None:
        segments = self._state["segments"]
        self._state["segments"] = []
        self._stride = 0
        self._alloc_shape = None
        for seg in segments:
            try:
                seg.close()
            except BufferError:
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def segment_names(self) -> list[str]:
        """Names of the live segments (test hook for leak checks)."""
        return [seg.name for seg in self._state["segments"]]

    def _pool(self) -> ProcessPoolExecutor:
        pool = self._state["pool"]
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._ctx
            )
            self._state["pool"] = pool
        return pool

    def _ensure_segments(self, size: int) -> None:
        k, m = self.code.params.k, self.code.params.m
        if (
            self._alloc_shape == (k, m)
            and self._stride >= size
            and self._state["segments"]
        ):
            return
        self._release_segments()
        stride = _round_slot(size)
        tag = f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        data = shared_memory.SharedMemory(
            create=True, size=k * stride, name=f"{tag}-d"
        )
        parity = shared_memory.SharedMemory(
            create=True, size=m * stride, name=f"{tag}-p"
        )
        self._state["segments"] = [data, parity]
        self._stride = stride
        self._alloc_shape = (k, m)

    # -- encode ----------------------------------------------------------

    def encode(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Parallel encode; returns ``m`` parity blocks, byte-identical to
        ``code.encode(data_blocks)``.

        Raises:
            EncodeError: if the worker pool died mid-call (the segments
                are released and the pool respawns on the next encode).
        """
        params = self.code.params
        blocks = self.code._check_blocks(data_blocks)
        size = blocks[0].nbytes
        ranges = split_ranges(size, self.workers, self.min_subtask_bytes)
        # No parity rows means no parity segment to share: single-shot.
        pooled = self.workers > 1 and len(ranges) > 1 and params.m > 0
        mode = "pool" if pooled else "single"

        tracer = obs.get_tracer()
        with tracer.span(
            "procpool.encode",
            nbytes=size * params.k,
            sub_tasks=len(ranges) if mode == "pool" else 1,
            workers=self.workers,
            mode=mode,
        ) as span:
            if mode == "single":
                parity = [np.empty(size, dtype=np.uint8) for _ in range(params.m)]
                apply_rows(self.code.field, self.code.parity_matrix, blocks, parity)
                worker_times: list[tuple[int, float, float]] = []
            else:
                parity, worker_times = self._encode_pooled(blocks, size, ranges)
        self.last_stats = EncodeStats(
            sub_tasks=len(ranges) if mode == "pool" else 1,
            bytes_encoded=size * params.k,
            threads=self.workers,
            mode=mode,
            backend="process",
        )
        if tracer.enabled:
            for (pid, t0, t1), (start, end) in zip(worker_times, ranges):
                tracer.record_span(
                    "procpool.worker",
                    parent=span,
                    start_s=tracer.rel_time(t0),
                    wall_s=max(t1 - t0, 0.0),
                    thread=f"pid-{pid}",
                    pid=pid,
                    nbytes=(end - start) * params.k,
                )
        return parity

    def _encode_pooled(
        self, blocks: list[np.ndarray], size: int, ranges: list[tuple[int, int]]
    ) -> tuple[list[np.ndarray], list[tuple[int, float, float]]]:
        params = self.code.params
        self._ensure_segments(size)
        data_seg, parity_seg = self._state["segments"]
        stride = self._stride
        parity_rows = tuple(map(tuple, self.code.parity_matrix.tolist()))
        # Stage the input blocks into the data segment (one memcpy each;
        # workers then touch only their stripe, zero-copy).
        dview = np.frombuffer(data_seg.buf, dtype=np.uint8)
        for j, block in enumerate(blocks):
            np.copyto(dview[j * stride : j * stride + size], block)
        tasks = [
            (
                data_seg.name,
                parity_seg.name,
                parity_rows,
                stride,
                stride,
                start,
                end,
            )
            for start, end in ranges
        ]
        pool = self._pool()
        try:
            futures = [pool.submit(_worker_encode, task) for task in tasks]
            worker_times = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            # A worker died (OOM-kill, segfault, os._exit): the executor
            # is unusable.  Tear everything down — segments included, so
            # nothing leaks in /dev/shm — and let the caller decide; the
            # next encode() respawns a fresh pool and fresh segments.
            del dview
            self.close()
            raise EncodeError(
                f"process-pool worker died during encode: {exc}"
            ) from exc
        pview = np.frombuffer(parity_seg.buf, dtype=np.uint8)
        parity = [
            np.array(pview[i * stride : i * stride + size])
            for i in range(params.m)
        ]
        del dview, pview
        return parity, worker_times


def make_encoder(
    code: ErasureCode,
    backend: str = "thread",
    threads: int = 4,
    min_subtask_bytes: int | None = None,
) -> ThreadPoolEncoder | SharedMemoryProcessPoolEncoder:
    """Encoder factory over the two pool backends (bench and library use).

    ``"thread"`` (default) builds the adaptive :class:`ThreadPoolEncoder`;
    ``"process"`` builds a :class:`SharedMemoryProcessPoolEncoder` with
    ``threads`` worker processes.  Both expose the same dispatch surface
    (``encode``, ``last_stats``) and the same byte-identity guarantee.
    """
    if backend == "process":
        return SharedMemoryProcessPoolEncoder(
            code,
            workers=threads,
            min_subtask_bytes=(
                DEFAULT_MIN_SUBTASK_BYTES
                if min_subtask_bytes is None
                else min_subtask_bytes
            ),
        )
    if backend == "thread":
        return ThreadPoolEncoder(
            code,
            threads=threads,
            min_subtask_bytes=4096 if min_subtask_bytes is None else min_subtask_bytes,
        )
    raise CodeConfigError(
        f"unknown encoder backend {backend!r} (expected 'thread' or 'process')"
    )
