"""Thread-pool-parallelised encoding, mirroring ECCheck's Sec. IV-A.

The paper accelerates CPU encoding by splitting each contiguous encoding
task into sub-tasks handled by a thread pool.  Each sub-task runs the one
fused kernel (:func:`repro.ec.kernels.apply_rows`) over its byte range;
numpy's gathers and XORs release the GIL for large buffers, so even in
CPython a pool gives real parallelism on multi-core hosts.

Two pieces here are shared with the shared-memory process pool
(:mod:`repro.ec.procpool`), forming the common dispatch interface every
encoder backend implements:

* :func:`split_ranges` — the word-aligned sub-range splitter;
* :class:`EncodeStats` — the per-call accounting record, including which
  execution ``mode`` the call actually took.

The kernel works word by word, so any word-aligned split encodes to the
same bytes: :class:`ThreadPoolEncoder` is byte-identical to
``code.encode`` — tests assert this for every chunk count.  Because the
GIL can make pooled encoding *slower* than single-shot (the kernel's
per-block numpy calls are short, and each re-acquires it), the encoder
self-calibrates per payload-size bucket: the first call at a bucket runs
single-shot, the second runs pooled, and later calls take whichever
measured faster.  Either way the bytes are identical — the calibration
only ever changes wall time.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import CodeConfigError
from repro.ec.base import ErasureCode
from repro.ec.kernels import WORD_BYTES, apply_rows


@dataclass
class EncodeStats:
    """Accounting for one encoder call (any backend)."""

    sub_tasks: int
    bytes_encoded: int
    threads: int
    #: Execution route actually taken: ``"pool"`` (fanned out to workers)
    #: or ``"single"`` (one kernel call over the whole block).
    mode: str = "pool"
    #: Which encoder backend produced this record.
    backend: str = "thread"


def split_ranges(
    block_size: int, parts: int, min_subtask_bytes: int
) -> list[tuple[int, int]]:
    """Byte ranges covering ``block_size``, aligned to the kernel word.

    Boundaries fall on :data:`repro.ec.kernels.WORD_BYTES`, so every range
    but the last runs on ``uint64`` lanes.  Both pool encoders use this
    splitter.
    """
    word = WORD_BYTES
    target = max(min_subtask_bytes, block_size // max(parts, 1))
    target = max(word, (target // word) * word)
    ranges = []
    start = 0
    while start < block_size:
        end = min(block_size, start + target)
        # Keep every sub-range word-aligned except possibly the last.
        if end != block_size:
            end = (end // word) * word
        ranges.append((start, end))
        start = end
    return ranges


class ThreadPoolEncoder:
    """Encode ``k`` blocks by fanning sub-ranges out to a thread pool.

    Args:
        code: the erasure code to apply.
        threads: pool size (defaults to 4, the sweet spot the paper's
            thread-pool technique targets on its EPYC hosts).
        min_subtask_bytes: sub-tasks smaller than this are merged, so tiny
            buffers don't pay pool overhead.
        adaptive: self-calibrate pooled vs single-shot per payload-size
            bucket and take the measured winner (see the module docstring).
            ``False`` restores the always-pool behaviour, which the
            benchmark uses to measure the pure pooled number.
    """

    def __init__(
        self,
        code: ErasureCode,
        threads: int = 4,
        min_subtask_bytes: int = 4096,
        adaptive: bool = True,
    ):
        if threads < 1:
            raise CodeConfigError(f"threads must be >= 1, got {threads}")
        self.code = code
        self.threads = threads
        self.min_subtask_bytes = min_subtask_bytes
        self.adaptive = adaptive
        self.last_stats: EncodeStats | None = None
        #: size-bucket -> {"single": seconds, "pool": seconds} calibration
        #: measurements; the winner is re-derived on every adaptive call.
        self._calibration: dict[int, dict[str, float]] = {}
        self._clock = time.perf_counter  # injectable for tests

    def _split_ranges(self, block_size: int) -> list[tuple[int, int]]:
        return split_ranges(block_size, self.threads, self.min_subtask_bytes)

    def _pick_mode(self, size: int, n_ranges: int) -> str:
        """Choose pooled vs single-shot execution for this call.

        Adaptive calibration: per power-of-two size bucket, measure
        single-shot on the first call and pooled on the second; from then
        on take the winner.  A pooled run whose per-thread gain is
        negative (the GIL-serialisation failure mode this fixes) loses
        the measurement and every later call at that size falls back.
        """
        if self.threads == 1 or n_ranges <= 1:
            return "single"
        if not self.adaptive:
            return "pool"
        cal = self._calibration.setdefault(size.bit_length(), {})
        if "single" not in cal:
            return "single"
        if "pool" not in cal:
            return "pool"
        return "single" if cal["single"] <= cal["pool"] else "pool"

    def encode(self, data_blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Parallel encode; returns ``m`` parity blocks, byte-identical to
        ``code.encode(data_blocks)``.

        Each worker runs the fused kernel over its sub-range and writes
        parity bytes directly into views of the preallocated output
        blocks — no per-range temporaries.
        """
        blocks = self.code._check_blocks(data_blocks)
        size = blocks[0].nbytes
        ranges = self._split_ranges(size)
        parity = [np.empty(size, dtype=np.uint8) for _ in range(self.code.params.m)]
        mode = self._pick_mode(size, len(ranges))

        def encode_range(rng: tuple[int, int]) -> None:
            start, end = rng
            apply_rows(
                self.code.field,
                self.code.parity_matrix,
                [b[start:end] for b in blocks],
                [out[start:end] for out in parity],
            )

        sub_tasks = len(ranges) if mode == "pool" else 1
        tracer = obs.get_tracer()
        with tracer.span(
            "threadpool.encode",
            nbytes=size * len(blocks),
            sub_tasks=sub_tasks,
            mode=mode,
        ):
            started = self._clock()
            if mode == "single":
                encode_range((0, size))
            else:
                with ThreadPoolExecutor(max_workers=self.threads) as pool:
                    list(pool.map(encode_range, ranges))
            elapsed = self._clock() - started
        if self.adaptive:
            cal = self._calibration.setdefault(size.bit_length(), {})
            # Keep the best observation per mode: transient noise (a GC
            # pause during calibration) must not pin a wrong winner.
            cal[mode] = min(cal.get(mode, float("inf")), elapsed)
        self.last_stats = EncodeStats(
            sub_tasks=sub_tasks,
            bytes_encoded=size * len(blocks),
            threads=self.threads,
            mode=mode,
            backend="thread",
        )
        return parity
