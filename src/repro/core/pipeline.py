"""Encode / XOR-reduce / P2P, buffer by buffer (paper Sec. IV-C).

The paper streams a checkpoint through three stages — encode a buffer,
XOR-reduce it, ship it — on three threads, so the stages of successive
buffers overlap.  Two faces of that design live here:

* :class:`PipelinedRunner` — the engine's byte path: the three stages
  run per item, in order, **on the calling thread**.  Threads were
  measured and lost (two threads of ``np.take`` or ``zlib.crc32`` are
  slower than one on a two-vCPU host; DESIGN.md "Step 3 runs in line");
  the stage boundaries survive as spans and crash points.
* :func:`pipeline_makespan` — the analytic makespan of a B-buffer
  three-stage pipeline, used by the timing model: with per-buffer stage
  times ``t1, t2, t3``, the makespan is
  ``t1 + t2 + t3 + (B - 1) * max(t1, t2, t3)``.  The paper's pipelining
  claim (Fig. 13) is a property of this *simulated* bill.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs
from repro.errors import CheckpointError

#: Stage indices of a :class:`PipelinedRunner`, for ``item_hook`` callers.
STAGE_ENCODE, STAGE_XOR_REDUCE, STAGE_TRANSFER = 0, 1, 2

#: Trace-span names per stage (see :mod:`repro.obs`).
_STAGE_SPAN_NAMES = ("pipeline.encode", "pipeline.xor_reduce", "pipeline.transfer")


def pipeline_makespan(stage_times: list[float], buffers: int) -> float:
    """Makespan of a linear pipeline over ``buffers`` equal work items.

    Args:
        stage_times: per-buffer processing time of each stage.
        buffers: number of buffers (work items) streamed through.

    Raises:
        CheckpointError: for an empty pipeline or non-positive buffers.
    """
    if not stage_times:
        raise CheckpointError("pipeline needs at least one stage")
    if buffers < 1:
        raise CheckpointError(f"buffers must be >= 1, got {buffers}")
    if any(t < 0 for t in stage_times):
        raise CheckpointError(f"negative stage time in {stage_times}")
    return sum(stage_times) + (buffers - 1) * max(stage_times)


def serial_makespan(stage_times: list[float], buffers: int) -> float:
    """Unpipelined execution time of the same work (the ablation's base)."""
    if buffers < 1:
        raise CheckpointError(f"buffers must be >= 1, got {buffers}")
    return buffers * sum(stage_times)


class PipelinedRunner:
    """Encode -> XOR-reduce -> P2P over a list of items, in line.

    Each stage is a callable ``item -> item`` (returning the payload for
    the next stage).  An item passes through all three stages before the
    next one starts, on the caller's thread; no thread is started.

    ``item_hook(stage, result)`` runs after each stage of each item
    (``stage`` is a ``STAGE_*`` index) and may raise — fault injection
    crashes a save at any stage boundary this way.  The first exception,
    from a stage or the hook, propagates at once: earlier items are fully
    processed, later ones untouched.

    Example:
        >>> runner = PipelinedRunner(
        ...     encode=lambda x: x + 1,
        ...     reduce=lambda x: x * 2,
        ...     transfer=lambda x: x - 1,
        ... )
        >>> runner.run([0, 1, 2])
        [1, 3, 5]
    """

    def __init__(
        self,
        encode: Callable[[Any], Any],
        reduce: Callable[[Any], Any],
        transfer: Callable[[Any], Any],
        item_hook: Callable[[int, Any], None] | None = None,
    ):
        self._stages = (encode, reduce, transfer)
        self.item_hook = item_hook

    def run(self, items: list[Any]) -> list[Any]:
        """Pass each of ``items`` through all three stages; outputs in order."""
        tracer = obs.get_tracer()
        results: list[Any] = []
        for item in items:
            for index, stage in enumerate(self._stages):
                with tracer.span(_STAGE_SPAN_NAMES[index], stage=index):
                    item = stage(item)
                if self.item_hook is not None:
                    self.item_hook(index, item)
            results.append(item)
        return results
