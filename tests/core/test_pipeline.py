"""Tests for pipelined execution (analytic makespan + the in-line stage runner)."""

import threading

import pytest

from repro.errors import CheckpointError
from repro.core.pipeline import (
    STAGE_ENCODE,
    STAGE_TRANSFER,
    STAGE_XOR_REDUCE,
    PipelinedRunner,
    pipeline_makespan,
    serial_makespan,
)


# ---------------------------------------------------------------------------
# Analytic makespan
# ---------------------------------------------------------------------------
def test_single_buffer_pipeline_is_sum_of_stages():
    assert pipeline_makespan([1.0, 2.0, 3.0], buffers=1) == 6.0


def test_many_buffers_bound_by_slowest_stage():
    # 10 buffers, slowest stage 2.0: 1+2+3 + 9*3 = 33.
    assert pipeline_makespan([1.0, 2.0, 3.0], buffers=10) == 33.0


def test_pipeline_beats_serial_for_multiple_buffers():
    stages = [1.0, 1.5, 0.5]
    for buffers in (2, 8, 64):
        assert pipeline_makespan(stages, buffers) < serial_makespan(stages, buffers)


def test_pipeline_equals_serial_for_one_buffer():
    stages = [1.0, 2.0]
    assert pipeline_makespan(stages, 1) == serial_makespan(stages, 1)


def test_pipeline_asymptotic_speedup():
    """With B -> inf the speedup approaches sum(stages)/max(stages)."""
    stages = [1.0, 1.0, 1.0]
    buffers = 10_000
    speedup = serial_makespan(stages, buffers) / pipeline_makespan(stages, buffers)
    assert speedup == pytest.approx(3.0, rel=0.01)


def test_makespan_validation():
    with pytest.raises(CheckpointError):
        pipeline_makespan([], 1)
    with pytest.raises(CheckpointError):
        pipeline_makespan([1.0], 0)
    with pytest.raises(CheckpointError):
        pipeline_makespan([-1.0], 1)
    with pytest.raises(CheckpointError):
        serial_makespan([1.0], 0)


# ---------------------------------------------------------------------------
# The stage runner: three stages per item, in line on the calling thread
# ---------------------------------------------------------------------------
def test_runner_preserves_order_and_applies_stages():
    runner = PipelinedRunner(
        encode=lambda x: x + 1,
        reduce=lambda x: x * 2,
        transfer=lambda x: x - 1,
    )
    assert runner.run([0, 1, 2, 3]) == [1, 3, 5, 7]


def test_runner_empty_input():
    runner = PipelinedRunner(lambda x: x, lambda x: x, lambda x: x)
    assert runner.run([]) == []


def test_runner_starts_no_thread():
    """Every stage and hook call runs on the caller's thread, and the
    process holds no more threads before, during or after ``run``."""
    caller = threading.current_thread()
    before = threading.active_count()
    during = []

    def stage(x):
        during.append((threading.current_thread(), threading.active_count()))
        return x

    runner = PipelinedRunner(stage, stage, stage, item_hook=lambda s, x: stage(x))
    assert runner.run(list(range(5))) == list(range(5))
    assert len(during) == 5 * 6
    assert {thread for thread, _ in during} == {caller}
    assert {count for _, count in during} == {before}
    assert threading.active_count() == before


def test_runner_finishes_an_item_before_starting_the_next():
    calls = []
    runner = PipelinedRunner(
        encode=lambda x: calls.append(("encode", x)) or x,
        reduce=lambda x: calls.append(("reduce", x)) or x,
        transfer=lambda x: calls.append(("transfer", x)) or x,
    )
    runner.run(["a", "b"])
    assert calls == [
        (stage, item) for item in "ab" for stage in ("encode", "reduce", "transfer")
    ]


def test_runner_propagates_stage_errors():
    def explode(x):
        raise ValueError("boom")

    runner = PipelinedRunner(lambda x: x, explode, lambda x: x)
    with pytest.raises(ValueError, match="boom"):
        runner.run([1, 2])


def test_runner_with_numpy_xor_workload():
    """A realistic mini-encode pipeline: multiply, xor, collect."""
    import numpy as np

    from repro.gf.field import GF

    f = GF(8)
    buffers = [np.full(1024, i + 1, dtype=np.uint8) for i in range(6)]
    runner = PipelinedRunner(
        encode=lambda buf: f.mul_region(7, buf),
        reduce=lambda buf: buf ^ 0xFF,
        transfer=lambda buf: buf.copy(),
    )
    out = runner.run(buffers)
    for i, result in enumerate(out):
        expected = f.mul_region(7, buffers[i]) ^ 0xFF
        assert np.array_equal(result, expected)


# ---------------------------------------------------------------------------
# item_hook and failure behaviour (the fault-injection surface)
# ---------------------------------------------------------------------------
def test_item_hook_sees_every_stage_result():
    seen = []

    def hook(stage, result):
        seen.append((stage, result))

    runner = PipelinedRunner(
        encode=lambda x: x + 1,
        reduce=lambda x: x * 10,
        transfer=lambda x: x - 1,
        item_hook=hook,
    )
    assert runner.run([0, 1]) == [9, 19]
    assert seen == [
        (STAGE_ENCODE, 1),
        (STAGE_XOR_REDUCE, 10),
        (STAGE_TRANSFER, 9),
        (STAGE_ENCODE, 2),
        (STAGE_XOR_REDUCE, 20),
        (STAGE_TRANSFER, 19),
    ]


def test_item_hook_exception_aborts_the_run():
    """A raising hook propagates at once: item 1 is done, item 2 stopped at
    the hook's boundary, item 3 never started."""
    done = []

    def hook(stage, result):
        if stage == STAGE_XOR_REDUCE and result == 2:
            raise RuntimeError("injected")

    runner = PipelinedRunner(
        lambda x: done.append((STAGE_ENCODE, x)) or x,
        lambda x: done.append((STAGE_XOR_REDUCE, x)) or x,
        lambda x: done.append((STAGE_TRANSFER, x)) or x,
        item_hook=hook,
    )
    with pytest.raises(RuntimeError, match="injected"):
        runner.run([1, 2, 3])
    assert done == [
        (STAGE_ENCODE, 1),
        (STAGE_XOR_REDUCE, 1),
        (STAGE_TRANSFER, 1),
        (STAGE_ENCODE, 2),
        (STAGE_XOR_REDUCE, 2),
    ]


@pytest.mark.parametrize("stage_index", [0, 1, 2])
def test_failing_stage_never_deadlocks_full_queues(stage_index):
    """Kept from the threaded runner, whose dying stage could hang ``run``
    on a full bounded queue.  In line there is nothing to hang on; what the
    test pins now is what a failure leaves behind: items before the failing
    one passed every stage, the failing one stopped at its stage, later
    ones were never touched."""
    fail_at = 3
    done = []

    def make(index):
        def stage(x):
            if index == stage_index and x == fail_at:
                raise ValueError("boom")
            done.append((index, x))
            return x

        return stage

    runner = PipelinedRunner(make(0), make(1), make(2))
    with pytest.raises(ValueError, match="boom"):
        runner.run(list(range(64)))
    assert done == [(s, x) for x in range(fail_at) for s in range(3)] + [
        (s, fail_at) for s in range(stage_index)
    ]
