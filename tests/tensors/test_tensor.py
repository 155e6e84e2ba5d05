"""Tests for SimTensor."""

import copy
import gc
import pickle

import numpy as np
import pytest

from repro.errors import ReproError
from repro.tensors.serialization import decompose_state_dict
from repro.tensors.tensor import CPU, GPU, SimTensor


def test_tensor_defaults_to_gpu():
    t = SimTensor(np.zeros(4, dtype=np.float32))
    assert t.device == GPU


def test_unknown_device_rejected():
    with pytest.raises(ReproError):
        SimTensor(np.zeros(4), device="tpu")
    with pytest.raises(ReproError):
        SimTensor(np.zeros(4)).to("tpu")


def test_to_copies_storage():
    t = SimTensor(np.arange(8, dtype=np.float32), device=GPU)
    host = t.to(CPU)
    assert host.device == CPU
    assert np.array_equal(host.data, t.data)
    host.writable_view().view(np.float32)[0] = 99
    assert host.data[0] == 99 and t.data[0] == 0  # deep copy


def test_nbytes_and_shape():
    t = SimTensor(np.zeros((3, 5), dtype=np.float16))
    assert t.nbytes == 30
    assert t.shape == (3, 5)
    assert t.dtype == np.float16


def test_byte_view_is_zero_copy():
    t = SimTensor(np.arange(4, dtype=np.uint32))
    view = t.byte_view()
    assert view.nbytes == 16
    t.writable_view()[0] = 77
    assert view[0] == 77 and t.data[0] == 77


def test_data_and_byte_view_refuse_writes():
    t = SimTensor(np.arange(4, dtype=np.uint32))
    with pytest.raises(ValueError, match="read-only"):
        t.data[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        t.byte_view()[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        t.data.reshape(2, 2)[0, 0] = 1  # nor through a view numpy derives
    assert t.write_stamp() == 0 and t.data.tolist() == [0, 1, 2, 3]


def test_a_writable_view_counts_while_it_or_a_view_of_it_lives():
    t = SimTensor(np.arange(4, dtype=np.uint32))
    view = t.writable_view()
    assert view is not t.writable_view()  # never cached
    assert t.write_stamp() == -1
    part = view[4:8]  # numpy would collapse a plain view's base to the storage
    del view
    gc.collect()
    assert t.write_stamp() == -1
    part[:] = 0xFF
    del part
    gc.collect()
    assert t.write_stamp() == 2  # two views taken, none alive
    assert t.data[1] == 0xFFFFFFFF


def test_a_zero_size_tensor_hands_out_an_empty_writable_view():
    t = SimTensor(np.zeros((0, 3), dtype=np.float32))
    view = t.writable_view()
    assert view.size == 0 and view.flags.writeable
    del view
    assert t.write_stamp() == 1


@pytest.mark.parametrize("shape", [(0, 3), (5,), (7, 33), (1000,)])
@pytest.mark.parametrize("step", [1, 3, 64])
def test_xor_every_writes_and_counts_as_a_writable_view_does(shape, step):
    size = int(np.prod(shape))
    t = SimTensor(np.arange(size, dtype=np.float16).reshape(shape))
    twin = SimTensor(t.data.copy())
    view = twin.writable_view()
    view[::step] ^= 0xA5
    del view
    byte_view = t.byte_view()
    t.xor_every(step, np.uint8(0xA5))
    assert t.equal(twin)
    assert t.write_stamp() == twin.write_stamp() == 1  # no view left alive
    assert t.byte_view() is byte_view  # same storage, same cached view


def test_xor_every_keeps_a_live_writable_view_dirty():
    t = SimTensor(np.zeros(8, dtype=np.uint8))
    view = t.writable_view()
    t.xor_every(2, np.uint8(1))
    assert t.write_stamp() == -1
    del view
    assert t.write_stamp() == 2


def test_xor_every_refuses_read_only_storage():
    data = np.zeros(4, dtype=np.uint8)
    data.setflags(write=False)
    t = SimTensor(data)
    with pytest.raises(ValueError, match="read-only"):
        t.xor_every(1, np.uint8(1))


def test_from_bytes_round_trip():
    t = SimTensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    rebuilt = SimTensor.from_bytes(
        t.byte_view().tobytes(), t.dtype, t.shape, device=CPU
    )
    assert rebuilt.equal(t)
    assert rebuilt.device == CPU


def test_equal_requires_same_dtype_and_shape():
    a = SimTensor(np.zeros(4, dtype=np.float32))
    b = SimTensor(np.zeros(4, dtype=np.float64))
    c = SimTensor(np.zeros((2, 2), dtype=np.float32))
    assert not a.equal(b)
    assert not a.equal(c)
    assert a.equal(SimTensor(np.zeros(4, dtype=np.float32)))


def test_random_is_deterministic_per_seed():
    a = SimTensor.random((8,), seed=1)
    b = SimTensor.random((8,), seed=1)
    c = SimTensor.random((8,), seed=2)
    assert a.equal(b)
    assert not a.equal(c)


def test_random_integer_dtype():
    t = SimTensor.random((16,), dtype="uint32", seed=0)
    assert t.dtype == np.uint32


def test_non_contiguous_input_made_contiguous():
    base = np.arange(16, dtype=np.float32).reshape(4, 4)
    t = SimTensor(base.T)  # transpose is non-contiguous
    assert t.data.flags["C_CONTIGUOUS"]


def test_byte_view_is_kept_while_data_is_the_same_array():
    t = SimTensor(np.arange(6, dtype=np.float32))
    first = t.byte_view()
    decompose_state_dict({"t": t}, offload_to_cpu=False)
    decompose_state_dict({"t": t}, offload_to_cpu=False)
    assert t.byte_view() is first
    t.writable_view().view(np.float32)[1] = 5.0  # seen through the kept view
    assert np.array_equal(first.view(np.float32), t.data)


def test_reassigned_data_gets_a_fresh_view():
    t = SimTensor(np.arange(6, dtype=np.float32))
    stale = t.byte_view()
    t.data = np.zeros(3, dtype=np.float64)
    view = t.byte_view()
    assert view is not stale and view.nbytes == 24
    t.writable_view()[0] = 1
    assert view[0] == 1 and t.data.view(np.uint8)[0] == 1


@pytest.mark.parametrize(
    "clone",
    [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_a_clone_never_carries_the_original_s_view(clone):
    """A naive cache hands the clone a detached copy of the original's view:
    writes through it would reach neither array."""
    t = SimTensor(np.arange(4, dtype=np.uint32))
    t.byte_view()
    keep = t.writable_view()  # a weakref cannot be pickled: it stays behind
    twin = clone(t)
    assert twin.write_stamp() == 0 and twin.byte_view() is not t.byte_view()
    twin.writable_view()[0] = 77
    del keep
    assert twin.data[0] == 77 and t.data[0] == 0
    assert twin.equal(SimTensor(np.array([77, 1, 2, 3], dtype=np.uint32)))
