"""A minimal numpy-backed tensor with an explicit device tag.

The checkpointing path never does math on tensors — it moves, views and
encodes their bytes.  :class:`SimTensor` therefore only models what the
paper's protocol touches: contiguous storage, dtype/shape, and which memory
(GPU or CPU) currently holds the bytes, so the CUDA DtoH copy of
checkpointing step 1 is an explicit operation with an observable byte count.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.errors import ReproError

GPU = "gpu"
CPU = "cpu"
_DEVICES = (GPU, CPU)


class SimTensor:
    """A contiguous tensor living on a simulated device.

    ``data`` and :meth:`byte_view` are read-only.  Bytes are written only
    through :meth:`writable_view` or :meth:`xor_every`, which count the
    write: a delta save (:mod:`repro.core.incremental`) re-reads only
    tensors whose storage or count moved since its base, or that a
    writable view may still change.

    Attributes:
        data: the backing numpy array (always C-contiguous), read-only;
            assigning it swaps the storage.
        device: ``"gpu"`` or ``"cpu"``.
    """

    # A restore builds one per tensor and training writes every one per
    # iteration: slots keep both cheap.
    __slots__ = (
        "device", "_store", "_bytes", "_writes", "_writer", "_others"
    )
    #: The C-contiguous storage that :meth:`writable_view` views.
    _store: np.ndarray
    #: The read-only flat uint8 view :meth:`byte_view` returns, built on
    #: first use.
    _bytes: np.ndarray | None
    #: Counted writes so far (writable views and in-place writes); a weak
    #: reference to the latest writable view, and to any earlier ones still
    #: alive when a later one was taken.
    _writes: int
    _writer: weakref.ref | None
    _others: tuple[weakref.ref, ...]

    def __init__(self, data: np.ndarray, device: str = GPU) -> None:
        if device not in _DEVICES:
            raise ReproError(f"unknown device {device!r}; use 'gpu' or 'cpu'")
        self.device = device
        self._writes = 0
        self._writer = None
        self._others = ()
        self._store = np.ascontiguousarray(data)
        self._bytes = None

    @property
    def data(self) -> np.ndarray:
        view = self._store.view()
        view.setflags(write=False)
        return view

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._store = np.ascontiguousarray(value)
        self._bytes = None

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the tensor's storage in bytes."""
        return self._store.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self._store.shape

    @property
    def dtype(self) -> np.dtype:
        return self._store.dtype

    def to(self, device: str) -> "SimTensor":
        """Copy the tensor to another device (a new SimTensor).

        The copy models the CUDA DtoH/HtoD transfer; timing is accounted by
        the engines, not here.
        """
        if device not in _DEVICES:
            raise ReproError(f"unknown device {device!r}")
        return SimTensor(self._store.copy(), device=device)

    def byte_view(self) -> np.ndarray:
        """Flat read-only uint8 view of the tensor's storage (no copy), the
        same object while ``data`` is the same storage."""
        view = self._bytes
        if view is None:
            view = self._bytes = self._store.reshape(-1).view(np.uint8)
            view.setflags(write=False)
        return view

    def writable_view(self) -> np.ndarray:
        """A fresh, writable flat uint8 view of the storage: the one way to
        write the tensor's bytes.

        Taking it counts as a write, and the tensor counts as written for
        as long as the view, or any view numpy derives from it, is alive.
        """
        # An array over a memoryview stays the base of every view sliced
        # from it (numpy collapses bases only through arrays), so none
        # outlives it unseen.
        view = np.frombuffer(memoryview(self._store), np.uint8)
        self._writes += 1
        writer = self._writer
        if writer is not None and writer() is not None:
            self._others = (*self._others, writer)  # two alive at once: rare
        self._writer = weakref.ref(view)
        return view

    def xor_every(self, step: int, value: np.uint8) -> None:
        """XOR ``value`` into every ``step``-th byte of the storage, in place.

        A counted write: the write count moves as taking a
        :meth:`writable_view` moves it, and no view outlives the call
        (training writes every tensor this way each iteration).
        """
        store = self._store
        count = -(-store.nbytes // step)
        # One strided array straight over the storage's buffer.
        strided = np.ndarray((count,), np.uint8, store, 0, (step,))
        np.bitwise_xor(strided, value, out=strided)
        self._writes += 1

    def _writer_alive(self) -> bool:
        """Whether a writable view of this tensor may still be alive; drops
        the references to views that are not."""
        writer = self._writer
        if writer is not None:
            if writer() is not None:
                return True
            self._writer = None
        if self._others:
            self._others = tuple(ref for ref in self._others if ref() is not None)
        return bool(self._others)

    def write_stamp(self) -> int:
        """How many counted writes so far, or -1 while a writable view is alive."""
        return -1 if self._writer_alive() else self._writes

    def walk_entry(self) -> tuple[np.dtype, tuple[int, ...], np.ndarray, int]:
        """``(dtype, shape, byte_view(), write_stamp())`` in one call: what
        step 1's walk reads of every tensor on every save."""
        store, view = self._store, self._bytes
        if view is None:
            view = self.byte_view()
        writer = self._writer  # write_stamp(), inline for the common cases
        if writer is not None and writer() is None:
            writer = self._writer = None
        if writer is None and not self._others:
            return store.dtype, store.shape, view, self._writes
        return store.dtype, store.shape, view, self.write_stamp()

    def __getstate__(self) -> dict:
        # A clone owns a copy of the storage; views and weakrefs stay behind.
        return {"data": self._store, "device": self.device}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["data"], state["device"])

    @classmethod
    def from_bytes(
        cls,
        raw: np.ndarray | bytes,
        dtype: np.dtype,
        shape: tuple[int, ...],
        device: str = CPU,
    ) -> "SimTensor":
        """Rebuild a tensor from raw bytes plus its dtype/shape metadata.

        The tensor owns its storage: exactly one copy out of ``raw`` (the
        full-serialization path; a restore views one buffer per worker).
        """
        if isinstance(raw, np.ndarray):
            buf = np.array(raw, order="C").reshape(-1).view(np.uint8)
        else:
            buf = np.frombuffer(raw, dtype=np.uint8).copy()
        return cls(buf.view(dtype).reshape(shape), device=device)

    def equal(self, other: "SimTensor") -> bool:
        """Bit-exact equality of dtype, shape and storage bytes."""
        return (
            self.dtype == other.dtype
            and self.shape == other.shape
            and np.array_equal(self.byte_view(), other.byte_view())
        )

    @classmethod
    def random(
        cls,
        shape: tuple[int, ...],
        dtype: str = "float32",
        device: str = GPU,
        seed: int | None = None,
    ) -> "SimTensor":
        """Random tensor for tests and workload generation."""
        rng = np.random.default_rng(seed)
        dt = np.dtype(dtype)
        if dt.kind == "f":
            data = rng.standard_normal(shape).astype(dt)
        else:
            data = rng.integers(0, np.iinfo(dt).max, size=shape, dtype=dt)
        return cls(data, device=device)

    def __repr__(self) -> str:
        return f"SimTensor(shape={self.shape}, dtype={self.dtype}, device={self.device!r})"
