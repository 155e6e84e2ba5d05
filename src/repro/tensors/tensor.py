"""A minimal numpy-backed tensor with an explicit device tag.

The checkpointing path never does math on tensors — it moves, views and
encodes their bytes.  :class:`SimTensor` therefore only models what the
paper's protocol touches: contiguous storage, dtype/shape, and which memory
(GPU or CPU) currently holds the bytes, so the CUDA DtoH copy of
checkpointing step 1 is an explicit operation with an observable byte count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

GPU = "gpu"
CPU = "cpu"
_DEVICES = (GPU, CPU)


@dataclass
class SimTensor:
    """A contiguous tensor living on a simulated device.

    Attributes:
        data: the backing numpy array (always kept C-contiguous).
        device: ``"gpu"`` or ``"cpu"``.
    """

    data: np.ndarray
    device: str = GPU
    #: ``(data, its flat uint8 view)`` as :meth:`byte_view` last built it.
    _bytes: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.device not in _DEVICES:
            raise ReproError(f"unknown device {self.device!r}; use 'gpu' or 'cpu'")
        self.data = np.ascontiguousarray(self.data)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Size of the tensor's storage in bytes."""
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def to(self, device: str) -> "SimTensor":
        """Copy the tensor to another device (a new SimTensor).

        The copy models the CUDA DtoH/HtoD transfer; timing is accounted by
        the engines, not here.
        """
        if device not in _DEVICES:
            raise ReproError(f"unknown device {device!r}")
        return SimTensor(self.data.copy(), device=device)

    def byte_view(self) -> np.ndarray:
        """Flat uint8 view of the tensor's contiguous storage (no copy), kept
        while ``data`` is the same array object: it sees every in-place write."""
        cached = self._bytes
        if cached is not None and cached[0] is self.data:
            return cached[1]
        view = self.data.reshape(-1).view(np.uint8)
        self._bytes = (self.data, view)
        return view

    def __getstate__(self) -> dict:
        # A clone has its own ``data``; a carried view would not be of it.
        return {**self.__dict__, "_bytes": None}

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
