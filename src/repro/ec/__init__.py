"""Erasure codes and block encoders.

The coding stack has three levels:

1. **Codes** (:class:`~repro.ec.base.ErasureCode` subclasses) own a
   systematic generator matrix over GF(2^w): Cauchy Reed-Solomon
   (:class:`~repro.ec.cauchy.CauchyRSCode`, the scheme ECCheck uses) and
   classic Vandermonde Reed-Solomon.
2. **Schedules** (:mod:`repro.ec.schedule`) compile a Cauchy bitmatrix into
   an explicit list of XOR operations, with an optimised variant that reuses
   intermediate parity rows.
3. **Encoders** (:mod:`repro.ec.encoder`, :mod:`repro.ec.threadpool`,
   :mod:`repro.ec.procpool`) apply a code to real byte payloads —
   splitting, padding, chunking for thread- or process-pool parallelism
   (the latter over shared-memory segments), and reassembling decoded
   output.  The pools are imported from their own modules, not
   re-exported here: the checkpoint engines use neither, and importing
   an engine must not load them.

Underneath all three sits the **kernel layer** (:mod:`repro.ec.kernels`):
word-packed, cache-blocked GF(2) primitives that schedule execution,
bitmatrix encode/decode and the XOR-reduce reference step run on.
See DESIGN.md "Hot path architecture".
"""

from repro.ec.base import CodeParams, ErasureCode
from repro.ec.cauchy import (
    CauchyRSCode,
    bitmatrix_ones,
    build_cauchy_good_matrix,
    build_cauchy_matrix,
    schedule_cache_info,
)
from repro.ec.kernels import (
    DEFAULT_CHUNK_BYTES,
    WORD_BYTES,
    apply_schedule_blocks,
    range_alignment,
    xor_reduce_arrays,
    xor_reduce_into,
)
from repro.ec.vandermonde import VandermondeRSCode, build_vandermonde_generator
from repro.ec.schedule import XorSchedule, dumb_schedule, paar_schedule, smart_schedule
from repro.ec.encoder import BlockEncoder, pad_and_split, reassemble

__all__ = [
    "CodeParams",
    "ErasureCode",
    "CauchyRSCode",
    "bitmatrix_ones",
    "build_cauchy_good_matrix",
    "build_cauchy_matrix",
    "schedule_cache_info",
    "DEFAULT_CHUNK_BYTES",
    "WORD_BYTES",
    "apply_schedule_blocks",
    "range_alignment",
    "xor_reduce_arrays",
    "xor_reduce_into",
    "VandermondeRSCode",
    "build_vandermonde_generator",
    "XorSchedule",
    "dumb_schedule",
    "paar_schedule",
    "smart_schedule",
    "BlockEncoder",
    "pad_and_split",
    "reassemble",
]
