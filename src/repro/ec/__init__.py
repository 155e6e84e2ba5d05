"""Erasure codes, the one kernel that codes bytes, and the XOR-count ablations.

1. **Codes** (:class:`~repro.ec.base.ErasureCode` subclasses) own a
   systematic generator matrix over GF(2^8): Cauchy Reed-Solomon
   (:class:`~repro.ec.cauchy.CauchyRSCode`, the scheme ECCheck uses) and
   classic Vandermonde Reed-Solomon.  ``encode`` / ``decode`` are the
   field-arithmetic references; ``encode_fast`` / ``decode_fast`` code
   the same bytes through the kernel.
2. **The kernel** (:mod:`repro.ec.kernels`): :func:`apply_rows` applies
   GF(2^8) rows over cache-sized blocks.  Every byte path — the engine's
   fused group encode and decode, ``encode_fast`` / ``decode_fast`` and
   the pools — runs it.
3. **Schedules** (:mod:`repro.ec.schedule`) compile a Cauchy bitmatrix
   into explicit XOR operations; their XOR counts are the paper's
   XOR-only encode cost, reported by the ablations.

The pool encoders (:mod:`repro.ec.threadpool`, :mod:`repro.ec.procpool`)
split a block across threads or processes.  They are imported from their
own modules, not re-exported here: the checkpoint engines use neither,
and importing an engine must not load them.  See DESIGN.md "Hot path
architecture".
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
    apply_rows,
    xor_reduce_arrays,
    xor_reduce_into,
)
from repro.ec.vandermonde import VandermondeRSCode, build_vandermonde_generator
from repro.ec.schedule import XorSchedule, dumb_schedule, paar_schedule, smart_schedule

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
    "apply_rows",
    "xor_reduce_arrays",
    "xor_reduce_into",
    "VandermondeRSCode",
    "build_vandermonde_generator",
    "XorSchedule",
    "dumb_schedule",
    "paar_schedule",
    "smart_schedule",
]
