"""Log/antilog tables of GF(2^8), the one field of the coding stack.

The tables follow the classic construction used by Jerasure: take the
primitive polynomial, enumerate powers of the generator ``x`` (element 2),
and record ``exp[i] = x^i`` together with the inverse mapping
``log[exp[i]] = i``.  Multiplication then reduces to an addition of logs
modulo ``2^8 - 1``.

Every code the package builds — the engines', the ablations', the
examples' — runs at w = 8, the word size Jerasure's Cauchy RS defaults
to, so the field is fixed here rather than chosen per code.
"""

from __future__ import annotations

import numpy as np

#: Word size of the field: every element is one byte.
W = 8

#: Jerasure's default for w = 8, leading term included:
#: x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLYNOMIAL = 0x11D


def _exp_log() -> tuple[np.ndarray, np.ndarray]:
    """``(exp, log)``: ``exp`` has length ``2 * 255`` so products of two
    logs are looked up without a modulo; ``log[0]`` is a sentinel 0 (it
    is never a valid input to multiplication by logs)."""
    order = (1 << W) - 1
    exp = np.zeros(2 * order, dtype=np.uint32)
    log = np.zeros(1 << W, dtype=np.uint32)
    value = 1
    for i in range(order):
        exp[i] = value
        log[value] = i
        value <<= 1
        if value & (1 << W):
            value ^= PRIMITIVE_POLYNOMIAL
    # Duplicate the cycle so exp[log_a + log_b] never needs a modulo.
    exp[order:] = exp[:order]
    exp.setflags(write=False)
    log.setflags(write=False)
    return exp, log


EXP, LOG = _exp_log()
