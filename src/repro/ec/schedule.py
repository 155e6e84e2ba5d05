"""XOR schedule compilation for bitmatrix (Cauchy RS) encoding.

A parity bitmatrix row says which data bit-planes XOR together to form one
parity bit-plane.  A *schedule* makes that explicit as a list of
operations, and its XOR count is the cost the paper's XOR-only encoder
pays.  No byte path runs a schedule (bytes go through the fused kernel,
:func:`repro.ec.kernels.apply_rows`); the compilers feed the XOR-count
ablations, and :meth:`XorSchedule.apply` proves each one computes the code.

Three compilers are provided:

* :func:`dumb_schedule` — each parity strip computed independently from data
  strips (``popcount - 1`` XORs per strip).
* :func:`smart_schedule` — a greedy derivation reuse: a parity strip may be
  computed as a previously produced parity strip XOR a (hopefully small)
  correction, the classic optimisation from the Jerasure/Plank line of work.
  The ablation benchmark measures the XOR-count reduction.
* :func:`paar_schedule` — greedy pairwise common-subexpression elimination
  (Paar's algorithm for GF(2) matrices): the most frequent source pair
  across all rows becomes a temp strip, rows substitute the temp, repeat.
  Cuts the (12, 4, 8) good-matrix schedule from 1556 dumb / 1231 smart
  XORs to ~900 at the default temp budget, at the cost of one extra strip
  per temp.

Strip numbering: data strips are ``0 .. k*w - 1``; parity strip ``r`` is
``k*w + r``; temp strip ``t`` (Paar schedules only) is ``(k + m)*w + t``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CodeConfigError


@dataclass(frozen=True)
class XorOp:
    """One scheduled operation: produce parity (or temp) strip ``dest``.

    Attributes:
        dest: global strip index of the strip being produced.
        base: strip to copy as the starting value (data, earlier parity,
            or temp), or ``None`` to start from zero.
        sources: strips XORed into the destination after the base copy.
    """

    dest: int
    base: int | None
    sources: tuple[int, ...]

    @property
    def xor_count(self) -> int:
        """Number of buffer-sized XOR operations this op performs."""
        return len(self.sources)


@dataclass
class XorSchedule:
    """A compiled encoding plan for one parity bitmatrix."""

    k: int
    m: int
    w: int
    ops: list[XorOp] = field(default_factory=list)
    n_temps: int = 0

    @property
    def total_xors(self) -> int:
        """Total strip-sized XORs across the whole schedule."""
        return sum(op.xor_count for op in self.ops)

    def apply(self, data_strips: list[np.ndarray]) -> list[np.ndarray]:
        """Execute the schedule on concrete data strips, one op at a time.

        Args:
            data_strips: ``k * w`` equal-size uint8 arrays.

        Returns:
            ``m * w`` parity strips in row order.
        """
        if len(data_strips) != self.k * self.w:
            raise CodeConfigError(
                f"expected {self.k * self.w} data strips, got {len(data_strips)}"
            )
        strips = dict(enumerate(data_strips))
        for op in self.ops:
            if op.base is None:
                acc = np.zeros_like(data_strips[0])
            else:
                acc = strips[op.base].copy()
            for source in op.sources:
                np.bitwise_xor(acc, strips[source], out=acc)
            strips[op.dest] = acc
        n_data = self.k * self.w
        return [strips[n_data + r] for r in range(self.m * self.w)]


def dumb_schedule(parity_bitmatrix: np.ndarray, k: int, m: int, w: int) -> XorSchedule:
    """Compile each parity strip independently from data strips."""
    bm = np.asarray(parity_bitmatrix, dtype=np.uint8)
    _validate_bitmatrix(bm, k, m, w)
    n_data = k * w
    schedule = XorSchedule(k=k, m=m, w=w)
    for r in range(m * w):
        cols = [int(c) for c in np.nonzero(bm[r])[0]]
        if not cols:
            schedule.ops.append(XorOp(dest=n_data + r, base=None, sources=()))
            continue
        schedule.ops.append(
            XorOp(dest=n_data + r, base=cols[0], sources=tuple(cols[1:]))
        )
    return schedule


def smart_schedule(parity_bitmatrix: np.ndarray, k: int, m: int, w: int) -> XorSchedule:
    """Compile with greedy reuse of already-produced parity strips.

    For each parity row (in a greedily chosen order), pick the cheaper of
    (a) computing it from data strips directly, or (b) starting from the
    closest previously produced parity row and XORing in the Hamming
    difference.  This mirrors the derivation-reuse trick in optimised CRS
    implementations; it never changes the output bytes, only the XOR count.
    """
    bm = np.asarray(parity_bitmatrix, dtype=np.uint8)
    _validate_bitmatrix(bm, k, m, w)
    n_data = k * w
    rows = bm.astype(bool)
    n_rows = m * w
    remaining = set(range(n_rows))
    done: list[int] = []
    schedule = XorSchedule(k=k, m=m, w=w)

    while remaining:
        best: tuple[int, int, int | None] | None = None  # (cost, row, base_row)
        for r in remaining:
            direct = max(int(rows[r].sum()) - 1, 0)
            cost, base = direct, None
            for d in done:
                delta = int(np.count_nonzero(rows[r] ^ rows[d]))
                if delta < cost:
                    cost, base = delta, d
            if best is None or cost < best[0]:
                best = (cost, r, base)
        assert best is not None
        _, r, base_row = best
        cols = [int(c) for c in np.nonzero(rows[r])[0]]
        if base_row is None:
            if cols:
                op = XorOp(dest=n_data + r, base=cols[0], sources=tuple(cols[1:]))
            else:
                op = XorOp(dest=n_data + r, base=None, sources=())
        else:
            delta_cols = [
                int(c) for c in np.nonzero(rows[r] ^ rows[base_row])[0]
            ]
            op = XorOp(
                dest=n_data + r, base=n_data + base_row, sources=tuple(delta_cols)
            )
        schedule.ops.append(op)
        remaining.remove(r)
        done.append(r)
    return schedule


def paar_schedule(
    parity_bitmatrix: np.ndarray,
    k: int,
    m: int,
    w: int,
    max_temps: int = 64,
    min_occurrence: int = 3,
) -> XorSchedule:
    """Compile with greedy pairwise common-subexpression elimination.

    Paar's algorithm for GF(2) constant-matrix multiplication: repeatedly
    find the pair of source strips that co-occurs in the most rows, compute
    it once into a temp strip, and substitute the temp everywhere.  Temps
    may themselves pair with data strips or other temps, so the elimination
    compounds.  ``max_temps`` bounds the extra strips (temps live past the
    parity strips); ``min_occurrence`` stops when sharing no longer pays.

    Like the other compilers this never changes the output bytes, only the
    op list.
    """
    bm = np.asarray(parity_bitmatrix, dtype=np.uint8)
    _validate_bitmatrix(bm, k, m, w)
    n_data = k * w
    n_parity = m * w
    rows: list[set[int]] = [
        {int(c) for c in np.nonzero(bm[r])[0]} for r in range(n_parity)
    ]
    temp_defs: list[tuple[int, int]] = []  # temp t = defs[t][0] ^ defs[t][1]
    first_temp = n_data + n_parity
    while len(temp_defs) < max_temps:
        pair_counts: Counter[tuple[int, int]] = Counter()
        for row in rows:
            members = sorted(row)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    pair_counts[(a, b)] += 1
        if not pair_counts:
            break
        (a, b), count = pair_counts.most_common(1)[0]
        if count < min_occurrence:
            break
        temp_id = first_temp + len(temp_defs)
        temp_defs.append((a, b))
        for row in rows:
            if a in row and b in row:
                row.discard(a)
                row.discard(b)
                row.add(temp_id)
    schedule = XorSchedule(k=k, m=m, w=w, n_temps=len(temp_defs))
    # Creation order is dependency order: a temp pairs only strips that
    # existed when it was made.
    for t, (a, b) in enumerate(temp_defs):
        schedule.ops.append(XorOp(dest=first_temp + t, base=a, sources=(b,)))
    for r in range(n_parity):
        cols = sorted(rows[r])
        if cols:
            op = XorOp(dest=n_data + r, base=cols[0], sources=tuple(cols[1:]))
        else:
            op = XorOp(dest=n_data + r, base=None, sources=())
        schedule.ops.append(op)
    return schedule


def _validate_bitmatrix(bm: np.ndarray, k: int, m: int, w: int) -> None:
    expected = (m * w, k * w)
    if bm.shape != expected:
        raise CodeConfigError(
            f"parity bitmatrix shape {bm.shape} != expected {expected}"
        )
