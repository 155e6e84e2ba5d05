#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py`` under the ``BENCHMARK.json`` bounds.

    python3 benchmarks/perf/compare.py A.json B.json

A is the base, B the candidate.  For every (workload, end-to-end metric)
the ratio B/A is printed with its base and one verdict:

* ``unresolved`` — the run-to-run spread of either side (distance
  between the quartiles of its ``samples``, the values its shards
  measured, as a share of their median) is wider than the metric's
  bound, or a side has fewer than two samples and so no known spread:
  the two cannot be told apart;
* ``regressed`` — B is worse than A by more than the bound;
* ``improved`` — B is better than A by more than the bound;
* ``ok`` — within the bound.

The exact ledger metrics (simulated seconds, bytes held per state byte,
failed ops) have bound 0: any difference is a verdict.  Exit status is
1 when anything regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Exact metrics of the ledger: all lower-is-better, no tolerance.
EXACT = ("sim_save_s", "sim_restore_s", "host_bytes_per_state_byte", "failed_ops_ratio")


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median; unknown is infinite.

    The samples are all the shards of one run, not a draw from more, so
    the quartiles are the inclusive ones.  Of three shards that is half
    the distance from the fastest to the slowest, which is also about how
    far the value under comparison, their median, moves from run to run.
    """
    if len(samples) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, share by which B is worse than A, widest spread)."""
    base, value = a["value"], b["value"]
    worse = (value - base) / base if base else float(value != base)
    if better == "higher":
        worse = -worse
    # An exact metric (bound 0) repeats bit for bit: it has no spread.
    widest = max(spread(m.get("samples", [])) for m in (a, b)) if bound else 0.0
    if widest > bound:
        return "unresolved", worse, widest
    if worse > bound:
        return "regressed", worse, widest
    if worse < -bound:
        return "improved", worse, widest
    return "ok", worse, widest


def compare(a: dict, b: dict, contract: dict) -> list[dict]:
    rules = [(m["name"], m["better"], m["bound"]) for m in contract["end_to_end"]]
    rules += [(name, "lower", 0.0) for name in EXACT]
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        base = a["workloads"][workload]["end_to_end"]
        cand = b["workloads"][workload]["end_to_end"]
        for name, better, bound in rules:
            if name not in base or name not in cand:
                continue
            what, worse, widest = verdict(base[name], cand[name], better, bound)
            rows.append(
                {
                    "workload": workload, "metric": name, "verdict": what,
                    "base": base[name]["value"], "value": cand[name]["value"],
                    "unit": base[name]["unit"], "worse_by": worse,
                    "spread": widest, "bound": bound,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="ledger of the base (A)")
    parser.add_argument("candidate", help="ledger of the candidate (B)")
    args = parser.parse_args(argv)
    a, b, contract = (
        json.loads(Path(p).read_text(encoding="utf-8"))
        for p in (args.base, args.candidate, ROOT / "BENCHMARK.json")
    )
    rows = compare(a, b, contract)
    print(f"{'workload':14s} {'metric':26s} {'verdict':10s} "
          f"{'B':>12s} / {'A (base)':<12s} {'unit':6s}   {'B/A':>6s}")
    for row in rows:
        base = row["base"]
        ratio = row["value"] / base if base else 1.0 + row["worse_by"]
        print(
            f"{row['workload']:14s} {row['metric']:26s} {row['verdict']:10s} "
            f"{row['value']:12.6g} / {base:<12.6g} {row['unit']:6s} = {ratio:6.3f}x  "
            f"worse by {row['worse_by']:+7.2%}  spread {row['spread']:6.2%}  "
            f"bound {row['bound']:.0%}"
        )
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "improved", "regressed", "unresolved")}
    print(" ".join(f"{v}={n}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
