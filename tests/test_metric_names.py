"""Every metric holds one fact no span or event carries: lint ``src/repro/``.

The trace records each fact once.  A counter bumped in the block that
emits an event counts that event again; a counter summing a span
attribute re-sums the spans.  Either way the trace holds two records of
one fact, which can drift apart, and a reader has to know which one to
trust.  So every metric name the program writes — the literal first
argument of a ``.counter`` / ``.gauge`` / ``.histogram`` call — must
appear in :data:`METRICS`, beside the one fact it records that no span
attribute or event field carries.  An f-string name is listed by its
literal prefix; a name held in a variable would hide from the scan, so
it is refused.

The scan is AST only; it imports nothing from the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Registry calls that name a metric.
KINDS = frozenset({"counter", "gauge", "histogram"})
#: What :func:`metric_name` returns for a name that is not written out.
COMPUTED = "<computed name>"

#: Metric name (or f-string prefix) -> the fact only it records.
METRICS = {
    "p2p.bytes_inter_node": "inter-node bytes of every save; the idle-slot report reads the total",
    "save.bytes_dtoh": "device-to-host bytes of every full save",
    "restore.bytes_inter_node": "inter-node bytes of every restore",
    "tier.disk_bytes_evicted": "disk-tier bytes the version GC freed",
    "gradrep.bytes_replicated": "bytes the gradient stream shipped to buddy nodes",
    "gradrep.log_depth": "the gradient log's depth after the last replication",
    "save.padding_share": "share of the last save's packet bytes that is padding",
    "integrity.bytes_digested": "bytes the last save's landing digests CRC'd",
    "integrity.bytes_closed_form": "bytes the last save's landing digests folded in closed form",
    "restore.digests_crcd": "chunk digests the last restore CRC'd",
    "restore.digests_derived": "chunk digests the last restore derived",
    "elastic.repair_items": "items the last elastic repair rebuilt",
    "cache.decode_": "the decoding-matrix cache's hits, misses and size at the end of a traced run",
    "kernels.xor_reduce_bytes": "bytes xor_reduce_into folded",
}


def metric_name(node: ast.AST) -> str | None:
    """The name (or f-string prefix) a registry call writes, else None.

    :data:`COMPUTED` for a registry call whose name is not a literal.
    """
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in KINDS
        and node.args
    ):
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        prefix = ""
        for part in arg.values:
            if not isinstance(part, ast.Constant):
                break
            prefix += part.value
        return prefix
    return COMPUTED


def metric_sites() -> dict[str, str]:
    """Metric name -> first ``path:line`` under ``src/repro/`` writing it."""
    sites: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = metric_name(node)
            if name is not None:
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                sites.setdefault(name, where)
    return sites


SITES = metric_sites()


def test_every_metric_records_a_fact_no_span_or_event_carries():
    unlisted = sorted(
        f"{name} ({where})" for name, where in SITES.items() if name not in METRICS
    )
    assert not unlisted, (
        "metrics not in METRICS: " + ", ".join(unlisted) + " — if a span "
        "attribute or an event field already carries the fact, read it "
        "there; otherwise list the metric with the fact only it records"
    )


def test_every_listed_metric_is_still_written():
    assert sorted(set(METRICS) - set(SITES)) == []


def test_the_lint_sees_literal_and_fstring_names():
    tree = ast.parse(
        "m.counter('a.b').inc()\n"
        "m.gauge(f'c.{x}_d').set(1)\n"
        "m.histogram('e').observe(1)\n"
        "m.counter(name)\n"
        "m.other('f')\n"
    )
    names = [metric_name(node) for node in ast.walk(tree)]
    assert sorted(n for n in names if n is not None) == [COMPUTED, "a.b", "c.", "e"]
