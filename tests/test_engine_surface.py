"""No feature probes on engines: capabilities are types, checked once.

A ``hasattr(engine, "x")`` or ``getattr(job, "x", default)`` with a
literal name is a feature probe: a typo in it silently disables the
feature.  Engine capabilities are the protocols in
:mod:`repro.checkpoint.base`, and the fields of jobs, clusters and
ledgers always exist.  This lint fails on any such probe whose object
expression names an ``engine``, ``job``, ``cluster`` or ``ledger``,
anywhere in ``src/repro/`` outside the coding library ``ec/``.  Value
reflection stays legal (``getattr(value, "nbytes", None)``, a tracer's
thread-local, dataclass fields, parsed CLI arguments).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SUBJECTS = {"engine", "job", "cluster", "ledger"}


def probes(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every feature probe in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hasattr", "getattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            continue
        named = {
            part.id if isinstance(part, ast.Name) else part.attr
            for part in ast.walk(node.args[0])
            if isinstance(part, (ast.Name, ast.Attribute))
        }
        if named & SUBJECTS:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_lint_tells_probes_from_value_reflection():
    assert probes('hasattr(engine, "demote_version")')
    assert probes('getattr(self.engine, "replicate_iteration", None)')
    assert probes('getattr(tenant.job.cluster, "nodes_per_rack", None)')
    assert probes('getattr(ledger, "epoch", 0)')
    assert not probes('getattr(value, "nbytes", None)')
    assert not probes('getattr(self._local, "stack", None)')
    assert not probes("getattr(engine, name)")  # not a literal: reflection
    assert not probes('hasattr(seed, "__len__")')


def test_no_feature_probes_outside_the_coding_library():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {text}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "ec"
        for line, text in probes(path.read_text())
    ]
    assert offenders == []
