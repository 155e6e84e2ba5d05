"""No feature probes on engines, and no reads of their privates.

Capabilities are types, checked once.

A ``hasattr(engine, "x")`` or ``getattr(job, "x", default)`` with a
literal name is a feature probe: a typo in it silently disables the
feature.  Engine capabilities are the protocols in
:mod:`repro.checkpoint.base`, and the fields of jobs, clusters and
ledgers always exist.  This lint fails on any such probe whose object
expression names an ``engine``, ``job``, ``cluster`` or ``ledger``,
anywhere in ``src/repro/`` outside the coding library ``ec/``.  Value
reflection stays legal (``getattr(value, "nbytes", None)``, a tracer's
thread-local, dataclass fields, parsed CLI arguments).

An engine's underscored members are its own business: no module reads one
through an ``engine`` or ``inner`` (a wrapping engine's core) expression,
so what the elastic controller and repair read and write of a stored
version is the engine's public surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SUBJECTS = {"engine", "job", "cluster", "ledger"}
OWNERS = {"engine", "inner"}


def names(expr: ast.AST) -> set[str]:
    """Every variable and attribute name in ``expr``."""
    return {
        part.id if isinstance(part, ast.Name) else part.attr
        for part in ast.walk(expr)
        if isinstance(part, (ast.Name, ast.Attribute))
    }


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
        if names(node.args[0]) & SUBJECTS:
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


def private_reads(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every underscored, non-dunder attribute read on
    an expression naming an engine."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and names(node.value) & OWNERS
    ]


def test_the_lint_tells_private_engine_reads_from_public_ones():
    assert private_reads("engine._records(version, nodes)")
    assert private_reads("self.engine._survey(version, nodes)")
    assert private_reads("self.inner._move(version, src)")
    assert private_reads("tenant.engine.host._stores")
    assert not private_reads("engine.decodable(version, nodes)")
    assert not private_reads("self._records(version, nodes)")  # an engine's own
    assert not private_reads("engine.__class__")
    assert not private_reads("job._state")


def test_no_private_engine_reads_in_src():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {text}"
        for path in sorted(SRC.rglob("*.py"))
        for line, text in private_reads(path.read_text())
    ]
    assert offenders == []
