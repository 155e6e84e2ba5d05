"""Every stored attribute has a reader: lint ``src/repro/`` for write-only state.

A tally that is assigned or incremented but never read costs a line on
every path that updates it and tells nobody anything.  For every
attribute name the program stores, some code under ``src/``,
``benchmarks/`` or ``examples/`` must read an attribute of that name.
A read in ``tests/`` does not count: a test that asserts on a tally
nothing else reads keeps the tally alive for the test alone.  The few
names read only by a route the scan cannot see are listed in
:data:`READ_ELSEWHERE`, each with that route.

A *store* is an assignment, annotated-assignment or augmented-assignment
target ``obj.name``, or the receiver ``obj.name`` of a mutating call
(``.append`` / ``.add`` / ``.extend`` / ``.update`` / ``.inc``).  A
*read* is any other load of ``obj.name`` — ``obj.name.get(...)`` and
``obj.name.setdefault(...)`` included — or a ``getattr`` / ``hasattr``
with the name as a string literal.  Names match by attribute name alone,
whatever the object.

The scan is AST only; it imports nothing from the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READER_DIRS = ("src", "benchmarks", "examples")

#: Stored names whose reader is not an attribute load, with where it reads.
READ_ELSEWHERE = {
    "trace_summary": "a campaign result field, serialized through dataclasses.fields",
    "phases": "a campaign result field, serialized through dataclasses.fields",
    "context": "the InjectedCrash payload, read off the exception by its handler",
    "_finalizer": "the pool's shutdown handle, which tests/ec/test_procpool.py inspects",
}

#: Calls that only add to their receiver.
MUTATORS = frozenset({"append", "add", "extend", "update", "inc"})


def _trees(dirs):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _attribute_targets(target):
    if isinstance(target, ast.Attribute):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _attribute_targets(element)
    elif isinstance(target, ast.Starred):
        yield from _attribute_targets(target.value)


def _mutated_receiver(node: ast.AST) -> ast.Attribute | None:
    """``obj.name`` when ``node`` is ``obj.name.<mutator>(...)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
        and isinstance(node.func.value, ast.Attribute)
    ):
        return node.func.value
    return None


def stored_names(tree: ast.AST) -> dict[str, int]:
    """Attribute names ``tree`` stores, with the first line storing each."""
    stores: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            receiver = _mutated_receiver(node)
            targets = [receiver] if receiver is not None else []
        for target in targets:
            for attribute in _attribute_targets(target):
                stores.setdefault(attribute.attr, attribute.lineno)
    return stores


def read_names(tree: ast.AST) -> set[str]:
    """Attribute names ``tree`` reads."""
    receivers = {
        id(receiver)
        for node in ast.walk(tree)
        if (receiver := _mutated_receiver(node)) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in receivers
        ):
            names.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


STORES: dict[str, str] = {}
for _path, _tree in _trees(("src/repro",)):
    for _name, _line in stored_names(_tree).items():
        STORES.setdefault(_name, f"{_path.relative_to(ROOT)}:{_line}")
READS = set().union(*(read_names(tree) for _, tree in _trees(READER_DIRS)))


def test_every_stored_attribute_is_read():
    unread = sorted(
        f"{name} ({where})"
        for name, where in STORES.items()
        if name not in READS and name not in READ_ELSEWHERE
    )
    assert not unread, (
        "stored but never read anywhere: " + ", ".join(unread) + " — delete "
        "the tally, or give it a reader"
    )


def test_every_name_read_elsewhere_is_still_stored_and_unread():
    assert sorted(n for n in READ_ELSEWHERE if n not in STORES or n in READS) == []


def test_the_lint_sees_stores_and_reads():
    tree = ast.parse(
        "obj.a = 1\n"
        "obj.b += 1\n"
        "obj.c: int = 0\n"
        "obj.d, (obj.e, x) = 1, (2, 3)\n"
        "obj.f.append(1)\n"
        "obj.g.inc()\n"
        "obj.h.get(1)\n"
        "obj.i.setdefault(1, 2)\n"
        "print(obj.j)\n"
        "getattr(obj, 'k')\n"
    )
    assert set(stored_names(tree)) == {"a", "b", "c", "d", "e", "f", "g"}
    # The mutator and accessor names themselves load too; they are
    # methods, never stored.
    assert read_names(tree) == {
        "h", "i", "j", "k", "get", "setdefault", "append", "inc"
    }
