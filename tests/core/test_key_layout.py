"""The key layout has one home: only ``core/stored.py`` builds a storage key.

A storage key is a tuple that starts with ``"chunk"``, ``"digest"`` or
``"meta"`` followed by a version (anything but another string: a tuple of
kind names such as ``("chunk", "digest")`` is not a key).  Every other
module reaches a stored version through the engine's ``chunk_key`` /
``digest_key`` and its readers, so a change to the layout touches one
file.  The scan is AST only, over ``src/repro/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
KINDS = {"chunk", "digest", "meta"}
HOME = "core/stored.py"
#: Modules besides :data:`HOME` that may build keys, each with its reason.
EXCEPTIONS = {
    "chaos/invariants.py": (
        "the oracle: the reference reader of raw storage, kept independent "
        "of the engine's readers so it can judge them"
    ),
}


def key_tuples(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` of every storage key ``source`` builds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Tuple) and len(node.elts) >= 2):
            continue
        head, second = node.elts[:2]
        if (
            isinstance(head, ast.Constant)
            and head.value in KINDS
            and not (isinstance(second, ast.Constant) and isinstance(second.value, str))
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def offenders(sources: dict[str, str]) -> list[str]:
    """Keys built outside the home and the listed exceptions."""
    return [
        f"{path}:{line}: {text}"
        for path, source in sorted(sources.items())
        if path != HOME and path not in EXCEPTIONS
        for line, text in key_tuples(source)
    ]


def src_sources() -> dict[str, str]:
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def test_the_lint_tells_keys_from_kind_lists():
    assert key_tuples('key = ("meta", version, worker)')
    assert key_tuples('base = ("chunk", version, kind, idx, r)')
    assert key_tuples('store.contains(node, ("digest", 3, "data", 0, 0))')
    assert not key_tuples('kinds = ("chunk", "digest", "meta")')
    assert not key_tuples('kinds = ("chunk",)')
    assert not key_tuples('key = ("ckpt", version, worker)')


def test_only_the_stored_version_module_builds_storage_keys():
    assert offenders(src_sources()) == []


def test_the_home_and_every_exception_build_keys():
    sources = src_sources()
    for path in (HOME, *EXCEPTIONS):
        assert key_tuples(sources[path]), f"{path} builds no key: drop it from the list"


def test_the_lint_flags_a_key_planted_in_the_save_module():
    sources = src_sources()
    planted = sources["core/save.py"] + '\nKEY = ("meta", 1, 0)\n'
    line = planted.count("\n")
    assert offenders({**sources, "core/save.py": planted}) == [
        f"core/save.py:{line}: ('meta', 1, 0)"
    ]
