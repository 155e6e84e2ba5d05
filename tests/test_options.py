"""Every option has a caller: lint the settable values of the core surfaces.

A settable value that only tests set is a code path only tests run.  For
each surface below, every option — an init field of a config dataclass,
or a defaulted parameter of a constructor or function — must be set by
some call under ``src/`` or ``benchmarks/``: passed by keyword, or (for
config fields) named in a ``dataclasses.replace``.  A positional argument
counts too where the callee is a class or a module-level function, whose
name pins which definition a call reaches; a method is matched by its
attribute name alone, so only keywords count for it.  A ``**mapping``
argument counts as setting the options whose names the calling module
spells as string literals (the CLI builds campaign configs from
``_campaign_config(args, "max_rounds", "trace")``).  Calls under
``tests/`` and ``examples/`` do not count.

``TimeModel`` and ``ModelConfig`` are not surfaces: they are records (the
calibrated hardware constants and the model zoo's entries), whose fields
describe a machine or a model rather than choose a code path.

The scan is AST only; it imports nothing from the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks")

#: Config dataclasses: every init field is an option.
CONFIGS = (
    "ECCheckConfig",
    "TierPolicy",
    "RedundancyPolicy",
    "CodeParams",
    "ChaosConfig",
    "TierChaosConfig",
    "ElasticConfig",
    "HybridChaosConfig",
    "FleetConfig",
    "TenantSpec",
    "ParallelismSpec",
    "CheckpointSizeModel",
)
#: ``(owner class or None, function)``: every defaulted parameter is an
#: option.  ``__init__`` is reached through calls to the class's name.
FUNCTIONS = (
    ("CheckpointManager", "__init__"),
    ("ElasticClusterController", "__init__"),
    ("FleetScheduler", "__init__"),
    ("FleetScheduler", "run"),
    (None, "build_engine"),
    (None, "build_data_group"),
    (None, "regroup_plan"),
    ("TrainingJob", "create"),
    ("GeminiReplicationEngine", "__init__"),
    ("AlertEngine", "__init__"),
    ("TimeSeriesSampler", "__init__"),
    ("Tracer", "__init__"),
)
#: Options no caller under ``src/`` or ``benchmarks/`` sets, each kept
#: for a stated reason.
ALLOWED = {
    ("ECCheckConfig", "packet_alignment"): (
        "read by the wall-clock ledger (benchmarks/perf/layers.py)"
    ),
}


def _trees(dirs):
    for name in dirs:
        for path in sorted((ROOT / name).rglob("*.py")):
            yield ast.parse(path.read_text(), filename=str(path))


SRC = list(_trees(("src",)))
CALLERS = list(_trees(CALLER_DIRS))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and any(
            kw.arg == "init"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in value.keywords
        )
    )


def _find_class(name: str) -> ast.ClassDef:
    found = [
        node
        for tree in SRC
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    assert len(found) == 1, f"class {name} defined {len(found)} times in src/"
    return found[0]


def config_fields(name: str) -> list[str]:
    """Init fields of dataclass ``name``, in declaration order."""
    cls = _find_class(name)
    assert _is_dataclass(cls), f"{name} is not a dataclass"
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and not _init_false(stmt.value)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]


def _find_function(owner: str | None, name: str) -> ast.FunctionDef:
    if owner is not None:
        body = _find_class(owner).body
    else:
        body = [stmt for tree in SRC for stmt in tree.body]
    found = [
        stmt
        for stmt in body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name
    ]
    assert len(found) == 1, f"{owner}.{name} defined {len(found)} times"
    return found[0]


def function_options(owner: str | None, name: str) -> tuple[list[str], set[str]]:
    """``(positional parameter names, defaulted parameter names)``."""
    args = _find_function(owner, name).args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if owner is not None:
        positional = positional[1:]  # self
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    }
    return positional, defaulted


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_dataclasses_replace(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "replace"
        and isinstance(func.value, ast.Name)
        and func.value.id == "dataclasses"
    ) or (isinstance(func, ast.Name) and func.id == "replace")


def _string_literals(tree: ast.Module) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def set_by_callers(
    callee: str, positional: list[str], options: set[str], replace: bool
) -> set[str]:
    """Parameter names some call to ``callee`` under the caller dirs sets."""
    names: set[str] = set()
    for tree in CALLERS:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee(node) == callee:
                plain = [a for a in node.args if not isinstance(a, ast.Starred)]
                names.update(positional[: len(plain)])
                names.update(kw.arg for kw in node.keywords if kw.arg)
                if any(kw.arg is None for kw in node.keywords):
                    names.update(options & _string_literals(tree))
            elif replace and _is_dataclasses_replace(node):
                names.update(kw.arg for kw in node.keywords if kw.arg)
    return names


def surfaces():
    """``(label, options, options some caller sets)`` per surface."""
    for name in CONFIGS:
        fields = config_fields(name)
        yield name, set(fields), set_by_callers(
            name, fields, set(fields), replace=True
        )
    for owner, func in FUNCTIONS:
        positional, defaulted = function_options(owner, func)
        method = owner is not None and func != "__init__"
        callee = owner if func == "__init__" else func
        label = f"{owner}.{func}" if owner else func
        yield label, defaulted, set_by_callers(
            callee, [] if method else positional, defaulted, replace=False
        )


SURFACES = {label: (options, reached) for label, options, reached in surfaces()}


@pytest.mark.parametrize("label", list(SURFACES))
def test_every_option_is_set_by_a_program_caller(label):
    options, reached = SURFACES[label]
    owner = label.split(".")[0]
    unreached = sorted(
        option
        for option in options - reached
        if (owner, option) not in ALLOWED
    )
    assert not unreached, (
        f"{label}: set only by tests or by nothing: {unreached} — delete "
        "the option (a module constant if the value is still needed)"
    )


def test_allowlist_names_live_options():
    for owner, option in ALLOWED:
        options, reached = SURFACES[owner]
        assert option in options, f"{owner}.{option} is no longer an option"
        assert option not in reached, (
            f"{owner}.{option} now has a program caller; drop its allowlist entry"
        )
