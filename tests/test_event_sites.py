"""One recorder, one call site per fact: lint the event calls in ``src/repro/``.

Point events reach the trace and the timeline through one recorder,
``obs.event(kind, **fields)``, which writes every installed sink.  A
direct write to one sink — a tracer's ``.event(``, a sampler's
``.note_event(`` or a clock's ``.note(`` — outside ``obs/`` records a
fact the other sink never sees.  And a kind recorded at two call sites
is one fact with two records (or two facts under one name), which is
how a save crash came to be both ``crash_point_fired`` and
``save_crash``.  So, outside ``obs/``, no call may write a sink directly,
and over all of ``src/repro/`` every ``obs.event`` names its kind as a
string literal, each kind at one call site.

The scan is AST only; it imports nothing from the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: The package that owns the sinks; only it may write them directly.
OBS = "obs/"
#: Methods that write one sink directly.
SINK_WRITES = frozenset({"note", "note_event", "event"})


def _is_recorder(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "event"
        and isinstance(func.value, ast.Name)
        and func.value.id == "obs"
    )


def scan(path: str, source: str):
    """``(sink writes, recorder calls)`` in one module.

    A sink write is ``"path:line: text"``; a recorder call is
    ``(kind or None, "path:line")`` — ``None`` when the kind is not a
    string literal.
    """
    writes, calls = [], []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        where = f"{path}:{node.lineno}"
        if _is_recorder(node.func):
            arg = node.args[0] if node.args else None
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            calls.append((arg.value if literal else None, where))
        elif node.func.attr in SINK_WRITES and not path.startswith(OBS):
            writes.append(f"{where}: {ast.unparse(node.func)}(...)")
    return writes, calls


def problems(sources: dict[str, str]) -> list[str]:
    """Every sink write outside ``obs/``, non-literal kind and repeated kind."""
    found: list[str] = []
    sites: dict[str, list[str]] = {}
    for path, source in sorted(sources.items()):
        writes, calls = scan(path, source)
        found += [f"direct sink write {w}" for w in writes]
        for kind, where in calls:
            if kind is None:
                found.append(f"{where}: obs.event kind is not a string literal")
            else:
                sites.setdefault(kind, []).append(where)
    found += [
        f"event kind {kind!r} recorded at {len(where)} call sites: {', '.join(where)}"
        for kind, where in sorted(sites.items())
        if len(where) > 1
    ]
    return found


def src_sources() -> dict[str, str]:
    return {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def test_every_event_goes_through_the_recorder_once_per_kind():
    assert problems(src_sources()) == []


def test_the_recorder_is_called_for_every_documented_kind():
    kinds = {
        kind
        for path, source in src_sources().items()
        for kind, _ in scan(path, source)[1]
    }
    assert kinds == {
        "crash_point_fired", "reconfigure", "recovery", "node_replaced",
        "spare_join", "domain_failure", "tenant_failure", "corruption",
        "failure", "tier_loss",
    }


def test_the_lint_flags_planted_sink_writes_and_repeated_kinds():
    planted = {
        "chaos/campaign.py": (
            'clock.note("save_crash", point=point)\n'
            'obs.event("failure", ranks=[0])\n'
        ),
        "chaos/hybrid_campaign.py": 'obs.event("failure", ranks=[1])\n',
        "fleet/scheduler.py": (
            'self.sampler.note_event(t, "spare_join", rank=1)\n'
            "obs.event(kind, rank=1)\n"
        ),
        "checkpoint/base.py": 'tracer.event("crash_point_fired", point=p)\n',
        "obs/timeseries.py": 'self.sampler.note_event(self.t, kind)\n',
    }
    found = problems(planted)
    assert found == [
        "direct sink write chaos/campaign.py:1: clock.note(...)",
        "direct sink write checkpoint/base.py:1: tracer.event(...)",
        "direct sink write fleet/scheduler.py:1: self.sampler.note_event(...)",
        "fleet/scheduler.py:2: obs.event kind is not a string literal",
        "event kind 'failure' recorded at 2 call sites: "
        "chaos/campaign.py:2, chaos/hybrid_campaign.py:1",
    ]
