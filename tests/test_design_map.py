"""Every module DESIGN.md's maps cite exists.

The module map ("System inventory") cites ``repro/...`` paths, and bare
file names after one that mean siblings in its directory; the
per-experiment index cites modules under ``src/repro/`` and bench files
under ``benchmarks/``.  A map that names a file nobody can open sends a
reader nowhere, so each cited ``.py`` path (or glob) must match a file.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECTIONS = ("## System inventory (module map)", "## Per-experiment index")


def section(text: str, heading: str) -> str:
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start : end if end >= 0 else None]


def cited(text: str) -> list[tuple[str, Path]]:
    """``(token, pattern)`` for every ``.py`` path the maps cite, each
    pattern relative to the repository root."""
    found = []
    for heading in SECTIONS:
        for row in section(text, heading).splitlines():
            directory = None
            for token in re.findall(r"`([^`]+\.py)`", row):
                if token.startswith("repro/"):
                    pattern = Path("src") / token
                elif token.startswith("benchmarks/"):
                    pattern = Path(token)
                elif "/" in token:
                    pattern = Path("src/repro") / token
                else:
                    pattern = directory / token
                directory = pattern.parent
                found.append((token, pattern))
    return found


def test_every_cited_module_exists():
    citations = cited((ROOT / "DESIGN.md").read_text())
    assert len(citations) > 40
    missing = [token for token, pattern in citations if not list(ROOT.glob(str(pattern)))]
    assert missing == []


def test_the_scan_resolves_siblings_and_sees_a_missing_module():
    text = (
        "## System inventory (module map)\n"
        "| a | `repro/elastic/membership.py`, `policy.py` |\n"
        "| b | `repro/core/recovery.py` |\n"
        "## Per-experiment index\n"
        "| c | `core/eccheck.py` | `benchmarks/test_ablations.py` |\n"
    )
    citations = dict(cited(text))
    assert citations["policy.py"] == Path("src/repro/elastic/policy.py")
    assert citations["core/eccheck.py"] == Path("src/repro/core/eccheck.py")
    assert citations["benchmarks/test_ablations.py"] == Path("benchmarks/test_ablations.py")
    assert not list(ROOT.glob(str(citations["repro/core/recovery.py"])))
